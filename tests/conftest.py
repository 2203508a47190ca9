"""Shared fixtures: the expensive reference runs are session-scoped."""

from dataclasses import replace

import numpy as np
import pytest

from eightflow.curves import PlaneCurve, resample_arclength
from eightflow.flow import FlowConfig, Trajectory, run
from eightflow.shapes import (
    make_asymmetric_eight,
    make_bernoulli_lemniscate,
    make_circle,
    make_ellipse,
)

# Approximate extinction time of the unit Bernoulli lemniscate under curve
# shortening flow (calibrated once); only used to place snapshot times so
# that tau -> tau/2 pairs are available near the end of the run.
LEMNISCATE_T_MAX = 0.1155


def lemniscate_output_times():
    uniform = np.arange(0.002, 0.120, 0.002)
    dyadic = LEMNISCATE_T_MAX * (1.0 - 0.5 ** np.arange(1, 14))
    return sorted(set(np.round(np.concatenate([uniform, dyadic]), 12)))


@pytest.fixture(scope="session")
def lemniscate_run():
    """Unit lemniscate, N=256, evolved to 1% of its initial total area."""
    config = FlowConfig(stop_area_frac=0.01)
    return run(make_bernoulli_lemniscate(1.0, 256), config, lemniscate_output_times())


@pytest.fixture(scope="session")
def deep_lemniscate_run(lemniscate_run):
    """`lemniscate_run` continued from its last state to 1e-4 of its initial total area.

    Only the initial and final states are kept: the deep collapse witnesses
    compare the last record with the first.  The continuation counts its
    remesh cadence from its own first step.
    """
    first, last = lemniscate_run.states[0], lemniscate_run.states[-1]
    area0, area_last = (lemniscate_run.records[k].area_total for k in (0, -1))
    config = FlowConfig(stop_area_frac=1e-4 * area0 / area_last)
    deep = run(last.curve, config)
    tail = deep.states[-1]
    end = replace(tail, t=last.t + tail.t, step=last.step + tail.step)
    return Trajectory(
        states=[first, end],
        records=[lemniscate_run.records[0], replace(deep.records[-1], t=end.t)],
        stop_reason=deep.stop_reason, config=config,
    )


@pytest.fixture(scope="session")
def circle_runs():
    """Unit circles at N=256 and N=512 evolved to exactly t = 0.375."""
    out = {}
    for n in (256, 512):
        config = FlowConfig(stop_area_frac=0.01)
        out[n] = run(make_circle(1.0, n), config, output_times=[0.375], t_end=0.375)
    return out


@pytest.fixture(scope="session")
def ellipse_run():
    """Convex 2:1 ellipse, N=256, evolved to t = 0.5 (area 2*pi -> pi)."""
    config = FlowConfig(stop_area_frac=0.05)
    times = np.arange(0.025, 0.5, 0.025)
    return run(make_ellipse(2.0, 1.0, 256), config, times, t_end=0.5)


@pytest.fixture(scope="session")
def asymmetric_run():
    """Ratio-1.5 eight (convex left loop), evolved to 40% of initial area."""
    config = FlowConfig(stop_area_frac=0.4)
    times = np.arange(0.005, 0.2, 0.005)
    return run(make_asymmetric_eight(1.5, 256), config, times)


def angenent_oval(n: int, t: float) -> PlaneCurve:
    """Angenent's oval {e^t cosh x = cos y} at a time t < 0, with N nodes
    uniform in arclength.  It is an exact solution of curve shortening flow
    that dies at t = 0; its area is -2 pi t, and its half-extents are
    arccosh(e^-t) in x and arccos(e^t) in y.  The nodes sample y = y_max sin s
    and are then respaced by the spline remesh, whose error is O(h^4); a
    linear respacing would leave an O(h^2) error at the start."""
    s = 2.0 * np.pi * np.arange(n) / n
    y = np.arccos(np.exp(t)) * np.sin(s)
    # Round-off at the top and bottom tips can put the argument just below 1.
    x = np.sign(np.cos(s)) * np.arccosh(np.maximum(np.exp(-t) * np.cos(y), 1.0))
    return resample_arclength(PlaneCurve(np.column_stack([x, y])))


def measured_radius(curve) -> float:
    pts = curve.points
    return float(np.linalg.norm(pts - pts.mean(axis=0), axis=1).mean())


def trapezoid_heights(plane, z_base=0.0):
    """Heights z_i = z_base + sum over j < i of du (w_j + w_{j+1}) / 2, w = y x_u:
    the trapezoidal transport a Legendrian lift uses, with no balance check, so
    an unbalanced plane curve keeps its holonomy in the wrap segment."""
    w = plane.y * plane.jet.d1[:, 0]
    steps = 0.5 * plane.du * (w + np.roll(w, -1))
    return z_base + np.concatenate(([0.0], np.cumsum(steps)[:-1]))

"""Closed-form comparison solutions and maximum-principle containment checks.

The scaled grim reaper is the leftward-opening, leftward-translating graph

    G(y, t) = -2 C0 tau0 log cos(1/2)
              + 2 C0 tau0 log cos(y / (2 C0 tau0))
              - (t + tau0/2) / (2 C0 tau0),

defined for |y| < pi C0 tau0, an exact solution of curve shortening flow
translating with horizontal speed -1/(2 C0 tau0).  A curve inside the region
{x <= G(y, -tau0/2)} stays inside for later times by the avoidance
principle; running the comparison over [-tau0/2, 0] pushes the barrier left
by 1/(4 C0) + 2 C0 tau0 log cos(1/2) relative to its initial rightmost
reach (positive only when tau0 is small against 1/C0^2).

Orientation convention: leftward = decreasing x.  Callers translate and
reflect their curve so its rightmost points sit at x = 0, matching the
rectangle (-inf, 0] x [-C0 tau0, C0 tau0].
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .curves import PlaneCurve, translate, x_extent
from .errors import Extinct, InvalidCurve, NotInsideReaper, OutOfDomain
from .flow import FlowState, Trajectory, estimate_extinction_time

_LOG_COS_HALF = float(np.log(np.cos(0.5)))  # -0.13058...


@dataclass(frozen=True)
class GrimReaper:
    """Width/time-scale parameters of the scaled translating comparison graph."""

    c0: float
    tau0: float

    def __post_init__(self):
        if not (0.0 < self.c0 < np.inf and 0.0 < self.tau0 < np.inf):
            raise InvalidCurve(f"grim reaper parameters C0={self.c0!r}, "
                               f"tau0={self.tau0!r} must be finite and positive")

    @property
    def half_width(self) -> float:
        """Half-height pi*C0*tau0 of the open domain in y."""
        return np.pi * self.c0 * self.tau0


def reaper_value(reaper: GrimReaper, y, t: float):
    """Evaluate G(y, t); raises OutOfDomain beyond the cosine window."""
    y = np.asarray(y, dtype=float)
    if np.any(np.abs(y) >= reaper.half_width):
        raise OutOfDomain(f"|y| must stay below pi*C0*tau0 = {reaper.half_width:.6g}")
    scale = 2.0 * reaper.c0 * reaper.tau0
    value = (
        -scale * _LOG_COS_HALF
        + scale * np.log(np.cos(y / scale))
        - (t + 0.5 * reaper.tau0) / scale
    )
    return value if value.ndim else float(value)


def push_distance(c0: float, tau0: float) -> float:
    """Leftward barrier displacement over [-tau0/2, 0]:

        1/(4 C0) + 2 C0 tau0 log cos(1/2),

    positive iff tau0 < 1 / (8 C0^2 |log cos(1/2)|); the signed value is
    returned either way and interpretation is left to the caller.  Raises
    InvalidCurve, as `GrimReaper` does, unless both are finite and positive.
    """
    GrimReaper(c0, tau0)
    return 1.0 / (4.0 * c0) + 2.0 * c0 * tau0 * _LOG_COS_HALF


def rectangle_containment(curve: PlaneCurve, c0: float, tau0: float) -> bool:
    """Is every sample inside the closed rectangle (-inf, 0] x [-C0 tau0, C0 tau0]?

    The caller is responsible for translating the curve so its rightmost
    points have x = 0; boundary samples count as contained.
    """
    half = c0 * tau0
    return bool(np.all(curve.x <= 0.0) and np.all(np.abs(curve.y) <= half))


def reaper_margins(curve: PlaneCurve, reaper: GrimReaper, t: float) -> float:
    """min over samples of G(y_i, t) - x_i; -inf if a sample leaves G's domain."""
    y = curve.y
    if np.any(np.abs(y) >= reaper.half_width):
        return float("-inf")
    return float(np.min(reaper_value(reaper, y, t) - curve.x))


def reaper_barrier_check(
    states: list[FlowState], reaper: GrimReaper, t_offset: float
) -> np.ndarray:
    """Per-state barrier margins min_i (G(y_i, t - t_offset) - x_i).

    The reaper clock runs as t_reaper = t_flow - t_offset, so a comparison
    over the window [-tau0/2, 0] uses t_offset = t_start + tau0/2.  The
    first state must sit strictly inside the reaper region; afterwards
    a nonpositive margin is a reported finding, not an error.
    """
    margins = np.array([reaper_margins(s.curve, reaper, s.t - t_offset) for s in states])
    if not margins[0] > 0.0:
        raise NotInsideReaper(
            f"initial margin {margins[0]:.6g} is not strictly positive"
        )
    return margins


def shrinking_circle(r0: float, t: float) -> float:
    """Radius sqrt(r0^2 - 2t) of the exact shrinking-circle solution."""
    if r0 <= 0:
        raise InvalidCurve("initial radius must be positive")
    if t >= 0.5 * r0 * r0:
        raise Extinct(f"circle of radius {r0} is extinct at t = {0.5 * r0 * r0:.6g}")
    return float(np.sqrt(r0 * r0 - 2.0 * t))


@dataclass(frozen=True)
class BarrierComparison:
    """Outcome of a grim-reaper comparison over half the reaper's time scale."""

    reaper: GrimReaper
    margins: np.ndarray
    push: float
    final_rightmost_x: float
    initial_contained: bool


def barrier_comparison(traj: Trajectory, reaper: GrimReaper) -> BarrierComparison:
    """Run a grim-reaper barrier comparison against a trajectory.

    The whole trajectory is translated so the initial rightmost point sits at
    x = 0, the reaper clock starts at -tau0/2 at the first snapshot, and
    margins are collected through `reaper_barrier_check` over the snapshots of
    the following tau0/2 of flow time.  Raises NotInsideReaper when the
    initial snapshot is not strictly inside the reaper region.
    """
    t_offset = float(traj.times[0]) + 0.5 * reaper.tau0
    keep = int(np.searchsorted(traj.times, t_offset + 1e-12, side="right"))
    shift = -float(traj.states[0].curve.x.max())
    window = [replace(s, curve=translate(s.curve, (shift, 0.0))) for s in traj.states[:keep]]
    return BarrierComparison(
        reaper=reaper,
        margins=reaper_barrier_check(window, reaper, t_offset),
        push=push_distance(reaper.c0, reaper.tau0),
        final_rightmost_x=float(window[-1].curve.x.max()),
        initial_contained=rectangle_containment(window[0].curve, reaper.c0, reaper.tau0),
    )


def matched_barrier_comparison(traj: Trajectory) -> BarrierComparison:
    """Run the matched-parameter barrier comparison against a trajectory.

    With ell the x-projection length and tau the remaining time at the first
    snapshot up to the extinction estimate `estimate_extinction_time(traj).t_max`,
    the matched reaper has C0 = 8 pi / ell and tau0 = tau; its rectangle has
    half-height 8 pi tau / ell, which bounds the loop height of an
    area-collapsing figure-eight.  The comparison itself is
    `barrier_comparison`; GrimReaper raises InvalidCurve when tau <= 0.
    """
    tau0 = estimate_extinction_time(traj).t_max - float(traj.times[0])
    reaper = GrimReaper(c0=8.0 * np.pi / x_extent(traj.states[0].curve), tau0=tau0)
    return barrier_comparison(traj, reaper)

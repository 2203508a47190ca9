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

Orientation convention: leftward = decreasing x.  `barrier_comparison`
shifts x so the first snapshot's rightmost points sit at x = 0, matching the
rectangle (-inf, 0] x [-C0 tau0, C0 tau0].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import x_extent
from .errors import Extinct, InvalidCurve, NotInsideReaper
from .flow import Trajectory, estimate_extinction_time

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


def reaper_value(reaper: GrimReaper, y: np.ndarray, t: float) -> np.ndarray:
    """G(y, t) on an array of y in the domain |y| < pi*C0*tau0 (not tested)."""
    scale = 2.0 * reaper.c0 * reaper.tau0
    return (
        -scale * _LOG_COS_HALF
        + scale * np.log(np.cos(y / scale))
        - (t + 0.5 * reaper.tau0) / scale
    )


def push_distance(c0: float, tau0: float) -> float:
    """Leftward barrier displacement over [-tau0/2, 0]:

        1/(4 C0) + 2 C0 tau0 log cos(1/2),

    positive iff tau0 < 1 / (8 C0^2 |log cos(1/2)|); the signed value is
    returned either way and interpretation is left to the caller.
    """
    return 1.0 / (4.0 * c0) + 2.0 * c0 * tau0 * _LOG_COS_HALF


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
    """Compare a trajectory with a grim reaper over tau0/2 of flow time.

    The window is the snapshots with t <= t_start + tau0/2, each read at
    (x + shift, y), the shift putting the first one's rightmost x at 0, on
    the reaper clock t - t_start - tau0/2.  A snapshot's margin is
    min_i (G(y_i, t) - x_i), or -inf when some |y_i| >= pi C0 tau0; the first
    must be positive (else NotInsideReaper), later ones are findings.  The
    first snapshot is contained in (-inf, 0] x [-C0 tau0, C0 tau0] when every
    |y_i| <= C0 tau0, since its shifted x <= 0 by construction.
    """
    t_offset = float(traj.times[0]) + 0.5 * reaper.tau0
    keep = int(np.searchsorted(traj.times, t_offset + 1e-12, side="right"))
    window = traj.states[:keep]
    shift = -float(window[0].curve.x.max())
    margins = np.full(keep, -np.inf)
    for i, state in enumerate(window):
        x, y = state.curve.x + shift, state.curve.y
        if np.abs(y).max() < reaper.half_width:
            margins[i] = np.min(reaper_value(reaper, y, state.t - t_offset) - x)
    if not margins[0] > 0.0:
        raise NotInsideReaper(f"initial margin {margins[0]:.6g} is not strictly positive")
    return BarrierComparison(
        reaper=reaper,
        margins=margins,
        push=push_distance(reaper.c0, reaper.tau0),
        final_rightmost_x=float(x.max()),
        initial_contained=bool(np.abs(window[0].curve.y).max() <= reaper.c0 * reaper.tau0),
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

"""Explicit time stepping for normal-velocity curve evolutions.

The workhorse is curve shortening flow, where each point moves with velocity

    (x_t, y_t) = kappa * (-y_u, x_u) / sqrt(x_u^2 + y_u^2),

i.e. speed kappa along the left normal.  The same stepper drives the other
length gradient flows, which differ only in their signed normal speed
`speed_fn(curve)` and in the stiffness law for the stable step size; speed
and stepper read one cached stencil jet per stage, `curve.jet`.

Scheme: explicit 2nd-order Runge-Kutta (Heun) with dt = cfl * h_min^2 for
second-order flows (h_min = shortest segment), dt = cfl4 * h_min^4 for the
fourth-order diffusion flow.  Every remesh_every accepted steps the curve is
resampled to uniform arclength; tangential redistribution does not change
the image of the flow but keeps nodes from clustering at high curvature.

Stopping is two-fold: the resolution criterion max|kappa| * h_min >
stop_kappa_h is checked before every step (curvature blows up at the
singular time and the mesh cannot follow it); the area criterion
|A| < stop_area_frac * |A|_0 and the loss of every self-intersection are
checked at the remesh cadence by the run loop, which owns the initial-area
reference.  No attempt is made to continue past a topology change.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from . import crossings as cx
from . import curves as cv
from .diagnostics import DiagnosticsRecord, compute_record, loop_split
from .errors import (
    AreaNotDecreasing,
    DegenerateTangent,
    InvalidCurve,
    MaxStepsExceeded,
    SingularityReached,
    StepRejected,
    ValidationError,
)

# Signed normal speed of a curve; derivatives come from `curve.jet`.
SpeedFn = Callable[[cv.PlaneCurve], np.ndarray]

TWO_PI = 2.0 * np.pi
_MAX_HALVINGS = 8


# Normal speed of curve shortening flow: the curvature itself.
csf_speed = cv.curvature


def csf_velocity(curve: cv.PlaneCurve) -> np.ndarray:
    """Pointwise planar velocity kappa * N of curve shortening flow."""
    return _stage_velocity(curve, csf_speed)


def _stage_velocity(curve: cv.PlaneCurve, speed_fn: SpeedFn) -> np.ndarray:
    """Planar velocity speed_fn(curve) * N from the curve's jet."""
    d1, _, g2, _ = curve.jet
    factor = speed_fn(curve) / np.sqrt(g2)
    velocity = np.empty_like(d1)
    np.multiply(-d1[:, 1], factor, out=velocity[:, 0])
    np.multiply(d1[:, 0], factor, out=velocity[:, 1])
    return velocity


def checked_numbers(values, defaults: dict, what: str) -> dict:
    """`values` if it is a dict of known parameters, each a number of its
    default's type (an int may stand for a float); else ValidationError."""
    if not isinstance(values, dict):
        raise ValidationError(f"{what}s must be a JSON object, not {values!r}")
    for name, value in values.items():
        if name not in defaults:
            raise ValidationError(f"unknown {what} {name!r}")
        kind = type(defaults[name])
        if isinstance(value, bool) or not isinstance(value, (kind, int)):
            raise ValidationError(f"{what} {name!r} must be {kind.__name__}, not {value!r}")
    return values


@dataclass(frozen=True)
class FlowConfig:
    """Stability and stopping knobs shared by all flow kinds."""

    cfl: float = 0.1
    cfl4: float = 0.05
    remesh_every: int = 10
    stop_area_frac: float = 0.01
    stop_kappa_h: float = 0.5
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not 0.0 < self.cfl <= 0.5:
            raise InvalidCurve(f"cfl {self.cfl} outside (0, 0.5]")
        if not 0.0 < self.cfl4 <= 0.5:
            raise InvalidCurve(f"cfl4 {self.cfl4} outside (0, 0.5]")
        if not 0.0 < self.stop_area_frac < 1.0:
            raise InvalidCurve(f"stop_area_frac {self.stop_area_frac} outside (0, 1)")
        if not 0.0 < self.stop_kappa_h < np.inf:
            raise InvalidCurve(f"stop_kappa_h {self.stop_kappa_h} is not finite and positive")
        if self.remesh_every < 1 or self.max_steps < 1:
            raise InvalidCurve("remesh_every and max_steps must be >= 1")

    @classmethod
    def from_dict(cls, values) -> FlowConfig:
        """The config of a JSON object of field values (see `checked_numbers`)."""
        defaults = {f.name: f.default for f in fields(cls)}
        return cls(**checked_numbers(values, defaults, "FlowConfig field"))


@dataclass(frozen=True)
class FlowState:
    curve: cv.PlaneCurve
    t: float
    step: int


@dataclass
class Trajectory:
    """Snapshots of one run plus per-snapshot diagnostics and the stop reason."""

    states: list[FlowState]
    records: list[DiagnosticsRecord]
    stop_reason: str
    config: FlowConfig
    flow_kind: str = "csf"
    unreached_outputs: list[float] = field(default_factory=list)

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])


def step(
    state: FlowState,
    config: FlowConfig,
    *,
    speed_fn: SpeedFn = csf_speed,
    dt_law: str = "h2",
    dt_cap: float | None = None,
) -> FlowState:
    """One accepted explicit step (plus cadence remeshing).

    Raises SingularityReached when the curvature-resolution criterion fires
    at the current state, StepRejected if the update keeps violating
    immersion after 8 step halvings.
    """
    curve = state.curve
    h_min = float(cv.segment_lengths(curve).min())
    k1 = _stage_velocity(curve, speed_fn)
    kappa_h = np.abs(curve.jet.kappa).max() * h_min
    if kappa_h > config.stop_kappa_h:
        raise SingularityReached(
            "curvature", f"max|kappa|*h = {kappa_h:.3g} at t = {state.t:.6g}"
        )

    if dt_law == "h2":
        dt = config.cfl * h_min**2
    elif dt_law == "h4":
        dt = config.cfl4 * h_min**4
    else:
        raise ValueError(f"unknown dt law {dt_law!r}")
    if dt_cap is not None and dt_cap > 0:
        dt = min(dt, dt_cap)

    for _ in range(_MAX_HALVINGS + 1):
        try:
            mid = cv.PlaneCurve(curve.points + dt * k1)
            k2 = _stage_velocity(mid, speed_fn)
            new_curve = cv.PlaneCurve(curve.points + 0.5 * dt * (k1 + k2))
            break
        except (InvalidCurve, DegenerateTangent):
            dt *= 0.5
    else:
        raise StepRejected(
            f"immersion kept failing after {_MAX_HALVINGS} halvings at t = {state.t:.6g}"
        )

    new_step = state.step + 1
    if new_step % config.remesh_every == 0:
        new_curve = cv.resample_arclength(new_curve)
    return FlowState(curve=new_curve, t=state.t + dt, step=new_step)


def run(
    initial: cv.PlaneCurve,
    config: FlowConfig,
    output_times=(),
    *,
    speed_fn: SpeedFn = csf_speed,
    dt_law: str = "h2",
    flow_kind: str = "csf",
    t_end: float | None = None,
) -> Trajectory:
    """Evolve until a stopping criterion fires, snapshotting at output_times.

    Snapshots are taken at the first accepted step with t >= requested time
    (the step size is capped so the step lands on the requested time; no
    interpolation between steps).  The initial and final states are always
    included.  Raises MaxStepsExceeded if the step budget runs out first.
    """
    state = FlowState(curve=initial, t=0.0, step=0)
    first_record = compute_record(initial, 0.0)
    area0 = first_record.area_total
    embedded = first_record.crossing_count == 0

    states = [state]
    records = [first_record]
    pending = sorted({float(t) for t in output_times if t > 0})
    stop_reason = None
    # Area/topology checks are cheap; keep a floor on their cadence even when
    # remeshing is effectively disabled.  compute_record's scan and area rule
    # keep the stop like with like; an embedded run skips the scan.
    check_every = max(1, min(config.remesh_every, 64))

    while stop_reason is None:
        if state.step % check_every == 0:
            found = [] if embedded else cx.find_self_intersections(state.curve)
            if loop_split(state.curve, found)[2] < config.stop_area_frac * area0:
                stop_reason = "area"
                break
            if not embedded and not found:
                stop_reason = "topology"
                break
        if t_end is not None and state.t >= t_end - 1e-15:
            stop_reason = "time"
            break
        if state.step >= config.max_steps:
            raise MaxStepsExceeded(f"no stopping criterion after {state.step} steps")

        caps = []
        if pending:
            caps.append(pending[0] - state.t)
        if t_end is not None:
            caps.append(t_end - state.t)
        dt_cap = min(caps) if caps else None

        try:
            state = step(state, config, speed_fn=speed_fn, dt_law=dt_law, dt_cap=dt_cap)
        except SingularityReached as exc:
            stop_reason = exc.reason
            break

        if pending and state.t >= pending[0] - 1e-12:
            while pending and state.t >= pending[0] - 1e-12:
                pending.pop(0)
            states.append(state)
            records.append(compute_record(state.curve, state.t))

    if states[-1].step != state.step:
        states.append(state)
        records.append(compute_record(state.curve, state.t))
    return Trajectory(
        states=states,
        records=records,
        stop_reason=stop_reason,
        config=config,
        flow_kind=flow_kind,
        unreached_outputs=pending,
    )


@dataclass(frozen=True)
class ExtinctionEstimate:
    """The area-decay bracket of the extinction time."""

    bracket_low: float
    bracket_high: float

    @property
    def t_max(self) -> float:
        """The bracket's midpoint, the extinction time the monitors use."""
        return 0.5 * (self.bracket_low + self.bracket_high)


def estimate_extinction_time(traj: Trajectory) -> ExtinctionEstimate:
    """Bracket the time at which |A| -> 0 from the last snapshot.

    A figure-eight loses total area at a rate between 2*pi and 4*pi, so
    extinction lies within [t + |A|/(4*pi), t + |A|/(2*pi)] of the last
    snapshot; an embedded curve loses exactly 2*pi, pinning extinction at
    t + |A|/(2*pi).  Raises AreaNotDecreasing unless there are >= 2
    snapshots and |A| decreases strictly between them.
    """
    areas = np.array([r.area_total for r in traj.records])
    if len(areas) < 2 or (np.diff(areas) >= 0).any():
        raise AreaNotDecreasing("need >= 2 snapshots with strictly decreasing |A|")
    t_last = float(traj.states[-1].t)
    a_last = float(areas[-1])
    upper = t_last + a_last / TWO_PI
    if traj.records[-1].crossing_count >= 1:
        lower = t_last + a_last / (2.0 * TWO_PI)
    else:
        lower = upper
    return ExtinctionEstimate(bracket_low=lower, bracket_high=upper)

"""Time stepping for normal-velocity curve evolutions.

The workhorse is curve shortening flow, where each point moves with velocity

    (x_t, y_t) = kappa * (-y_u, x_u) / sqrt(x_u^2 + y_u^2),

i.e. speed kappa along the left normal.  The same stepper drives the other
length gradient flows.  A flow kind is one `Flow` value: its name, its signed
normal speed `speed(curve)` and its order, which picks the step law; speed
and stepper read one cached stencil jet per stage, `curve.jet`.

Scheme: linearly implicit Euler extrapolation (LIMEX/SEULEX; Deuflhard, SIAM
Rev. 27, 1985).  A stage of size h solves

    (I - h D2 / (g_min du^2)) delta = h v,    X <- X + delta,

with v the stage velocity, D2 the three-point periodic second difference and
g_min the least g = x_u^2 + y_u^2 at the start of the step, so the stiff part
of kappa N ~ X_ss is damped (Smereka, J. Sci. Comput. 19, 2003).  The
damping needs no exact Jacobian (a W-method; Hairer-Wanner, Solving ODEs II,
IV.7): frozen at g_min it is never weaker than each node's own 1/g, and its
constant coefficients make the solve one division in Fourier space by
1 + h s_k, s_k = sigma_k / (g_min du^2), sigma_k = 4 sin^2(pi k / N) the
symbol of -D2.  The fourth-order diffusion flow, -kappa_ss N ~ -X_ssss,
divides by 1 + h s_k^2 (1 + sigma_k / 12): the three-point d^2/ds^2 of kappa
times the five-point D2 behind kappa, 64/3 h^-4 at the top mode.  Rows of 1,
2 and 3 stages over the step combine in the Aitken-Neville tableau to
T[3,3], third order in time.  Step laws, both flat in N: dt = cfl *
min(|A| / 4 pi, 1 / max kappa^2) for a second-order flow, dt = CFL4 /
max kappa^4 for diffusion.  Every REMESH_EVERY steps the curve is resampled
to uniform arclength; tangential redistribution does not change the image of
the flow but keeps nodes from clustering at high curvature.

Every stop is decided by the run loop, which owns the initial-area
reference: before every step it tests the area criterion |A| <
stop_area_frac * |A|_0, the loss of every self-intersection, the end time
and the resolution criterion max|kappa| * h_min > STOP_KAPPA_H (curvature
blows up at the singular time and the mesh cannot follow it).
No attempt is made to continue past a topology change.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache
from numbers import Real
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import crossings as cx
from . import curves as cv
from .curves import FOUR_PI, TWO_PI
from .diagnostics import DiagnosticsRecord, compute_record, loop_split
from .errors import (
    AreaNotDecreasing,
    DegenerateTangent,
    InvalidCurve,
    MaxStepsExceeded,
    SolveFailed,
    StepRejected,
    ValidationError,
)

# Signed normal speed of a curve; derivatives come from `curve.jet`.
SpeedFn = Callable[[cv.PlaneCurve], np.ndarray]

# Diffusion's step law dt = CFL4 / max kappa^4.  Its stage damps the top
# mode's -64/3 h^-4, so the law need not follow h; at 5e-4 an N=256 run's
# time error lies below its space error (the benchmark's 2:1 ellipse).
CFL4 = 5e-4
# Stages per row of the extrapolation tableau (the harmonic sequence).
_ROWS = (1, 2, 3)
# Steps between remeshes.
REMESH_EVERY = 10
# The largest max|kappa| * h_min the mesh resolves; past it the run stops.
STOP_KAPPA_H = 0.5


@lru_cache(maxsize=8)
def _minus_d2_symbol(n: int) -> np.ndarray:
    """sigma_k = 4 sin^2(pi k / N), the symbol of the three-point -D2 at the
    rfft frequencies k = 0 ... N/2; the stabilised stage damps it."""
    sigma = 4.0 * np.sin(np.pi / n * np.arange(n // 2 + 1)) ** 2
    sigma.setflags(write=False)
    return sigma


class Flow(NamedTuple):
    """A flow kind: its name, its signed normal speed, and its order, which
    picks the step law dt = CFL4 / max kappa^4 and the squared stage symbol
    (fourth order) or cfl * min(|A| / 4 pi, 1 / max kappa^2)."""

    kind: str
    speed: SpeedFn
    fourth_order: bool = False


# Curve shortening flow: the normal speed is the curvature itself.
CSF = Flow("csf", cv.curvature)


def csf_velocity(curve: cv.PlaneCurve) -> np.ndarray:
    """Pointwise planar velocity kappa * N of curve shortening flow."""
    return _stage_velocity(curve, CSF.speed)


def _stage_velocity(curve: cv.PlaneCurve, speed: SpeedFn) -> np.ndarray:
    """Planar velocity speed(curve) * N from the curve's jet."""
    d1, _, g2, _ = curve.jet
    factor = speed(curve) / np.sqrt(g2)
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


def checked_times(times, what: str) -> list[float]:
    """The sorted distinct `times`, each a finite positive number; else ValidationError."""
    for t in times:
        if isinstance(t, bool) or not isinstance(t, Real) or not 0.0 < t < np.inf:
            raise ValidationError(f"{what} must be finite and positive, not {t!r}")
    return sorted({float(t) for t in times})


@dataclass(frozen=True)
class FlowConfig:
    """What runs set: cfl, the fraction of min(|A| / 4 pi, 1 / max kappa^2)
    a second-order step takes (diffusion's is the constant CFL4 of
    1 / max kappa^4), the area fraction that stops a run, and max_steps, a
    resource budget rather than a numerical choice: the only stop of a run
    with no other end (curve diffusion conserves area).  At the default cfl the time error of an
    N=256 run lies below its space error (the circle's radius, the h1 flow's
    area and length, the lemniscate's extinction time); the largest cfl
    trades that margin for fewer steps."""

    cfl: float = 0.005
    stop_area_frac: float = 0.01
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not 0.0 < self.cfl <= 0.375:
            raise ValidationError(f"cfl {self.cfl} outside (0, 0.375]")
        if not 0.0 < self.stop_area_frac < 1.0:
            raise ValidationError(f"stop_area_frac {self.stop_area_frac} outside (0, 1)")
        if self.max_steps < 1:
            raise ValidationError("max_steps must be >= 1")

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
    """Snapshots of one run plus per-snapshot diagnostics and the stop reason;
    `states` is a list, or a loaded run's lazily parsed sequence (`runio.load_run`)."""

    states: Sequence[FlowState]
    records: list[DiagnosticsRecord]
    stop_reason: str
    config: FlowConfig
    flow_kind: str = "csf"
    unreached_outputs: list[float] = field(default_factory=list)

    @property
    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.records])


def step(
    state: FlowState,
    config: FlowConfig,
    *,
    flow: Flow = CSF,
    dt_cap: float = np.inf,
    area: float | None = None,
) -> FlowState:
    """One linearly implicit Euler extrapolation step of `flow` (see the
    module docstring) with dt = min(its step law, dt_cap), remeshed when its
    step number is a multiple of REMESH_EVERY; it decides no stop, `run`
    does.  `area` is the curve's |A| by compute_record's rule, which the
    second-order step law reads; a step computes it when not given.

    Raises StepRejected, with the stage's fault as its cause, if a stage is not
    an immersed curve or its speed fails; there is no retry at a smaller dt.
    """
    curve = state.curve
    jet = curve.jet
    # The stabilised stage's symbol of -D2 / (g_min du^2); a fourth-order
    # stage damps its square times the five-point D2's 1 + sigma / 12.
    n = curve.n
    sigma = _minus_d2_symbol(n)
    symbol = sigma / (jet.g2.min() * curve.du**2)
    kappa2 = float(np.max(jet.kappa**2))
    if flow.fourth_order:
        symbol = symbol**2 * (1.0 + sigma / 12.0)
        dt = CFL4 / kappa2**2
    else:
        if area is None:
            area = loop_split(curve, cx.find_self_intersections(curve))[2]
        dt = config.cfl * min(area / FOUR_PI, 1.0 / kappa2)
    dt = min(dt, dt_cap)
    try:
        # Row j's displacement after _ROWS[j] stages of h = dt / _ROWS[j], in
        # Fourier space: a stage adds h v_k / (1 + h s_k), and only a stage
        # curve and the final combination go back to points.  Every row's
        # first stage starts from the step's velocity.
        v0 = np.fft.rfft(_stage_velocity(curve, flow.speed), axis=0)
        table = []
        for stages in _ROWS:
            h = dt / stages
            gain = (h / (1.0 + h * symbol))[:, None]
            delta = gain * v0
            for _ in range(1, stages):
                stage = cv.PlaneCurve(curve.points + np.fft.irfft(delta, n=n, axis=0))
                delta += gain * np.fft.rfft(_stage_velocity(stage, flow.speed), axis=0)
            table.append(delta)
        # T[3,3] of the Aitken-Neville tableau on the rows 1, 2, 3: weights 1/2, -4, 9/2.
        combined = 0.5 * table[0] - 4.0 * table[1] + 4.5 * table[2]
        new_curve = cv.PlaneCurve(curve.points + np.fft.irfft(combined, n=n, axis=0))
    except (InvalidCurve, DegenerateTangent, SolveFailed) as exc:
        raise StepRejected(f"stage failed at dt = {dt:.6g}, t = {state.t:.6g}") from exc

    new_step = state.step + 1
    if new_step % REMESH_EVERY == 0:
        new_curve = cv.resample_arclength(new_curve)
    return FlowState(curve=new_curve, t=state.t + dt, step=new_step)


def run(
    initial: cv.PlaneCurve,
    config: FlowConfig,
    output_times=(),
    *,
    flow: Flow = CSF,
    t_end: float = np.inf,
) -> Trajectory:
    """Evolve `flow` until a stopping criterion fires, snapshotting at output_times.

    Before each step the loop tests, in order: area and topology, t >=
    t_end, the step budget, and max|kappa| * h_min > STOP_KAPPA_H; the first
    that fires names the stop_reason ("area", "topology", "time" or
    "curvature"); t_end defaults to +inf, no end time.
    Snapshots are taken at the first accepted step with t >= requested time
    (the step size is capped so the step lands on the requested time; no
    interpolation between steps).  The initial and final states are always
    included.  Raises ValidationError for a bad output time,
    MaxStepsExceeded if the step budget runs out first.
    """
    pending = checked_times(output_times, "output time")
    state = FlowState(curve=initial, t=0.0, step=0)
    first_record = compute_record(initial, 0.0)
    area0 = first_record.area_total
    embedded = first_record.crossing_count == 0

    states = [state]
    records = [first_record]
    # compute_record's scan and area rule keep the stop like with like: a
    # state just recorded reads its record, and an embedded run skips the
    # scan.  The area also feeds the step law.
    while True:
        if embedded or states[-1] is not state:
            found = [] if embedded else cx.find_self_intersections(state.curve)
            crossings, area = len(found), loop_split(state.curve, found)[2]
        else:
            crossings, area = records[-1].crossing_count, records[-1].area_total
        if area < config.stop_area_frac * area0:
            stop_reason = "area"
            break
        if not embedded and not crossings:
            stop_reason = "topology"
            break
        if state.t >= t_end - 1e-15:
            stop_reason = "time"
            break
        if state.step >= config.max_steps:
            raise MaxStepsExceeded(f"no stopping criterion after {state.step} steps")
        curve = state.curve
        if np.abs(curve.jet.kappa).max() * cv.segment_lengths(curve).min() > STOP_KAPPA_H:
            stop_reason = "curvature"
            break

        dt_cap = min(pending[0] if pending else np.inf, t_end) - state.t
        state = step(state, config, flow=flow, dt_cap=dt_cap, area=area)
        if pending and state.t >= pending[0] - 1e-12:
            pending = [t for t in pending if state.t < t - 1e-12]
            states.append(state)
            records.append(compute_record(state.curve, state.t))

    if states[-1].step != state.step:
        states.append(state)
        records.append(compute_record(state.curve, state.t))
    return Trajectory(states=states, records=records, stop_reason=stop_reason, config=config,
                      flow_kind=flow.kind, unreached_outputs=pending)


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
        lower = t_last + a_last / FOUR_PI
    else:
        lower = upper
    return ExtinctionEstimate(bracket_low=lower, bracket_high=upper)

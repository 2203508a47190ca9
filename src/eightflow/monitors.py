"""Monitors that turn qualitative collapse statements into numeric reports.

Each monitor folds over an immutable trajectory and emits a Report: a list
of named checks {name, value, bound, pass}, serializable as JSON and as
aligned text.  Quantities tied to the remaining time use

    tau = t_max - t,

with t_max taken as the midpoint of the extinction bracket (the bracket
low edge already lies beyond the last snapshot, so every tau is positive).
Asymptotic statements (limsup bounds as tau -> 0) are reported over the
resolved range only, never asserted as limits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import crossings as cx
from . import curves as cv
from .errors import ExtinctionUnresolved, OscBelowPi, ValidationError
from .flow import Trajectory, estimate_extinction_time

TWO_PI = 2.0 * np.pi
FOUR_PI = 4.0 * np.pi

# Constants of the dyadic collapse recursion ell(tau/2) <= eta * ell(tau).
C1 = 1.0 / (32.0 * np.pi)
C2_LITERAL = 16.0 * np.pi * float(np.log(np.cos(0.5)))   # negative as written
C2_PENALTY = -C2_LITERAL                                  # positive convention
ALPHA0 = -float(np.log1p(-C1)) / float(np.log(2.0))

# Prefactor pi / (4 sqrt(3) ln 2) of the isoperimetric alpha threshold.
THRESHOLD_PREFACTOR = float(np.pi / (4.0 * np.sqrt(3.0) * np.log(2.0)))

COLLAPSE_CAVEAT = (
    "the dyadic decay claim is asymptotic (tau -> 0); only the sup over "
    "the resolved tau range is certified here"
)


@dataclass(frozen=True)
class CheckRecord:
    name: str
    value: object
    bound: object
    passed: bool | None   # None marks informational entries
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "bound": self.bound,
            "pass": self.passed,
            "note": self.note,
        }


@dataclass
class Report:
    title: str
    checks: list[CheckRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.passed is not None)

    def add(self, name, value, bound, passed, note="") -> None:
        self.checks.append(CheckRecord(name, value, bound, passed, note))

    def to_json(self) -> str:
        return json.dumps(
            {"title": self.title, "pass": self.passed,
             "checks": [c.to_dict() for c in self.checks]},
            indent=2, default=_json_default,
        )

    def to_text(self) -> str:
        rows = [("check", "value", "bound", "pass")]
        for c in self.checks:
            rows.append((
                c.name, _fmt(c.value), _fmt(c.bound),
                {True: "PASS", False: "FAIL", None: "info"}[c.passed]
                + (f"  {c.note}" if c.note else ""),
            ))
        widths = [max(len(r[k]) for r in rows) for k in range(3)]
        lines = [f"== {self.title} =="]
        for r in rows:
            lines.append(
                f"{r[0]:<{widths[0]}}  {r[1]:>{widths[1]}}  {r[2]:>{widths[2]}}  {r[3]}"
            )
        return "\n".join(lines)


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _json_default(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    return str(v)


def _snapshot_taus(traj: Trajectory) -> np.ndarray:
    """tau = t_max - t per snapshot; raises if the bracket is too wide."""
    est = estimate_extinction_time(traj)
    width = est.bracket_high - est.bracket_low
    remaining = est.t_max - traj.times[0]
    if width > 0.2 * remaining:
        raise ExtinctionUnresolved(
            f"extinction bracket width {width:.3g} exceeds 20% of remaining {remaining:.3g}"
        )
    return est.t_max - traj.times


def crossing_angles(traj: Trajectory) -> np.ndarray:
    """Interior crossing angle per snapshot (NaN where crossings != 1)."""
    out = np.full(len(traj.states), np.nan)
    for k, (state, rec) in enumerate(zip(traj.states, traj.records)):
        if rec.crossing_count == 1:
            out[k] = cx.crossing_interior_angle(state.curve, rec.crossing_segments)
    return out


def balanced_invariant_report(traj: Trajectory) -> Report:
    """Conservation and monotonicity checks for balanced figure-eight runs.

    Per snapshot: |signed area| < 1e-4 L^2, |total turning| < 1e-3, exactly
    one crossing, inflection count nonincreasing.  Per adjacent pair: area
    decay rate inside [-4pi - 0.5, -2pi + 0.5] and within 5% of
    -2pi - 2*(interior crossing angle).
    """
    rep = Report("balanced figure-eight invariants")
    recs = traj.records
    times = traj.times

    rel_signed = max(abs(r.area_signed) / r.length**2 for r in recs)
    rep.add("signed_area_over_L2", rel_signed, 1e-4, rel_signed < 1e-4)

    turning = max(abs(r.total_curvature) for r in recs)
    rep.add("total_turning", turning, 1e-3, turning < 1e-3)

    counts = sorted({r.crossing_count for r in recs})
    ok = counts == [1]
    rep.add("crossing_count", counts, [1], ok, "" if ok else "NotAFigureEight")

    inflections = [r.inflections for r in recs]
    noninc = all(b <= a for a, b in zip(inflections, inflections[1:]))
    rep.add("inflections_nonincreasing",
            f"{inflections[0]}..{inflections[-1]} max {max(inflections)}",
            "nonincreasing", noninc)

    if len(recs) >= 2:
        areas = np.array([r.area_total for r in recs])
        rates = np.diff(areas) / np.diff(times)
        lo, hi = -FOUR_PI - 0.5, -TWO_PI + 0.5
        in_window = bool(np.all((rates >= lo) & (rates <= hi)))
        rep.add("area_rate_window", [float(rates.min()), float(rates.max())],
                [lo, hi], in_window)

        if ok:
            angles = crossing_angles(traj)
            mid = 0.5 * (angles[:-1] + angles[1:])
            predicted = -TWO_PI - 2.0 * mid
            mismatch = float(np.nanmax(np.abs(rates - predicted) / np.abs(predicted)))
            rep.add("area_rate_vs_crossing_angle", mismatch, 0.05, mismatch < 0.05)
        else:
            rep.add("area_rate_vs_crossing_angle", None, 0.05, None,
                    "skipped: no unique crossing")
    return rep


def collapse_report(traj: Trajectory, alphas=(0.005, 0.01, 0.0144)) -> Report:
    """Collapse-rate monitor over a trajectory that ran near extinction.

    For each alpha it reports the supremum of ell(tau)/tau^alpha over the
    resolved snapshots, ell being the x-extent; the dyadic limsup statement
    it probes is asymptotic, so only this resolved-range sup is certified
    (COLLAPSE_CAVEAT).  Contraction rows compare the measured per-halving
    factor ell(tau/2)/ell(tau) over each resolved tau -> tau/2 pair with the
    bound 1 - c1 + c2 tau/ell^2 under both sign readings of c2.
    """
    taus = _snapshot_taus(traj)
    ells = np.array([r.x_extent for r in traj.records])
    monotone = bool(np.all(np.diff(ells) <= 1e-8 * ells[0]))

    rep = Report("collapse rate")
    rep.add("ell_monotone_nonincreasing", monotone, True, monotone)
    rep.add("alpha0", ALPHA0, None, None, "dyadic decay exponent bound")
    for alpha in dict.fromkeys(map(float, alphas)):
        sup = float(np.max(ells / taus**alpha))
        rep.add(f"sup ell/tau^{alpha:g}", sup, None, bool(np.isfinite(sup)),
                "resolved range only")

    penalty, literal = [], []
    for j in range(len(taus)):
        ratio = taus / taus[j]
        k = int(np.argmin(np.abs(ratio - 0.5)))
        if not 0.4 <= ratio[k] <= 0.6 or k == j:
            continue
        observed, x = ells[k] / ells[j], taus[j] / ells[j] ** 2
        penalty.append(observed <= 1.0 - C1 + C2_PENALTY * x)
        literal.append(observed <= 1.0 - C1 + C2_LITERAL * x)
    if penalty:
        ok_pen, ok_lit = all(penalty), all(literal)
        rep.add("contraction_bound_c2_penalty", ok_pen, True, None,
                "c2 = 16 pi |log cos(1/2)| added as penalty")
        rep.add("contraction_bound_c2_literal", ok_lit, True, None,
                "c2 = 16 pi log cos(1/2) kept negative")
        matching = ("penalty" if ok_pen else "") + ("+literal" if ok_lit else "")
        rep.add("contraction_convention_matching", matching or "neither", None, None)
    rep.add("asymptotic_caveat", COLLAPSE_CAVEAT, None, None)
    return rep


def min_theta_bound(length: float, tau: float) -> float:
    """Heat-kernel lower bound (sqrt(pi)/4) (L/sqrt(tau)) exp(-L^2/tau) for the
    rise of the minimum tangent angle over the next tau/2 of flow time."""
    if length <= 0 or tau <= 0:
        raise ValidationError("length and tau must be positive")
    return float(0.25 * np.sqrt(np.pi) * length / np.sqrt(tau) * np.exp(-length**2 / tau))


def isoperimetric_report(traj: Trajectory, m: float, alpha: float) -> Report:
    """Isoperimetric blow-up monitor: Q(tau) = L^2/|A| against M tau^-alpha.

    Also evaluates the admissible-alpha threshold for this run's tau0 and
    initial tangent oscillation, records q = L/sqrt(tau) per snapshot, and
    cross-checks the measured rise of min theta over each resolved tau ->
    tau/2 pair against the heat-kernel lower bound.
    """
    taus = _snapshot_taus(traj)
    recs = traj.records
    qs = np.array([r.isoperimetric_q for r in recs])

    rep = Report("isoperimetric blow-up")
    # The inscribed polygon's length deficit puts a circle's discrete Q a
    # hair under 4*pi; allow exactly that O(h^2) slack.
    n_min = min(s.curve.n for s in traj.states)
    floor = FOUR_PI * (1.0 - (TWO_PI / n_min) ** 2)
    rep.add("Q_at_least_4pi", float(qs.min()), floor, bool(qs.min() >= floor))
    if qs.max() < 1.01 * qs.min():
        rep.add("Q_blow_up", float(qs.max() / qs.min()), None, None,
                "no blow-up resolved; embedded curves are excluded by the "
                "hypotheses")

    target = m * taus ** (-alpha)
    hit = np.nonzero(qs >= target)[0]
    rep.add(
        f"exists tau: Q >= {m:g} tau^-{alpha:g}",
        float(taus[hit[0]]) if hit.size else None,
        "some resolved tau",
        bool(hit.size),
    )

    osc0 = recs[0].osc_theta
    if osc0 <= np.pi:
        raise OscBelowPi(
            f"osc theta at tau0 is {osc0:.6g} <= pi; threshold undefined"
        )
    tau0 = float(taus[0])
    threshold = THRESHOLD_PREFACTOR * np.exp(-FOUR_PI * m / tau0**alpha) / (osc0 - np.pi)
    rep.add("alpha_threshold", float(threshold), None, None,
            f"tau0={tau0:.6g}, osc theta(tau0)={osc0:.6g}")
    rep.add("alpha_below_threshold", alpha, float(threshold), bool(alpha < threshold))

    lengths = np.array([r.length for r in recs])
    q_vals = lengths / np.sqrt(taus)
    rep.add("q = L/sqrt(tau) range", [float(q_vals.min()), float(q_vals.max())],
            None, None, "recorded, not asserted")

    mins = np.array([r.theta_min for r in recs])
    worst = None
    pairs = 0
    ok = True
    for j in range(len(taus)):
        ratio = taus / taus[j]
        k = int(np.argmin(np.abs(ratio - 0.5)))
        if not 0.4 <= ratio[k] <= 0.6 or k == j:
            continue
        pairs += 1
        rise = mins[k] - mins[j]
        bound = min_theta_bound(lengths[j], taus[j])
        margin = rise - bound
        if worst is None or margin < worst:
            worst = margin
        ok = ok and (rise >= bound)
    rep.add("min_theta_rise_vs_bound", worst, 0.0,
            bool(ok) if pairs else None,
            f"{pairs} tau -> tau/2 pairs checked")
    return rep


def symmetry_collapse_check(traj: Trajectory) -> Report:
    """Collapse-to-point witnesses for symmetric figure-eight runs.

    Reports the final/initial diameter ratio, the drift of the crossing
    point (stationary for doubly symmetric data, monotone when one loop is
    convex), and the decay of the y-extent alongside the x-extent.
    """
    rep = Report("symmetric collapse")
    first = traj.states[0].curve
    last = traj.states[-1].curve
    d0 = cv.diameter(first)
    ratio = cv.diameter(last) / d0
    rep.add("final_diameter_ratio", float(ratio), None, None)

    xs = np.array([
        r.crossing_point[0] if r.crossing_count == 1 else np.nan for r in traj.records
    ])
    if np.any(np.isnan(xs)):
        rep.add("crossing_x_drift", None, None, None,
                "skipped: crossing not unique on some snapshot")
    else:
        displacement = float(np.abs(xs - xs[0]).max())
        rep.add("crossing_max_displacement", displacement, None, None)
        tol = 1e-9 * d0
        dec = bool(np.all(np.diff(xs) <= tol))
        inc = bool(np.all(np.diff(xs) >= -tol))
        direction = "stationary" if (dec and inc) else (
            "left" if dec else ("right" if inc else "non-monotone"))
        rep.add("crossing_x_monotone", direction, "monotone or stationary",
                dec or inc)

    ell = np.array([r.x_extent for r in traj.records])
    hgt = np.array([cv.y_extent(s.curve) for s in traj.states])
    rep.add("x_extent_decay", float(ell[-1] / ell[0]), None, None)
    rep.add("y_extent_decay", float(hgt[-1] / hgt[0]), None, None,
            "y-oscillation decays with the x-oscillation")
    return rep

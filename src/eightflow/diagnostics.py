"""Per-snapshot scalar observables recorded along a flow trajectory."""

from __future__ import annotations

from dataclasses import dataclass

from . import crossings as cx
from . import curves as cv


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Scalar observables of one snapshot.

    area_total is the sum of unsigned loop areas for a curve with exactly one
    self-intersection, |signed area| otherwise (see `loop_split`).
    crossing_point and crossing_segments (the intersecting segment pair, as in
    `crossings.Crossing`) describe the first crossing found and are None when
    the curve has none.  isoperimetric_q is L^2 / area_total.  theta_min, the
    minimum of the unwrapped tangent angle (not a CSV column), is comparable
    across snapshots while node 0 stays materially anchored, as in the flows.
    """

    t: float
    length: float
    area_signed: float
    area_total: float
    loop_a1: float
    loop_a2: float
    total_curvature: float
    osc_theta: float
    theta_min: float
    inflections: int
    crossing_count: int
    crossing_point: tuple[float, float] | None
    crossing_segments: tuple[int, int] | None
    x_extent: float
    isoperimetric_q: float

    CSV_COLUMNS = (
        "t,L,A_signed,A_total,total_curvature,osc_theta,"
        "inflections,crossings,ell,Q"
    )

    def csv_row(self) -> str:
        vals = (
            self.t, self.length, self.area_signed, self.area_total,
            self.total_curvature, self.osc_theta,
        )
        head = ",".join(f"{v:.17g}" for v in vals)
        tail = f"{self.x_extent:.17g},{self.isoperimetric_q:.17g}"
        return f"{head},{self.inflections},{self.crossing_count},{tail}"


def loop_split(
    curve: cv.PlaneCurve, found: list[cx.Crossing]
) -> tuple[float, float, float]:
    """(A1, A2, area_total) of a curve whose crossings are `found`.

    At exactly one crossing these are the two unsigned loop areas and their
    sum.  Multi-crossing decompositions are out of scope, so otherwise the
    loop areas are NaN and area_total falls back to |signed area|, which
    keeps the total well-defined.
    """
    if len(found) == 1:
        a1, a2 = cx.loop_areas(curve, found[0])
        return a1, a2, a1 + a2
    return float("nan"), float("nan"), abs(cv.signed_area(curve))


def compute_record(curve: cv.PlaneCurve, t: float) -> DiagnosticsRecord:
    length = cv.curve_length(curve)
    found = cx.find_self_intersections(curve)
    a1, a2, area_total = loop_split(curve, found)
    q = length**2 / area_total if area_total > 0 else float("inf")
    theta = cv.tangent_angle(curve)
    lowest = float(theta.min())
    return DiagnosticsRecord(
        t=t,
        length=length,
        area_signed=cv.signed_area(curve),
        area_total=area_total,
        loop_a1=a1,
        loop_a2=a2,
        total_curvature=cv.total_curvature(curve),
        osc_theta=float(theta.max() - lowest),
        theta_min=lowest,
        inflections=cv.inflection_count(curve),
        crossing_count=len(found),
        crossing_point=tuple(map(float, found[0].point)) if found else None,
        crossing_segments=found[0].segments if found else None,
        x_extent=cv.x_extent(curve),
        isoperimetric_q=q,
    )

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
    the curve has none; crossing_angle is `crossings.crossing_interior_angle`
    there if it is the only crossing, else NaN.  isoperimetric_q is
    L^2 / area_total.  theta_min, the minimum of the unwrapped tangent angle,
    is comparable across snapshots while node 0 stays materially anchored, as
    in the flows.  CSV_FIELDS pairs each diagnostics.csv column with the
    field it holds.
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
    crossing_angle: float
    x_extent: float
    y_extent: float
    isoperimetric_q: float

    CSV_FIELDS = (
        ("t", "t"), ("L", "length"), ("A_signed", "area_signed"), ("A_total", "area_total"),
        ("total_curvature", "total_curvature"), ("osc_theta", "osc_theta"),
        ("inflections", "inflections"), ("crossings", "crossing_count"),
        ("ell", "x_extent"), ("Q", "isoperimetric_q"),
    )
    CSV_COLUMNS = ",".join(column for column, _ in CSV_FIELDS)

    def csv_row(self) -> str:
        # %.17g writes the two int fields as plain integers.
        return ",".join(["%.17g" % getattr(self, field) for _, field in self.CSV_FIELDS])


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
        a1, a2 = map(abs, cx.loop_signed_areas(curve, found[0]))
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
        crossing_angle=(cx.crossing_interior_angle(curve, found[0].segments)
                        if len(found) == 1 else float("nan")),
        x_extent=cv.x_extent(curve),
        y_extent=cv.y_extent(curve),
        isoperimetric_q=q,
    )

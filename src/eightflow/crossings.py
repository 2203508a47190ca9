"""Self-intersections of closed polylines and loop decomposition.

Crossings are exact segment-segment intersections of the discrete polyline;
the continuous curve's crossing point is recovered to O(h^2), which is
sufficient for every monitor built on top.  Near-coincident hits from
adjacent segment pairs (a crossing landing on or next to a shared vertex)
are merged into one crossing: a segment pair and a point.

The full scan finds its candidate pairs with a sort-and-sweep broad phase
(Bentley & Ottmann, IEEE Trans. Comput. C-28, 1979): the segments' padded
x-intervals are sorted once, and each segment's run of overlapping
successors is read off with a binary search.  That costs O(N log N + K),
where K is the number of pairs whose x-intervals overlap, instead of the
N(N-3)/2 pairs of an all-pairs list.  On the lemniscate about 1.5N
non-adjacent pairs survive the sweep (380 of 32,384 at N=256).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import PlaneCurve, curve_length, cyclic_next, shoelace_area
from .errors import TangentialCrossing

# Parameter slack for the in-segment test; intersections this close to a
# segment end still count, and the cluster merge removes duplicates.
_PARAM_SLACK = 1e-9


@dataclass(frozen=True)
class Crossing:
    """One transversal self-intersection.

    segments: indices (i, j) of the two polyline segments that intersect,
        i < j; segment k runs from sample k to sample k+1 mod N.
    point: planar coordinates of the intersection.

    The two loops are the vertices i+1, ..., j and j+1, ..., i (mod N).
    """

    segments: tuple[int, int]
    point: np.ndarray


def _candidate_hits(curve: PlaneCurve, ii: np.ndarray, jj: np.ndarray):
    """Intersections among the given segment pairs: (i, j, t, v, point) arrays.

    Raises TangentialCrossing on a genuine collinear overlap.
    """
    pts = curve.points
    starts = pts
    ends = cyclic_next(pts)
    dirs = ends - starts

    # Bounding-box prefilter.
    lo = np.minimum(starts, ends)
    hi = np.maximum(starts, ends)
    pad = 1e-12 * curve_length(curve)
    overlap = (
        (lo[ii, 0] <= hi[jj, 0] + pad) & (lo[jj, 0] <= hi[ii, 0] + pad)
        & (lo[ii, 1] <= hi[jj, 1] + pad) & (lo[jj, 1] <= hi[ii, 1] + pad)
    )
    ii, jj = ii[overlap], jj[overlap]
    if ii.size == 0:
        return ii, jj, np.empty(0), np.empty(0), np.empty((0, 2))

    r = dirs[ii]
    s = dirs[jj]
    qp = starts[jj] - starts[ii]
    denom = r[:, 0] * s[:, 1] - r[:, 1] * s[:, 0]
    cross_qp_s = qp[:, 0] * s[:, 1] - qp[:, 1] * s[:, 0]
    cross_qp_r = qp[:, 0] * r[:, 1] - qp[:, 1] * r[:, 0]

    scale = np.linalg.norm(r, axis=1) * np.linalg.norm(s, axis=1)
    parallel = np.abs(denom) <= 1e-14 * scale
    collinear = parallel & (np.abs(cross_qp_s) <= 1e-14 * scale)
    if collinear.any():
        for a, b in zip(ii[collinear], jj[collinear]):
            if _collinear_overlap(starts[a], ends[a], starts[b], ends[b]):
                raise TangentialCrossing(f"segments {a} and {b} overlap collinearly")

    valid = ~parallel
    t = np.where(valid, cross_qp_s / np.where(valid, denom, 1.0), -1.0)
    v = np.where(valid, cross_qp_r / np.where(valid, denom, 1.0), -1.0)
    hit = valid & (t >= -_PARAM_SLACK) & (t <= 1.0 + _PARAM_SLACK) \
        & (v >= -_PARAM_SLACK) & (v <= 1.0 + _PARAM_SLACK)
    points = starts[ii[hit]] + t[hit, None] * r[hit]
    return ii[hit], jj[hit], t[hit], v[hit], points


def _merge_hits(curve: PlaneCurve, ii, jj, t, v, points) -> list[Crossing]:
    """Collapse near-coincident hits into one Crossing each."""
    if len(ii) == 0:
        return []
    # Interiority score: hits nearest their segment midpoints represent a
    # merged cluster best.
    score = np.abs(t - 0.5) + np.abs(v - 0.5)
    order = np.argsort(score, kind="stable")
    merge_tol = 1e-9 * max(curve_length(curve), 1e-300)

    crossings: list[Crossing] = []
    kept_points: list[np.ndarray] = []
    for k in order:
        p = points[k]
        if any(np.hypot(*(p - q)) <= merge_tol for q in kept_points):
            continue
        kept_points.append(p)
        crossings.append(Crossing(segments=(int(ii[k]), int(jj[k])), point=p.copy()))
    crossings.sort(key=lambda c: c.segments)
    return crossings


def _x_overlap_pairs(curve: PlaneCurve) -> tuple[np.ndarray, np.ndarray]:
    """Non-adjacent segment pairs (i, j), i < j, whose padded x-intervals overlap.

    The intervals [min x, max x + pad] use the pad of the bounding-box
    prefilter, so exactly the pairs that pass its x test are returned, sorted
    by (i, j) as an all-pairs list would order them.
    """
    n = curve.n
    x = curve.points[:, 0]
    x_next = cyclic_next(x)
    lo = np.minimum(x, x_next)
    hi = np.maximum(x, x_next) + 1e-12 * curve_length(curve)
    order = np.argsort(lo, kind="stable")
    starts = lo[order]
    # The segment at sorted position p overlaps exactly the later positions
    # p+1 .. stop[p]-1: each of those starts at or after its own start.
    stop = np.searchsorted(starts, hi[order], side="right")
    first = np.arange(1, n + 1)
    counts = stop - first
    offsets = np.cumsum(counts) - counts
    partner = np.arange(counts.sum()) + np.repeat(first - offsets, counts)
    a = np.repeat(order, counts)
    b = order[partner]
    ii = np.minimum(a, b)
    jj = np.maximum(a, b)
    gap = jj - ii
    # Drop adjacent pairs and the wrap-around pair (0, N-1).
    keep = (gap >= 2) & (gap != n - 1)
    keys = np.sort(ii[keep] * n + jj[keep])
    return keys // n, keys % n


def find_self_intersections(curve: PlaneCurve) -> list[Crossing]:
    """All transversal intersections of non-adjacent segments, each once.

    Candidate pairs come from a sort-and-sweep over the segments' x-intervals
    (see the module docstring): O(N log N + K) for K x-overlapping pairs.
    The survivors reach the exact intersection test in (i, j) order, so the
    result does not depend on how the candidates were found.

    Raises TangentialCrossing when two segments overlap collinearly; such a
    configuration is flagged rather than resolved.
    """
    hits = _candidate_hits(curve, *_x_overlap_pairs(curve))
    return _merge_hits(curve, *hits)


def find_crossing_near(curve: PlaneCurve, seg_pair: tuple[int, int]) -> Crossing | None:
    """The crossing whose segment pair lies nearest `seg_pair`, or None on an
    embedded curve.  A full scan, unused by the run; kept for the benchmark,
    which looks it up by name."""
    prev = np.array(seg_pair)
    return min(find_self_intersections(curve), default=None,
               key=lambda c: np.abs(np.array(c.segments) - prev).sum())


def _collinear_overlap(p1, p2, q1, q2) -> bool:
    d = p2 - p1
    axis = int(np.argmax(np.abs(d)))
    a1, a2 = sorted((p1[axis], p2[axis]))
    b1, b2 = sorted((q1[axis], q2[axis]))
    return max(a1, b1) < min(a2, b2)


def loop_areas(curve: PlaneCurve, crossing: Crossing) -> tuple[float, float]:
    """Unsigned shoelace areas (A1, A2) of the two loops at the crossing.

    Each loop polygon is the crossing point followed by its loop's vertices.
    A1 + A2 is the total enclosed area; for a figure-eight the signed area is
    their difference, up to orientation.
    """
    a1, a2 = loop_signed_areas(curve, crossing)
    return abs(a1), abs(a2)


def loop_signed_areas(curve: PlaneCurve, crossing: Crossing) -> tuple[float, float]:
    """Signed shoelace areas of the two loops (orientation preserved)."""
    i, j = crossing.segments
    pts = curve.points
    poly1 = np.vstack([crossing.point, pts[i + 1:j + 1]])
    poly2 = np.vstack([crossing.point, pts[j + 1:], pts[:i + 1]])
    return shoelace_area(poly1), shoelace_area(poly2)


def crossing_interior_angle(curve: PlaneCurve, segments: tuple[int, int]) -> float:
    """Interior angle of the loop wedge at the self-intersection, in (0, pi).

    `segments` is the intersecting segment pair (i, j) of the crossing, as in
    `Crossing.segments`.  The angle is measured between the ray leaving the
    crossing into one loop and the reversed ray along which that loop returns.
    Two estimates are averaged: one from the intersecting segments themselves,
    one from chords twice as wide, which cancels the leading O(h) bias.
    """
    i, j = segments
    pts = curve.points
    n = curve.n

    def wedge(di, dj) -> float:
        di = di / np.linalg.norm(di)
        dj = dj / np.linalg.norm(dj)
        return float(np.arccos(np.clip(np.dot(di, -dj), -1.0, 1.0)))

    d_i = pts[(i + 1) % n] - pts[i]
    d_j = pts[(j + 1) % n] - pts[j]
    wide_i = pts[(i + 2) % n] - pts[(i - 1) % n]
    wide_j = pts[(j + 2) % n] - pts[(j - 1) % n]
    return 0.5 * (wedge(d_i, d_j) + wedge(wide_i, wide_j))

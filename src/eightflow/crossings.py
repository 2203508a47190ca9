"""Self-intersections of closed polylines and loop decomposition.

Crossings are exact segment-segment intersections of the discrete polyline;
the continuous curve's crossing point is recovered to O(h^2), which is
sufficient for every monitor built on top.  Near-coincident hits from
adjacent segment pairs (a crossing landing on or next to a shared vertex)
are merged into one crossing: a segment pair and a point.

The full scan builds one segment table, each segment's end and padded
bounding box, and reads it twice.  A sort-and-sweep (Bentley & Ottmann,
IEEE Trans. Comput. C-28, 1979) sorts the boxes' x-intervals once and reads
each segment's run of overlapping successors off with a binary search:
O(N log N + K) for the K pairs whose x-intervals overlap, not the N(N-3)/2
of all pairs (on the lemniscate about 1.5N, 380 of 32,384 at N=256).  The
exact test drops the pairs whose boxes miss in y and intersects the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import PlaneCurve, curve_length, cyclic_next, segment_lengths, shoelace_area
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


def _segment_boxes(curve: PlaneCurve) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scan's segment table (ends, lo, hi), (N, 2) arrays: segment k runs
    from sample k to ends[k] inside the box [lo[k], hi[k]], whose hi is padded
    by 2 * _PARAM_SLACK * the longest segment for hits at a segment end."""
    pts = curve.points
    ends = cyclic_next(pts)
    pad = 2 * _PARAM_SLACK * segment_lengths(curve).max()
    return ends, np.minimum(pts, ends), np.maximum(pts, ends) + pad


def _candidate_hits(curve: PlaneCurve, ii: np.ndarray, jj: np.ndarray, boxes):
    """(i, j, t, v, point) arrays of the intersections, in pair order, among the
    pairs (ii, jj) whose `_segment_boxes` overlap in y.  Raises
    TangentialCrossing on a genuine collinear overlap."""
    starts = curve.points
    ends, lo, hi = boxes
    overlap = (lo[ii, 1] <= hi[jj, 1]) & (lo[jj, 1] <= hi[ii, 1])
    ii, jj = ii[overlap], jj[overlap]
    if ii.size == 0:
        return ii, jj, np.empty(0), np.empty(0), np.empty((0, 2))

    dirs = ends - starts
    r, s = dirs[ii], dirs[jj]
    qp = starts[jj] - starts[ii]
    denom = r[:, 0] * s[:, 1] - r[:, 1] * s[:, 0]
    cross_qp_s = qp[:, 0] * s[:, 1] - qp[:, 1] * s[:, 0]
    cross_qp_r = qp[:, 0] * r[:, 1] - qp[:, 1] * r[:, 0]

    scale = np.linalg.norm(r, axis=1) * np.linalg.norm(s, axis=1)
    parallel = np.abs(denom) <= 1e-14 * scale
    collinear = parallel & (np.abs(cross_qp_s) <= 1e-14 * scale)
    for a, b in zip(ii[collinear], jj[collinear]):
        if _collinear_overlap(starts[a], ends[a], starts[b], ends[b]):
            raise TangentialCrossing(f"segments {a} and {b} overlap collinearly")

    # A parallel pair that passed the overlap check is no hit; only the rest divide.
    ii, jj, r, denom, cross_qp_s, cross_qp_r = (
        arr[~parallel] for arr in (ii, jj, r, denom, cross_qp_s, cross_qp_r))
    t = cross_qp_s / denom
    v = cross_qp_r / denom
    hit = (t >= -_PARAM_SLACK) & (t <= 1.0 + _PARAM_SLACK) \
        & (v >= -_PARAM_SLACK) & (v <= 1.0 + _PARAM_SLACK)
    points = starts[ii[hit]] + t[hit, None] * r[hit]
    return ii[hit], jj[hit], t[hit], v[hit], points


def _merge_hits(curve: PlaneCurve, ii, jj, t, v, points) -> list[Crossing]:
    """Collapse near-coincident hits into one Crossing each."""
    # Interiority score: hits nearest their segment midpoints represent a
    # merged cluster best.
    score = np.abs(t - 0.5) + np.abs(v - 0.5)
    merge_tol = 1e-9 * max(curve_length(curve), 1e-300)

    crossings: list[Crossing] = []
    for k in np.argsort(score, kind="stable"):
        p = points[k]
        if any(np.hypot(*(p - c.point)) <= merge_tol for c in crossings):
            continue
        crossings.append(Crossing(segments=(int(ii[k]), int(jj[k])), point=p.copy()))
    crossings.sort(key=lambda c: c.segments)
    return crossings


def _x_overlap_pairs(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Non-adjacent segment pairs (i, j), i < j, whose x-intervals [lo, hi]
    overlap, sorted by (i, j) as an all-pairs list would order them."""
    n = len(lo)
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

    One segment table (`_segment_boxes`) serves both phases: the sweep reads
    its x columns (see the module docstring), the exact test its y columns and
    ends.  The pairs reach the exact test in (i, j) order, so the result does
    not depend on how the candidates were found.

    Raises TangentialCrossing when two segments overlap collinearly; such a
    configuration is flagged rather than resolved.
    """
    boxes = _, lo, hi = _segment_boxes(curve)
    hits = _candidate_hits(curve, *_x_overlap_pairs(lo[:, 0], hi[:, 0]), boxes)
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


def loop_signed_areas(curve: PlaneCurve, crossing: Crossing) -> tuple[float, float]:
    """Signed shoelace areas (A1, A2) of the two loops at the crossing.

    Each loop polygon is the crossing point followed by its loop's vertices,
    in the curve's orientation.  |A1| + |A2| is the total enclosed area; for
    a figure-eight A1 + A2 is the signed area.
    """
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

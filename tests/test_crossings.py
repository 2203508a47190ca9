"""Self-intersection detection against a brute-force oracle, loop areas."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eightflow.crossings import (
    _candidate_hits,
    _merge_hits,
    crossing_interior_angle,
    find_crossing_near,
    find_self_intersections,
    loop_areas,
    loop_signed_areas,
)
from eightflow.curves import PlaneCurve, shoelace_area, signed_area
from eightflow.errors import TangentialCrossing
from eightflow.shapes import make_bernoulli_lemniscate, make_circle


def brute_force_crossing_points(curve, slack=1e-9, merge_tol=None):
    """Independent O(N^2) oracle: solve each segment pair as a 2x2 system."""
    pts = curve.points
    n = len(pts)
    if merge_tol is None:
        seg = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        merge_tol = 1e-9 * seg.sum()
    hits = []
    for i in range(n):
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue
            a0, a1 = pts[i], pts[(i + 1) % n]
            b0, b1 = pts[j], pts[(j + 1) % n]
            mat = np.column_stack([a1 - a0, b0 - b1])
            if abs(np.linalg.det(mat)) < 1e-14:
                continue
            t, v = np.linalg.solve(mat, b0 - a0)
            if -slack <= t <= 1 + slack and -slack <= v <= 1 + slack:
                hits.append(a0 + t * (a1 - a0))
    merged = []
    for p in hits:
        if not any(np.hypot(*(p - q)) <= merge_tol for q in merged):
            merged.append(p)
    return merged


def all_pairs_scan(curve):
    """Reference scan over every non-adjacent pair i < j, in (i, j) order."""
    n = curve.n
    ii, jj = np.triu_indices(n, k=2)
    keep = ~((ii == 0) & (jj == n - 1))
    return _merge_hits(curve, *_candidate_hits(curve, ii[keep], jj[keep]))


def scan_outcome(scan, curve):
    """(segments, point) of every crossing, or the TangentialCrossing message."""
    try:
        return [(c.segments, c.point) for c in scan(curve)]
    except TangentialCrossing as exc:
        return str(exc)


def densify(corners, per_edge):
    """Closed polyline through `corners` with `per_edge` samples on each edge."""
    pts = []
    for k in range(len(corners)):
        a = np.asarray(corners[k], dtype=float)
        b = np.asarray(corners[(k + 1) % len(corners)], dtype=float)
        for s in np.linspace(0, 1, per_edge, endpoint=False):
            pts.append(a + s * (b - a))
    return np.array(pts)


@st.composite
def random_polylines(draw, coordinate):
    """Closed polylines of 16, 17, 40 or 64 random vertices; most cross many times."""
    n = draw(st.sampled_from([16, 17, 40, 64]))
    pts = draw(st.lists(st.tuples(coordinate, coordinate), min_size=n, max_size=n))
    try:
        return PlaneCurve(np.array(pts, dtype=float))
    except Exception:
        assume(False)


# Grid coordinates tie x-starts and make vertical and axis-aligned segments,
# including collinear overlaps, which both scans must flag identically.
grid = st.integers(-4, 4).map(float)
unit = st.floats(-1.0, 1.0, allow_nan=False)


class TestSweep:
    @settings(max_examples=60, deadline=None)
    @given(random_polylines(unit))
    def test_matches_all_pairs_random(self, curve):
        self.assert_same(curve)

    @settings(max_examples=60, deadline=None)
    @given(random_polylines(grid))
    def test_matches_all_pairs_tied_x(self, curve):
        self.assert_same(curve)

    @settings(max_examples=30, deadline=None)
    @given(random_polylines(st.one_of(grid, unit)))
    def test_matches_all_pairs_mixed(self, curve):
        self.assert_same(curve)

    @staticmethod
    def assert_same(curve):
        swept = scan_outcome(find_self_intersections, curve)
        reference = scan_outcome(all_pairs_scan, curve)
        if isinstance(reference, str):
            assert swept == reference
            return
        assert [seg for seg, _ in swept] == [seg for seg, _ in reference]
        for (_, p), (_, q) in zip(swept, reference):
            assert np.array_equal(p, q)

    def test_matches_all_pairs_lissajous(self):
        u = 2 * np.pi * np.arange(256) / 256
        for k in (3, 5, 7):
            curve = PlaneCurve(np.column_stack([np.sin(u), np.sin(k * u + 0.3)]))
            assert len(find_self_intersections(curve)) > 1
            TestSweep.assert_same(curve)


class TestFinder:
    def test_circle_embedded(self):
        assert find_self_intersections(make_circle(1.0, 256)) == []

    def test_lemniscate_single_origin_crossing(self):
        for n in (64, 128, 256, 500):
            found = find_self_intersections(make_bernoulli_lemniscate(1.0, n))
            assert len(found) == 1
            assert np.hypot(*found[0].point) < 1e-6

    def test_crossing_near_is_the_nearest_scanned_pair(self):
        assert find_crossing_near(make_circle(1.0, 256), (0, 128)) is None
        u = 2 * np.pi * np.arange(256) / 256
        curve = PlaneCurve(np.column_stack([np.sin(u), np.sin(3 * u + 0.3)]))
        for c in find_self_intersections(curve):
            assert find_crossing_near(curve, c.segments).segments == c.segments

    def test_crossing_point_lies_on_both_segments(self):
        from eightflow.curves import curve_length

        def dist_to_segment(p, a, b):
            d = b - a
            t = np.clip(np.dot(p - a, d) / np.dot(d, d), 0.0, 1.0)
            return float(np.linalg.norm(p - (a + t * d)))

        curve = make_bernoulli_lemniscate(1.0, 256)
        crossing = find_self_intersections(curve)[0]
        tol = 1e-10 * curve_length(curve)
        for seg in crossing.segments:
            a = curve.points[seg]
            b = curve.points[(seg + 1) % curve.n]
            assert dist_to_segment(crossing.point, a, b) < tol

    def test_hand_built_bowtie_matches_oracle(self):
        # Bowtie quadrilateral, densified to satisfy the sample-count floor.
        corners = np.array([[0.0, 0.0], [2.0, 1.0], [2.0, 0.0], [0.0, 1.0]])
        pts = []
        for k in range(4):
            a, b = corners[k], corners[(k + 1) % 4]
            for s in np.linspace(0, 1, 5, endpoint=False):
                pts.append(a + s * (b - a))
        curve = PlaneCurve(np.array(pts))
        found = find_self_intersections(curve)
        oracle = brute_force_crossing_points(curve)
        assert len(found) == len(oracle) == 1
        assert np.hypot(*(found[0].point - oracle[0])) < 1e-12

    def test_oracle_agreement_random_curves(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(64, 129))
            u = 2 * np.pi * np.arange(n) / n
            x = np.cos(u) + rng.uniform(-0.6, 0.6) * np.cos(2 * u) \
                + rng.uniform(-0.3, 0.3) * np.sin(3 * u)
            y = np.sin(u) + rng.uniform(-0.6, 0.6) * np.sin(2 * u) \
                + rng.uniform(-0.3, 0.3) * np.cos(3 * u)
            try:
                curve = PlaneCurve(np.column_stack([x, y]))
            except Exception:
                continue
            found = find_self_intersections(curve)
            oracle = brute_force_crossing_points(curve)
            assert len(found) == len(oracle)
            for c in found:
                assert min(np.hypot(*(c.point - q)) for q in oracle) < 1e-9

    # Out, pause on a spike, and retrace along the same line segment.
    RETRACE = [(0.0, 0.0), (4.0, 0.0), (4.0, 1.0), (3.0, 1.0), (3.0, 0.0),
               (1.0, 0.0), (1.0, 2.0), (0.5, 2.5), (0.0, 2.0)]

    def test_tangential_overlap_flagged(self):
        curve = PlaneCurve(densify(self.RETRACE, 3))
        with pytest.raises(TangentialCrossing):
            find_self_intersections(curve)

    def test_vertical_overlap_flagged(self):
        # The same retrace turned vertical: the overlapping segments have
        # zero-width x-intervals that start at the same x.
        curve = PlaneCurve(densify([(y, x) for x, y in self.RETRACE], 3))
        with pytest.raises(TangentialCrossing):
            find_self_intersections(curve)


class TestLoops:
    def test_lemniscate_loops_equal(self):
        curve = make_bernoulli_lemniscate(1.0, 256)
        crossing = find_self_intersections(curve)[0]
        a1, a2 = loop_areas(curve, crossing)
        assert abs(a1 - a2) < 1e-8

    def test_total_area_matches_scale(self):
        # Enclosed area of the width-2a lemniscate is a^2 (high-N quadrature
        # oracle: 0.9999984876678 at a=1, N=4096).
        curve = make_bernoulli_lemniscate(1.0, 4096)
        crossing = find_self_intersections(curve)[0]
        a1, a2 = loop_areas(curve, crossing)
        assert abs((a1 + a2) - 1.0) < 2e-6
        curve = make_bernoulli_lemniscate(2.0, 4096)
        crossing = find_self_intersections(curve)[0]
        a1, a2 = loop_areas(curve, crossing)
        assert abs((a1 + a2) - 4.0) < 8e-6

    @pytest.mark.parametrize("end", ["first", "last"])
    def test_loops_across_the_index_wrap(self, end):
        # Roll the samples until a crossing segment is 0 or N-1, so the
        # second loop's vertex run wraps past the last index.  At N=250 the
        # crossing is inside both segments, not on a sample, so dropping or
        # repeating a loop vertex changes the areas.
        base = make_bernoulli_lemniscate(1.0, 250)
        i, j = find_self_intersections(base)[0].segments
        shift = -i if end == "first" else base.n - 1 - j
        curve = PlaneCurve(np.roll(base.points, shift, axis=0))
        (crossing,) = find_self_intersections(curve)
        i, j = crossing.segments
        assert (i == 0) if end == "first" else (j == curve.n - 1)
        n = curve.n
        arcs = [np.arange(i + 1, j + 1), (j + 1 + np.arange((i - j) % n)) % n]
        assert sorted(np.concatenate(arcs)) == list(range(n))
        expected = [shoelace_area(np.vstack([crossing.point, curve.points[arc]]))
                    for arc in arcs]
        assert list(loop_signed_areas(curve, crossing)) == expected
        assert loop_areas(curve, crossing) == tuple(abs(a) for a in expected)

    def test_signed_loop_areas_sum_to_signed_area(self):
        curve = make_bernoulli_lemniscate(1.0, 256)
        crossing = find_self_intersections(curve)[0]
        s1, s2 = loop_signed_areas(curve, crossing)
        assert abs((s1 + s2) - signed_area(curve)) < 1e-8 * 5.25**2


class TestInteriorAngle:
    def test_lemniscate_right_angle(self):
        curve = make_bernoulli_lemniscate(1.0, 256)
        crossing = find_self_intersections(curve)[0]
        assert abs(crossing_interior_angle(curve, crossing.segments) - np.pi / 2) < 1e-2

    def test_gerono_eight_analytic_angle(self):
        # Gerono-style eight x = cos u, y = rho sin u cos u crosses itself at
        # the origin with branch tangents (-1, -rho) and (1, -rho); choosing
        # rho = tan(pi/6) makes the interior angle exactly pi/3.
        rho = np.tan(np.pi / 6)
        u = 2 * np.pi * np.arange(256) / 256
        curve = PlaneCurve(np.column_stack([np.cos(u), rho * np.sin(u) * np.cos(u)]))
        crossing = find_self_intersections(curve)[0]
        angle = crossing_interior_angle(curve, crossing.segments)
        assert abs(angle - np.pi / 3) < 1e-3

"""Generators: lemniscate and area-balanced asymmetric eights."""

import numpy as np
import pytest

from eightflow.crossings import find_self_intersections, loop_signed_areas
from eightflow.curves import (
    curvature,
    curve_length,
    inflection_count,
    signed_area,
    x_extent,
)
from eightflow.errors import InvalidCurve
from eightflow.shapes import (
    make_asymmetric_eight,
    make_bernoulli_lemniscate,
    make_circle,
    make_ellipse,
)


class TestLemniscate:
    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_balanced_figure_eight(self, n):
        curve = make_bernoulli_lemniscate(1.0, n)
        assert abs(signed_area(curve)) < 1e-10
        assert len(find_self_intersections(curve)) == 1
        assert inflection_count(curve) == 2

    def test_width(self):
        assert abs(x_extent(make_bernoulli_lemniscate(1.5, 256)) - 3.0) < 1e-12

    def test_mirror_symmetric_samples(self):
        curve = make_bernoulli_lemniscate(1.0, 128)
        flipped = curve.points.copy()
        flipped[:, 1] *= -1
        assert np.abs(curve.points - flipped[(-np.arange(128)) % 128]).max() < 1e-15

    def test_sample_count_floor(self):
        with pytest.raises(InvalidCurve):
            make_bernoulli_lemniscate(1.0, 32)

    def test_scale_must_be_positive(self):
        with pytest.raises(InvalidCurve, match="scale must be positive"):
            make_bernoulli_lemniscate(0.0)


class TestAsymmetricEight:
    def test_ratio_one_is_symmetric_base(self):
        curve = make_asymmetric_eight(1.0, 256)
        u = 2 * np.pi * np.arange(256) / 256
        base = np.column_stack([np.cos(u), 0.6 * np.sin(u) * np.cos(u)])
        assert np.abs(curve.points - base).max() < 1e-6

    @pytest.mark.parametrize("ratio", [0.5, 0.8, 1.5, 2.0])
    def test_balanced_single_crossing(self, ratio):
        curve = make_asymmetric_eight(ratio, 256)
        assert abs(signed_area(curve)) < 1e-6 * curve_length(curve) ** 2
        assert len(find_self_intersections(curve)) == 1

    def test_loop_widths_scale(self):
        curve = make_asymmetric_eight(1.5, 256)
        right_width = float(curve.x.max())
        left_width = float(-curve.x.min())
        assert left_width / right_width == pytest.approx(1.5, rel=0.05)

    def test_loops_area_matched(self):
        # The balance certificate is on the signed-area quadrature; the
        # polygonal loop areas agree to quadrature accuracy, O(h^2).
        for n, tol in ((256, 1e-4), (1024, 1e-5)):
            curve = make_asymmetric_eight(1.5, n)
            crossing = find_self_intersections(curve)[0]
            a1, a2 = map(abs, loop_signed_areas(curve, crossing))
            assert abs(a1 - a2) < tol

    def test_not_mirror_symmetric(self):
        curve = make_asymmetric_eight(1.5, 256)
        reflected_x = -curve.points[:, 0]
        assert np.abs(np.sort(reflected_x) - np.sort(curve.points[:, 0])).max() > 0.1

    def test_two_inflections_one_convex_loop(self):
        curve = make_asymmetric_eight(1.5, 256)
        assert inflection_count(curve) == 2
        crossing = find_self_intersections(curve)[0]
        kappa = curvature(curve)
        # Both curvature sign changes sit in one arc: the other loop is convex.
        i, j = crossing.segments
        changes = []
        for arc in (kappa[i + 1:j + 1], np.concatenate([kappa[j + 1:], kappa[:i + 1]])):
            signs = np.sign(arc)
            changes.append(int(np.count_nonzero(signs[1:] != signs[:-1])))
        assert sorted(changes) == [0, 2]
        # Crossing-passage curvature is nonzero (no double inflection there).
        assert abs(kappa[i]) > 0.05 and abs(kappa[j]) > 0.05

    def test_ratio_bounds(self):
        with pytest.raises(InvalidCurve):
            make_asymmetric_eight(3.0, 256)
        with pytest.raises(InvalidCurve):
            make_asymmetric_eight(0.4, 256)

    def test_sample_count_floor(self):
        with pytest.raises(InvalidCurve, match="at least 64 samples"):
            make_asymmetric_eight(1.5, 32)


class TestRoundShapes:
    def test_circle_area(self):
        assert abs(signed_area(make_circle(1.0, 256)) - np.pi) < 1e-4

    def test_ellipse_area(self):
        assert abs(signed_area(make_ellipse(2.0, 1.0, 256)) - 2 * np.pi) < 1e-4

    def test_invalid_parameters(self):
        with pytest.raises(InvalidCurve):
            make_circle(-1.0, 64)
        with pytest.raises(InvalidCurve):
            make_ellipse(1.0, 0.0, 64)

"""Curve geometry: derivatives, curvature, areas, angles, resampling, I/O."""

import numpy as np
import pytest

import oracles
from conftest import trapezoid_heights
from eightflow import curves as cv
from eightflow.contact import SpaceCurve
from eightflow.curves import PlaneCurve
from eightflow.errors import DegenerateTangent, InvalidCurve
from eightflow.shapes import make_bernoulli_lemniscate, make_circle, make_ellipse


def ellipse_curvature(a, b, u):
    # Independent closed form: kappa = a b / (a^2 sin^2 u + b^2 cos^2 u)^(3/2).
    return a * b / (a**2 * np.sin(u) ** 2 + b**2 * np.cos(u) ** 2) ** 1.5


class TestValidation:
    def test_constant_curve_rejected(self):
        with pytest.raises(InvalidCurve):
            PlaneCurve(np.zeros((32, 2)))

    def test_wrong_shape_rejected(self):
        with pytest.raises(InvalidCurve, match="expected an"):
            PlaneCurve(np.zeros((16, 3)))

    def test_scale_factor_must_be_positive(self):
        with pytest.raises(InvalidCurve, match="scale factor"):
            oracles.scale(make_circle(1.0, 32), 0)

    def test_too_few_samples_rejected(self):
        u = 2 * np.pi * np.arange(8) / 8
        with pytest.raises(InvalidCurve):
            PlaneCurve(np.column_stack([np.cos(u), np.sin(u)]))

    def test_nonfinite_rejected(self):
        pts = make_circle(1.0, 32).points.copy()
        pts[3, 0] = np.nan
        with pytest.raises(InvalidCurve):
            PlaneCurve(pts)

    def test_points_frozen(self):
        curve = make_circle(1.0, 32)
        with pytest.raises(ValueError):
            curve.points[0, 0] = 5.0

    def test_float64_samples_adopted_in_place(self):
        u = 2 * np.pi * np.arange(32) / 32
        pts = np.column_stack([np.cos(u), np.sin(u)])
        curve = PlaneCurve(pts)
        assert not curve.points.flags.writeable
        assert np.shares_memory(pts, curve.points)
        assert not pts.flags.writeable
        # Other input is converted to a new array; the caller's stays writable.
        pts32 = pts.astype(np.float32)
        curve = PlaneCurve(pts32)
        assert not curve.points.flags.writeable
        assert not np.shares_memory(pts32, curve.points)
        assert pts32.flags.writeable

    def test_degenerate_tangent_zigzag(self):
        # Alternating two points: valid segments, but the wide stencils cancel.
        pts = np.tile([[0.0, 0.0], [1.0, 1.0]], (16, 1))
        curve = PlaneCurve(pts)
        with pytest.raises(DegenerateTangent):
            cv.curvature(curve)


class TestDerivatives:
    def test_circle_first_derivative(self):
        curve = make_circle(1.0, 256)
        x_u, y_u, _, _ = cv.derivatives(curve)
        u = np.arange(curve.n) * curve.du
        assert np.abs(x_u + np.sin(u)).max() < 1e-3
        assert np.abs(y_u - np.cos(u)).max() < 1e-3

    def test_ellipse_second_derivative(self):
        curve = make_ellipse(2.0, 1.0, 256)
        _, _, x_uu, _ = cv.derivatives(curve)
        assert np.abs(x_uu + 2.0 * np.cos(np.arange(curve.n) * curve.du)).max() < 1e-3

    def test_periodic_same_length(self):
        curve = make_ellipse(2.0, 1.0, 128)
        for d in cv.derivatives(curve):
            assert d.shape == (128,)


def roll_stencil(values, du):
    # Reference 4th-order periodic differences built from np.roll shifts.
    p1 = np.roll(values, -1, axis=0)
    p2 = np.roll(values, -2, axis=0)
    m1 = np.roll(values, 1, axis=0)
    m2 = np.roll(values, 2, axis=0)
    d1 = (-p2 + 8.0 * p1 - 8.0 * m1 + m2) / (12.0 * du)
    d2 = (-p2 + 16.0 * p1 - 30.0 * values + 16.0 * m1 - m2) / (12.0 * du * du)
    return d1, d2


def wobbly_points(n, seed):
    rng = np.random.default_rng(seed)
    u = 2 * np.pi * np.arange(n) / n
    r = 1.0 + 0.2 * np.sin(3 * u) + 0.01 * rng.standard_normal(n)
    return np.column_stack([r * np.cos(u), 0.7 * r * np.sin(u)])


class TestStencil:
    @pytest.mark.parametrize("n", [16, 17, 256, 512])
    def test_point_array_matches_roll_reference(self, n):
        pts = wobbly_points(n, seed=n)
        du = 2 * np.pi / n
        d1, d2 = roll_stencil(pts, du)
        g2 = d1[:, 0] * d1[:, 0] + d1[:, 1] * d1[:, 1]
        kappa = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / g2 ** 1.5
        jet = cv.stencil(pts, du)
        for got, want in zip(jet, (d1, d2, g2, kappa)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [16, 17, 256, 512])
    def test_segment_lengths_match_roll_norm(self, n):
        pts = wobbly_points(n, seed=n + 1) * 10.0 ** (n % 7 - 3)
        old = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        assert np.array_equal(cv.segment_lengths(PlaneCurve(pts)), old)

    @pytest.mark.parametrize(
        "fn", [cv.curvature, cv.tangent_angle, cv.signed_area])
    def test_degenerate_tangent_below_floor(self, fn):
        # The parameter speed of a circle of radius r is r, so g2 = r^2
        # straddles the 1e-24 floor between these two radii.
        fn(make_circle(1e-11, 64))
        with pytest.raises(DegenerateTangent):
            fn(make_circle(1e-13, 64))
        with pytest.raises(DegenerateTangent):
            fn(PlaneCurve(np.tile([[0.0, 0.0], [1.0, 1.0]], (16, 1))))


class TestJet:
    @pytest.mark.parametrize("n", [16, 17, 256, 512])
    def test_cached_and_equal_to_stencil(self, n):
        curve = PlaneCurve(wobbly_points(n, seed=n))
        assert curve.jet is curve.jet
        for got, want in zip(curve.jet, cv.stencil(curve.points, curve.du)):
            assert np.array_equal(got, want)

    def test_read_only(self):
        curve = make_ellipse(2.0, 1.0, 64)
        assert not any(values.flags.writeable for values in curve.jet)
        with pytest.raises(ValueError):
            cv.curvature(curve)[0] = 0.0
        with pytest.raises(ValueError):
            cv.derivatives(curve)[2][0] = 0.0

    def test_degenerate_jet_not_kept(self):
        curve = make_circle(1e-13, 64)
        for _ in range(2):
            with pytest.raises(DegenerateTangent):
                curve.jet

    def test_compute_record_evaluates_one_stencil(self, monkeypatch):
        from eightflow.diagnostics import compute_record
        curve = make_bernoulli_lemniscate(1.0, 256)
        calls = []
        original = cv.stencil

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cv, "stencil", counting)
        compute_record(curve, 0.0)
        assert len(calls) == 1


class TestCurvature:
    def test_unit_circle(self):
        kappa = cv.curvature(make_circle(1.0, 256))
        assert np.abs(kappa - 1.0).max() < 1e-4

    def test_ellipse_against_closed_form(self):
        curve = make_ellipse(2.0, 1.0, 256)
        kappa = cv.curvature(curve)
        assert abs(kappa[0] - 2.0) < 1e-6
        u = np.arange(curve.n) * curve.du
        assert np.abs(kappa - ellipse_curvature(2.0, 1.0, u)).max() < 1e-4

    def test_lemniscate_two_sign_changes(self):
        kappa = cv.curvature(make_bernoulli_lemniscate(1.0, 256))
        signs = np.sign(kappa[np.abs(kappa) > 1e-9])
        assert np.count_nonzero(signs != np.roll(signs, 1)) == 2


class TestAreas:
    def test_circle_ccw(self):
        assert abs(cv.signed_area(make_circle(1.0, 256)) - np.pi) < 1e-4

    def test_circle_cw(self):
        assert abs(cv.signed_area(oracles.reverse(make_circle(1.0, 256))) + np.pi) < 1e-4

    def test_lemniscate_balanced(self):
        assert abs(cv.signed_area(make_bernoulli_lemniscate(1.0, 256))) < 1e-10

    def test_matches_shoelace_within_quadrature_error(self):
        # The periodic quadrature is spectrally accurate; the shoelace sum is
        # the inscribed polygon's area, O(h^2) below it.
        curve = make_ellipse(2.0, 1.0, 256)
        h2 = (2 * np.pi / 256) ** 2
        assert abs(cv.signed_area(curve) - cv.shoelace_area(curve.points)) < 2 * np.pi * h2
        fine = make_ellipse(2.0, 1.0, 1024)
        assert abs(cv.signed_area(fine) - cv.shoelace_area(fine.points)) < 2 * np.pi * (2 * np.pi / 1024) ** 2


class TestTotalCurvature:
    def test_circle(self):
        assert abs(cv.total_curvature(make_circle(1.0, 256)) - 2 * np.pi) < 1e-6

    def test_lemniscate(self):
        assert abs(cv.total_curvature(make_bernoulli_lemniscate(1.0, 256))) < 1e-6

    def test_two_opposite_loops_cancel(self):
        # Figure-eight built from a CCW loop then a CW loop: zero net turning.
        u = 2 * np.pi * np.arange(256) / 256
        x = np.where(u < np.pi, 1 - np.cos(2 * u), np.cos(2 * u) - 1)
        y = np.sin(2 * u) * 0.8
        curve = PlaneCurve(np.column_stack([x, y]))
        assert abs(cv.total_curvature(curve)) < 1e-6


class TestTangentAngle:
    def test_circle_spans_two_pi(self):
        theta = cv.tangent_angle(make_circle(1.0, 256))
        assert abs((theta[-1] - theta[0]) - 2 * np.pi) < 1e-12
        assert abs(np.ptp(theta) - 2 * np.pi) < 1e-12

    def test_lemniscate_periodic(self):
        theta = cv.tangent_angle(make_bernoulli_lemniscate(1.0, 256))
        assert abs(theta[-1] - theta[0]) < 1e-10

    def test_wrap_matches_total_curvature(self):
        curve = make_ellipse(2.0, 1.0, 256)
        theta = cv.tangent_angle(curve)
        assert abs((theta[-1] - theta[0]) - cv.total_curvature(curve)) < 1e-6

    def test_osc_reversal_invariant(self):
        curve = make_bernoulli_lemniscate(1.0, 128)
        assert abs(np.ptp(cv.tangent_angle(curve))
                   - np.ptp(cv.tangent_angle(oracles.reverse(curve)))) < 1e-10

    def test_thin_eight_osc_below_two_pi(self):
        from eightflow.shapes import make_asymmetric_eight
        assert np.ptp(cv.tangent_angle(make_asymmetric_eight(1.2, 256))) < 2 * np.pi

    @pytest.mark.parametrize("make", [lambda: make_bernoulli_lemniscate(1.0, 256),
                                      lambda: make_ellipse(2.0, 1.0, 64),
                                      lambda: PlaneCurve(wobbly_points(97, seed=3))],
                             ids=["lemniscate", "ellipse", "wobbly"])
    def test_record_angles_from_one_tangent_angle(self, make):
        from eightflow.diagnostics import compute_record
        rec = compute_record(make(), 0.0)
        assert rec.theta_min == cv.tangent_angle(make()).min()
        assert rec.osc_theta == np.ptp(cv.tangent_angle(make()))


class TestExtents:
    def test_circle(self):
        assert abs(cv.x_extent(make_circle(1.0, 256)) - 2.0) < 1e-12

    def test_lemniscate_scale(self):
        # max of a*cos(u)/(1+sin^2 u) is a, attained at u = 0.
        for a in (1.0, 2.5):
            curve = make_bernoulli_lemniscate(a, 256)
            assert abs(cv.x_extent(curve) - 2 * a) < 1e-12

    def test_translation_invariance(self):
        curve = make_ellipse(2.0, 1.0, 128)
        shifted = oracles.translate(curve, (3.7, -1.2))
        assert abs(cv.x_extent(curve) - cv.x_extent(shifted)) < 1e-12


class TestDiameter:
    # Blocks are 32 rows: 16, 17 and 31 fit in a partial first block, 32
    # and 64 fill whole blocks, and 33, 65 and 257 leave a one-row last block.
    @pytest.mark.parametrize("n", [16, 17, 31, 32, 33, 63, 64, 65, 257])
    def test_equals_all_pairs_maximum(self, n):
        pts = wobbly_points(n, seed=n)
        all_pairs = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1).max())
        assert cv.diameter(PlaneCurve(pts)) == all_pairs
        assert cv.diameter(PlaneCurve(pts)) == np.linalg.norm(pts[:, None] - pts, axis=-1).max()


class TestInflections:
    def test_circle_none(self):
        assert cv.inflection_count(make_circle(1.0, 256)) == 0

    def test_ellipse_none(self):
        assert cv.inflection_count(make_ellipse(2.0, 1.0, 256)) == 0

    def test_lemniscate_two(self):
        assert cv.inflection_count(make_bernoulli_lemniscate(1.0, 256)) == 2

    def test_matches_roll_reference_at_every_start(self):
        # Moving sample 0 around the curve puts a sign change on the wrap
        # pair at some starts; the sliced count must keep the wrap term.
        lemniscate = make_bernoulli_lemniscate(1.0, 64).points
        u = 2 * np.pi * np.arange(64) / 64
        wavy = np.column_stack([np.cos(u) + 0.3 * np.cos(3 * u),
                                np.sin(u) + 0.3 * np.sin(3 * u)])
        for base in (lemniscate, wavy, stadium_points()):
            for k in range(64):
                curve = PlaneCurve(np.roll(base, k, axis=0))
                kappa = cv.curvature(curve)
                signs = np.sign(kappa[np.abs(kappa) >= 1e-6 * np.abs(kappa).max()])
                expected = int(np.count_nonzero(signs != np.roll(signs, 1)))
                assert cv.inflection_count(curve) == expected > 0

    def test_flat_samples_are_transparent(self):
        # The stadium's straight runs have kappa = 0 exactly, between small
        # negative overshoots of the stencil at the arc joins: counting the
        # zeros as a sign would add two changes per run.
        curve = PlaneCurve(stadium_points())
        kappa = cv.curvature(curve)
        assert np.count_nonzero(kappa == 0) == 2 * 13
        signs = np.sign(kappa)
        assert int(np.count_nonzero(signs != np.roll(signs, 1))) == 8
        assert cv.inflection_count(curve) == 4


def stadium_points(n=64):
    """Unit semicircles joined by straight runs of length 2, n/4 samples per piece,
    counterclockwise from the bottom of the right arc."""
    t = np.arange(n // 4) / (n // 4)
    arc = np.column_stack([np.cos(np.pi * (t - 0.5)), np.sin(np.pi * (t - 0.5))])
    run = np.column_stack([1.0 - 2.0 * t, np.ones_like(t)])
    return np.vstack([arc + [1.0, 0.0], run, -arc - [1.0, 0.0], -run])


def scipy_resample(curve):
    """The remesh of `resample_arclength` over scipy's periodic CubicSpline."""
    from scipy.interpolate import CubicSpline

    s = np.concatenate([[0.0], np.cumsum(cv.segment_lengths(curve))])
    closed = np.vstack([curve.points, curve.points[:1]])
    spline = CubicSpline(s, closed, axis=0, bc_type="periodic")
    return PlaneCurve(spline(s[-1] * np.arange(curve.n) / curve.n))


class TestResample:
    @pytest.mark.parametrize("curve", [
        *[PlaneCurve(wobbly_points(n, seed=n)) for n in (16, 17, 256, 512)],
        make_bernoulli_lemniscate(1.0, 256),
        # Mirrored, so node 0 has y = -0.0: its sign bit must survive.
        PlaneCurve(make_bernoulli_lemniscate(1.0, 256).points * [1.0, -1.0]),
    ], ids=["wobbly16", "wobbly17", "wobbly256", "wobbly512", "lemniscate", "mirrored"])
    def test_agrees_with_scipy_periodic_spline(self, curve):
        res = cv.resample_arclength(curve)
        ref = scipy_resample(curve)
        assert res.n == curve.n
        assert np.abs(res.points - ref.points).max() <= 1e-13 * cv.curve_length(curve)
        assert res.points[0].tobytes() == curve.points[0].tobytes()

    def test_circle_uniform(self):
        seg = cv.segment_lengths(cv.resample_arclength(make_circle(1.0, 256)))
        assert (seg.max() - seg.min()) / seg.mean() < 1e-6

    def test_lemniscate_spread_and_length(self):
        curve = make_bernoulli_lemniscate(1.0, 512)
        res = cv.resample_arclength(curve)
        seg = cv.segment_lengths(res)
        assert (seg.max() - seg.min()) / seg.mean() < 0.01
        rel = abs(cv.curve_length(res) - cv.curve_length(curve)) / cv.curve_length(curve)
        assert rel < 1e-4

    def test_idempotent_on_uniform(self):
        curve = make_circle(1.0, 256)  # uniform by construction
        res = cv.resample_arclength(curve)
        drift = np.abs(res.points - curve.points).max()
        assert drift < 1e-8 * cv.curve_length(curve)

    def test_area_preserved(self):
        curve = make_bernoulli_lemniscate(1.0, 256)
        assert abs(cv.signed_area(cv.resample_arclength(curve))) < 1e-8


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        curve = make_bernoulli_lemniscate(1.3, 128)
        path = tmp_path / "curve.csv"
        cv.curve_to_csv(curve, path)
        back = cv.curve_from_csv(path)
        np.testing.assert_array_equal(back.points, curve.points)
        again = tmp_path / "again.csv"
        cv.curve_to_csv(back, again)
        assert again.read_bytes() == path.read_bytes()

    def test_csv_text_pinned(self, tmp_path):
        # Header and first two rows, %.17g per value, for a plane curve and for the
        # space curve of its trapezoid-transported heights from z = 0.5.
        circle = make_circle(1.0, 16)
        row1 = "0.39269908169872414,0.92387953251128674,0.38268343236508978"
        for curve, expected in (
                (circle, f"u,x,y\n0,1,0\n{row1}\n"),
                (SpaceCurve(circle, trapezoid_heights(circle, 0.5)),
                 f"u,x,y,z\n0,1,0,0.5\n{row1},0.47126765511877572\n")):
            path = tmp_path / "curve.csv"
            cv.curve_to_csv(curve, path)
            assert "".join(path.read_text().splitlines(keepends=True)[:3]) == expected

    def test_csv_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(InvalidCurve):
            cv.curve_from_csv(path)

    @pytest.mark.parametrize("blank", [""])
    def test_csv_blank_lines_skipped(self, tmp_path, blank):
        # Like np.loadtxt, the reader skips an empty line.
        curve = make_circle(1.0, 16)
        path = tmp_path / "curve.csv"
        cv.curve_to_csv(curve, path)
        lines = path.read_text().splitlines(keepends=True)
        row = blank + "\n"
        path.write_text("".join(lines[:1] + [row] + lines[1:2] + [row] + lines[2:] + [blank]))
        np.testing.assert_array_equal(cv.curve_from_csv(path).points, curve.points)

    # No writer puts a comment or a line of blanks in a curve file.
    @pytest.mark.parametrize("row", ["0,1", "0,1,abc", "0,,2", "0,1,0,7",
                                     "# note, with a comma", "   ", "\t"])
    def test_csv_malformed_row(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text("u,x,y\n" + row + "\n")
        with pytest.raises(InvalidCurve, match="malformed row"):
            cv.curve_from_csv(path)

"""Property tests: equivariances and cross-checks on random smooth curves."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eightflow import curves as cv
from eightflow.crossings import find_self_intersections, loop_signed_areas
from eightflow.curves import PlaneCurve
from test_crossings import brute_force_crossing_points

coeff = st.floats(-0.25, 0.25, allow_nan=False)


def trig_curve(n, a2, a3, b2, b3) -> PlaneCurve:
    u = 2 * np.pi * np.arange(n) / n
    x = np.cos(u) + a2 * np.cos(2 * u) + a3 * np.sin(3 * u)
    y = np.sin(u) + b2 * np.sin(2 * u) + b3 * np.cos(3 * u)
    return PlaneCurve(np.column_stack([x, y]))


@st.composite
def smooth_curves(draw):
    """Random closed trig-polynomial curves; may self-intersect."""
    n = draw(st.sampled_from([64, 96, 128]))
    try:
        return trig_curve(n, draw(coeff), draw(coeff), draw(coeff), draw(coeff))
    except Exception:
        assume(False)


# A near-cusp draw, max|kappa| = 2.6e4: the round-off in kappa grows with
# |kappa|, so curvature defects are bounded relative to max(1, max|kappa|).
# Under absolute bounds it failed reversal (3.1e-9 > 1e-9) and, at the motion
# below, rigid motion (2.2e-8 > 1e-8).  Over 20,000 random draws the worst
# relative defect stayed below 1.2e-11 for both.
NEAR_CUSP = trig_curve(64, -0.225, -0.25, -0.225, 0.225)


def kappa_tol(curve) -> float:
    return 1e-10 * max(1.0, float(np.abs(cv.curvature(curve)).max()))


def mirror_index(n):
    return (-np.arange(n)) % n


@settings(max_examples=25, deadline=None)
@given(smooth_curves())
@example(NEAR_CUSP)
def test_orientation_equivariance(curve):
    back = cv.reverse(curve)
    remap = mirror_index(curve.n)
    assert np.abs(cv.curvature(back)[remap] + cv.curvature(curve)).max() < kappa_tol(curve)
    assert cv.signed_area(back) == pytest.approx(-cv.signed_area(curve), abs=1e-12)
    assert cv.total_curvature(back) == pytest.approx(
        -cv.total_curvature(curve), abs=1e-9)
    assert cv.curve_length(back) == pytest.approx(cv.curve_length(curve), rel=1e-14)
    assert cv.osc_theta(back) == pytest.approx(cv.osc_theta(curve), abs=1e-9)
    assert cv.x_extent(back) == cv.x_extent(curve)
    assert len(find_self_intersections(back)) == len(find_self_intersections(curve))


@settings(max_examples=25, deadline=None)
@given(smooth_curves(),
       st.floats(-3, 3, allow_nan=False),
       st.floats(-2, 2, allow_nan=False),
       st.floats(0, 2 * np.pi, allow_nan=False))
@example(NEAR_CUSP, -3.0, 2.0, np.pi / 6)
def test_rigid_motion_invariance(curve, dx, dy, angle):
    moved = cv.translate(cv.rotate(curve, angle), (dx, dy))
    assert np.abs(cv.curvature(moved) - cv.curvature(curve)).max() < kappa_tol(curve)
    assert cv.curve_length(moved) == pytest.approx(cv.curve_length(curve), rel=1e-10)
    assert cv.signed_area(moved) == pytest.approx(cv.signed_area(curve), abs=1e-10)
    assert cv.inflection_count(moved) == cv.inflection_count(curve)


@settings(max_examples=25, deadline=None)
@given(smooth_curves(), st.floats(0.25, 4.0, allow_nan=False))
def test_scale_covariance(curve, factor):
    scaled = cv.scale(curve, factor)
    assert np.abs(cv.curvature(scaled) * factor - cv.curvature(curve)).max() < 1e-8
    assert cv.curve_length(scaled) == pytest.approx(
        factor * cv.curve_length(curve), rel=1e-12)
    assert cv.signed_area(scaled) == pytest.approx(
        factor**2 * cv.signed_area(curve), rel=1e-10, abs=1e-12)


@st.composite
def eight_like_curves(draw):
    """Perturbed figure-eights: small wiggles keep the single crossing."""
    n = 128
    rho = draw(st.floats(0.4, 0.9))
    e2 = draw(st.floats(-0.08, 0.08, allow_nan=False))
    e3 = draw(st.floats(-0.08, 0.08, allow_nan=False))
    u = 2 * np.pi * np.arange(n) / n
    x = np.cos(u) + e2 * np.cos(2 * u)
    y = rho * np.sin(u) * np.cos(u) + e3 * np.sin(3 * u) * 0.3
    try:
        return PlaneCurve(np.column_stack([x, y]))
    except Exception:
        assume(False)


@settings(max_examples=25, deadline=None)
@given(eight_like_curves())
def test_loopwise_shoelace_consistency(curve):
    found = find_self_intersections(curve)
    assume(len(found) == 1)
    s1, s2 = loop_signed_areas(curve, found[0])
    # Oriented loop areas recompose the signed area up to the inscribed-
    # polygon area deficit, whose leading term is (h^2/12) * integral(kappa).
    h = float(cv.segment_lengths(curve).max())
    bend = float((np.abs(cv.curvature(curve))
                  * np.sqrt(cv.speed_squared(curve))).sum() * curve.du)
    tol = 0.5 * h**2 * bend + 1e-9
    assert abs((s1 + s2) - cv.signed_area(curve)) < tol


@settings(max_examples=20, deadline=None)
@given(smooth_curves())
def test_crossings_match_brute_force(curve):
    found = find_self_intersections(curve)
    oracle = brute_force_crossing_points(curve)
    assert len(found) == len(oracle)
    for c in found:
        assert min(np.hypot(*(c.point - q)) for q in oracle) < 1e-9


@settings(max_examples=15, deadline=None)
@given(smooth_curves())
def test_resample_preserves_geometry(curve):
    # The uniform-spread guarantee targets resolution-honest meshes, i.e.
    # max|kappa| * h below the engine's own stopping threshold.
    assume(np.abs(cv.curvature(curve)).max()
           * cv.segment_lengths(curve).max() < 0.5)
    res = cv.resample_arclength(curve)
    # Both length and area move by O(h^2) with curvature-dependent constants.
    h2 = float(cv.segment_lengths(curve).max()) ** 2
    kmax = float(np.abs(cv.curvature(curve)).max())
    assert cv.curve_length(res) == pytest.approx(
        cv.curve_length(curve), rel=0.5 * h2 * kmax**2 + 1e-6)
    assert cv.signed_area(res) == pytest.approx(
        cv.signed_area(curve), abs=(0.5 * h2 * kmax + 1e-9) * cv.curve_length(curve))
    seg = cv.segment_lengths(res)
    assert (seg.max() - seg.min()) / seg.mean() < 0.01

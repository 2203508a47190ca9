"""Grim reaper comparison solution and barrier checks; shrinking circle."""

import numpy as np
import pytest

from eightflow.curves import PlaneCurve, translate
from eightflow.errors import Extinct, InvalidCurve, NotInsideReaper, OutOfDomain
from eightflow.flow import FlowConfig, FlowState, run
from eightflow.shapes import make_bernoulli_lemniscate, make_circle, make_ellipse
from eightflow.solitons import (
    GrimReaper,
    matched_barrier_comparison,
    push_distance,
    reaper_barrier_check,
    reaper_margins,
    reaper_value,
    rectangle_containment,
    shrinking_circle,
)

LOG_COS_HALF = np.log(np.cos(0.5))  # ~ -0.1305844


class TestReaperValue:
    def test_initial_apex_positive(self):
        for c0, tau0 in ((1.0, 0.1), (4.0, 0.02), (0.5, 1.0)):
            reaper = GrimReaper(c0, tau0)
            apex = reaper_value(reaper, 0.0, -tau0 / 2)
            assert apex == pytest.approx(-2 * c0 * tau0 * LOG_COS_HALF)
            assert apex > 0

    def test_time_shift_uniform_in_y(self):
        reaper = GrimReaper(1.0, 0.1)
        ys = np.linspace(-0.1, 0.1, 7)
        drop = reaper_value(reaper, ys, 0.0) - reaper_value(reaper, ys, -0.05)
        assert np.abs(drop + 1.0 / 4.0).max() < 1e-12

    def test_frozen_value(self):
        # Independent evaluation: 0.2*log cos(0.5) - 0.25 = -0.22388312.
        value = reaper_value(GrimReaper(1.0, 0.1), 0.0, 0.0)
        assert value == pytest.approx(-0.2238831, abs=1e-6)

    def test_out_of_domain(self):
        reaper = GrimReaper(1.0, 0.1)
        with pytest.raises(OutOfDomain):
            reaper_value(reaper, reaper.half_width, 0.0)

    def test_translating_solution_identity(self):
        # G satisfies the graph flow G_t = G_yy / (1 + G_y^2) exactly; checked
        # by centered finite differences.
        reaper = GrimReaper(1.3, 0.21)
        ys = np.linspace(-0.5, 0.5, 11) * reaper.half_width
        h = 1e-5
        g_t = (reaper_value(reaper, ys, h) - reaper_value(reaper, ys, -h)) / (2 * h)
        g_y = (reaper_value(reaper, ys + h, 0.0) - reaper_value(reaper, ys - h, 0.0)) / (2 * h)
        g_yy = (
            reaper_value(reaper, ys + h, 0.0)
            - 2 * reaper_value(reaper, ys, 0.0)
            + reaper_value(reaper, ys - h, 0.0)
        ) / h**2
        assert np.abs(g_t - g_yy / (1 + g_y**2)).max() < 1e-5
        assert np.abs(g_t + reaper.speed).max() < 1e-10


class TestPushDistance:
    def test_frozen_value(self):
        assert push_distance(1.0, 0.1) == pytest.approx(0.2238831, abs=1e-6)

    def test_small_tau_limit(self):
        assert push_distance(2.0, 1e-12) == pytest.approx(1 / 8.0, abs=1e-9)

    def test_positivity_threshold(self):
        # Solving 1/(4 c0) + 2 c0 tau0 log cos(1/2) = 0 for c0 = 1 gives
        # tau0* = 1/(8 |log cos(1/2)|) = 0.957225...
        tau_star = 1.0 / (8.0 * abs(LOG_COS_HALF))
        assert tau_star == pytest.approx(0.95723, abs=1e-5)
        assert push_distance(1.0, tau_star * 0.999) > 0
        assert push_distance(1.0, tau_star * 1.001) < 0

    def test_invalid_parameters(self):
        with pytest.raises(InvalidCurve):
            push_distance(-1.0, 0.1)

    @pytest.mark.parametrize("c0, tau0", [(np.nan, 0.2), (np.inf, 0.2), (1.0, np.nan),
                                          (1.0, np.inf)])
    def test_non_finite_parameters(self, c0, tau0):
        with pytest.raises(InvalidCurve):
            GrimReaper(c0, tau0)
        with pytest.raises(InvalidCurve):
            push_distance(c0, tau0)


class TestRectangle:
    def test_translated_lemniscate_contained(self):
        curve = make_bernoulli_lemniscate(1.0, 256)
        shifted = translate(curve, (-float(curve.x.max()), 0.0))
        # Height of the unit lemniscate is sqrt(2)/2 ~ 0.354 < c0*tau0 = 0.5.
        assert rectangle_containment(shifted, 1.0, 0.5)
        assert not rectangle_containment(shifted, 1.0, 0.1)

    def test_circle_at_origin_fails(self):
        assert not rectangle_containment(make_circle(1.0, 64), 1.0, 10.0)

    def test_boundary_counts_as_contained(self):
        u = 2 * np.pi * np.arange(64) / 64
        curve = PlaneCurve(np.column_stack([0.5 * np.cos(u) - 0.5, 0.5 * np.sin(u)]))
        assert rectangle_containment(curve, 1.0, 0.5)


class TestBarrier:
    def test_circle_left_of_slow_wide_reaper(self):
        reaper = GrimReaper(c0=0.2, tau0=5.0)  # wide and slow
        config = FlowConfig(cfl=0.2, stop_area_frac=0.3)
        circle = translate(make_circle(0.5, 64), (-2.0, 0.0))
        traj = run(circle, config, output_times=[0.02, 0.04, 0.06])
        margins = reaper_barrier_check(traj.states, reaper, t_offset=reaper.tau0 / 2)
        assert np.all(margins > 0)

    def test_initial_margin_must_be_positive(self):
        reaper = GrimReaper(c0=1.0, tau0=0.1)
        config = FlowConfig(cfl=0.2, stop_area_frac=0.3)
        circle = translate(make_circle(0.5, 64), (5.0, 0.0))  # right of barrier
        traj = run(circle, config, t_end=1e-4)
        with pytest.raises(NotInsideReaper):
            reaper_barrier_check(traj.states, reaper, t_offset=reaper.tau0 / 2)

    def test_margin_past_the_domain_is_minus_inf(self):
        # The reaper lives on |y| < pi*C0*tau0 = 0.628; a unit circle leaves it.
        reaper = GrimReaper(c0=1.0, tau0=0.2)
        inside = translate(make_ellipse(0.5, 0.1), (-0.6, 0.0))
        past = translate(make_circle(1.0), (-1.0, 0.0))
        assert reaper_margins(inside, reaper, -0.1) == pytest.approx(0.1522337, abs=1e-7)
        assert reaper_margins(past, reaper, -0.1) == -np.inf
        states = [FlowState(inside, 0.0, 0), FlowState(past, 0.0, 1)]
        margins = reaper_barrier_check(states, reaper, t_offset=0.1)
        np.testing.assert_allclose(margins, [0.1522337, -np.inf], atol=1e-7)

    def test_matched_lemniscate_comparison(self, lemniscate_run):
        cmp_ = matched_barrier_comparison(lemniscate_run)
        assert cmp_.initial_contained
        assert np.all(cmp_.margins > 0)
        # The matched barrier moves right, so it pushes nothing past it:
        # `compare-reaper` prints pushed_past=n/a for this run.
        assert cmp_.push == pytest.approx(-0.3591316, abs=1e-7)


class TestShrinkingCircle:
    def test_values(self):
        assert shrinking_circle(1.0, 0.0) == 1.0
        assert shrinking_circle(1.0, 0.375) == 0.5

    def test_extinct(self):
        with pytest.raises(Extinct):
            shrinking_circle(1.0, 0.5)

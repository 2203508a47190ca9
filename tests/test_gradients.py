"""Gradient flows: arclength calculus, the elliptic solve, flow equivalences."""

import numpy as np
import pytest

from eightflow.curves import (
    PlaneCurve,
    curvature,
    curve_length,
    resample_arclength,
    segment_lengths,
    signed_area,
    x_extent,
)
from eightflow.errors import SolveFailed, ValidationError
from eightflow import flow
from eightflow.flow import CFL4, FlowConfig, FlowState, run, step
from eightflow.gradients import (
    FLOWS,
    _d_ds,
    curve_diffusion_speed,
    evolve_gradient_flow,
    h1_gradient,
)
from eightflow.shapes import make_bernoulli_lemniscate, make_circle, make_ellipse
from eightflow.tridiag import solve_cyclic
from oracles import ds_weights, h1_weak_form_defect, reverse


def wobbly_curve(n=256):
    u = 2 * np.pi * np.arange(n) / n
    r = 1 + 0.2 * np.cos(3 * u) + 0.1 * np.sin(2 * u)
    return resample_arclength(PlaneCurve(np.column_stack([r * np.cos(u), r * np.sin(u)])))


def diffused_ellipse(n, cfl4, monkeypatch):
    """The 2:1 ellipse at N = n under curve diffusion to t = 0.002 with
    flow.CFL4 = cfl4 (the benchmark's diffusion run at n = 128)."""
    monkeypatch.setattr(flow, "CFL4", cfl4)
    traj = evolve_gradient_flow(make_ellipse(2.0, 1.0, n), "diffusion", FlowConfig(), t_end=0.002)
    assert traj.stop_reason == "time"
    return traj.states[-1]


def arclength_positions(curve):
    seg = segment_lengths(curve)
    return np.concatenate([[0.0], np.cumsum(seg[:-1])])


def dense_cyclic(lower, diag, upper):
    """The dense matrix of the cyclic system (lower, diag, upper)."""
    n = diag.size
    dense = np.zeros((n, n))
    for i in range(n):
        dense[i, i] = diag[i]
        dense[i, (i - 1) % n] = lower[i]
        dense[i, (i + 1) % n] = upper[i]
    return dense


def random_cyclic_system(rng, n):
    """(lower, diag, upper, dense) of a diagonally dominant cyclic system."""
    lower = rng.uniform(-1, 0, n)
    upper = rng.uniform(-1, 0, n)
    diag = 3.0 + rng.uniform(0, 1, n)
    return lower, diag, upper, dense_cyclic(lower, diag, upper)


def h1_cyclic_system(n):
    """(lower, diag, upper) of the H1 solve I - d^2/ds^2 at uniform spacing
    h = 2 pi / n: diagonal 1 + 2/h^2 against off-diagonals -1/h^2, so each
    row is dominant by 1 only."""
    off = np.full(n, -((n / (2 * np.pi)) ** 2))
    return off, 1.0 - 2.0 * off, off


class TestCyclicTridiagonal:
    def test_against_dense_solve(self):
        rng = np.random.default_rng(3)
        for n in (8, 64, 257):
            lower, diag, upper, dense = random_cyclic_system(rng, n)
            rhs = rng.standard_normal(n)
            x = solve_cyclic(lower, diag, upper, rhs)
            assert np.abs(x - np.linalg.solve(dense, rhs)).max() < 1e-11
        rng = np.random.default_rng(4)
        for n in (8, 64, 257, 512):
            system = h1_cyclic_system(n)
            rhs = rng.standard_normal(n)
            x = solve_cyclic(*system, rhs)
            assert np.abs(x - np.linalg.solve(dense_cyclic(*system), rhs)).max() < 1e-11

    @pytest.mark.parametrize("k", [2, 3])
    def test_multi_column_against_dense_solve(self, k):
        rng = np.random.default_rng(k)
        for n in (8, 64, 257):
            lower, diag, upper, dense = random_cyclic_system(rng, n)
            rhs = rng.standard_normal((n, k))
            x = solve_cyclic(lower, diag, upper, rhs)
            assert x.shape == (n, k)
            assert np.abs(x - np.linalg.solve(dense, rhs)).max() < 1e-11

    def test_one_column_bitwise_equal_to_two_dimensional(self):
        rng = np.random.default_rng(5)
        for n in (3, 16, 17, 256, 512):
            lower, diag, upper, _ = random_cyclic_system(rng, n)
            rhs = rng.standard_normal((n, 3))
            x = solve_cyclic(lower, diag, upper, rhs)
            for k in range(3):
                assert solve_cyclic(lower, diag, upper, rhs[:, k]).tobytes() \
                    == x[:, k].tobytes()

    def test_too_small_system(self):
        with pytest.raises(SolveFailed):
            solve_cyclic(np.ones(2), np.ones(2), np.ones(2), np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("which", range(4))
    def test_non_finite_entry_rejected(self, which, bad):
        rng = np.random.default_rng(11)
        lower, diag, upper, _ = random_cyclic_system(rng, 16)
        system = [lower, diag, upper, rng.standard_normal(16)]
        system[which][5] = bad
        with pytest.raises(SolveFailed, match="non-finite entry"):
            solve_cyclic(*system)

    @pytest.mark.parametrize("diag0, diag1", [(0.0, 4.0), (1.0, 0.5)])
    def test_zero_pivot_rejected(self, diag0, diag1):
        # The Thomas factorization does not pivot: a zero diagonal corner
        # (the rank-one update divides by it) or a zero pivot further down
        # (here 0.5 - 1 * (1 / 2) at row 1, after the corner doubles diag0)
        # stops the solve.
        ones = np.ones(8)
        diag = np.full(8, 4.0)
        diag[:2] = diag0, diag1
        with pytest.raises(SolveFailed, match="zero pivot"):
            solve_cyclic(ones, diag, ones, ones)

    def test_overflowing_solution_rejected(self):
        # A residual test cannot catch this: comparisons with NaN are False.
        rng = np.random.default_rng(12)
        lower, diag, upper, _ = random_cyclic_system(rng, 16)
        tiny = 1e-300
        with pytest.raises(SolveFailed, match="non-finite solution"):
            solve_cyclic(tiny * lower, tiny * diag, tiny * upper, np.full(16, 1e10))


class TestArclengthDerivative:
    def test_constant_field_zero(self):
        curve = wobbly_curve()
        deriv = _d_ds(np.full(curve.n, 3.3), segment_lengths(curve))
        assert np.abs(deriv).max() < 1e-12

    def test_linear_in_s_exact(self):
        curve = wobbly_curve()
        s = arclength_positions(curve)
        deriv = _d_ds(s, segment_lengths(curve))
        interior = slice(2, curve.n - 2)  # the wrap sees the sawtooth jump
        assert np.abs(deriv[interior] - 1.0).max() < 1e-3

    def test_sine_on_circle(self):
        curve = make_circle(1.0, 256)
        s = arclength_positions(curve)
        length = curve_length(curve)
        omega = 2 * np.pi / length
        deriv = _d_ds(np.sin(omega * s), segment_lengths(curve))
        assert np.abs(deriv - omega * np.cos(omega * s)).max() < 1e-3


class TestCurveDiffusion:
    def test_circle_stationary_speed(self):
        speed = curve_diffusion_speed(make_circle(1.0, 256))
        assert np.abs(speed).max() < 1e-3

    def test_speed_matches_spectral_oracle(self):
        # High-N spectral differentiation of the same parametrization.
        n = 1024
        u = 2 * np.pi * np.arange(n) / n
        r = 1 + 0.1 * np.cos(3 * u)
        curve = PlaneCurve(np.column_stack([r * np.cos(u), r * np.sin(u)]))
        speed = curve_diffusion_speed(curve)
        k = np.fft.fftfreq(n, 1.0 / n)

        def d(f):
            return np.real(np.fft.ifft(1j * k * np.fft.fft(f)))

        x, y = curve.x, curve.y
        xu, yu = d(x), d(y)
        g = np.sqrt(xu**2 + yu**2)
        kappa = (xu * d(yu) - yu * d(xu)) / g**3
        kappa_ss = d(d(kappa) / g) / g
        assert np.abs(speed + kappa_ss).max() < 1e-2

    def test_speed_integrates_to_zero(self):
        # Exact at the discrete level: the divergence form telescopes.
        curve = wobbly_curve()
        weights = ds_weights(segment_lengths(curve))
        assert abs(float((curve_diffusion_speed(curve) * weights).sum())) < 1e-8

    def test_step_count_flat_in_n(self, monkeypatch):
        # dt = CFL4 / max kappa^4 reads no spacing.
        for n in (128, 256, 512):
            assert diffused_ellipse(n, CFL4, monkeypatch).step == 44

    def test_time_error_below_space_error(self, monkeypatch):
        # At N=256 the x extent at CFL4 is 5.4e-8 from a run at CFL4 / 8, and
        # N=256 -> 512 (both at CFL4 / 8) moves it by 1.9e-5, so the time
        # error lies well below the space error.  The y extent's space error
        # (2.8e-8) is too small to serve.
        fine = {n: x_extent(diffused_ellipse(n, CFL4 / 8, monkeypatch).curve)
                for n in (256, 512)}
        coarse = x_extent(diffused_ellipse(256, CFL4, monkeypatch).curve)
        assert abs(coarse - fine[256]) < 0.1 * abs(fine[256] - fine[512])

    def test_stiff_modes_damped(self):
        # Radial noise of 1e-3 excites every mode up to N/2.  As kappa
        # smooths, the law's dt grows to about 1e4 times the explicit limit
        # 2.5127 * 3/64 h^4 of the top mode's -64/3 h^-4; the stage damps
        # it, and the spread about the mean radius falls from 3.1e-3 to
        # 7.3e-5 in 50 steps.
        circle = make_circle(1.0, 256)
        noise = 1e-3 * np.random.default_rng(0).standard_normal(circle.n)
        state = FlowState(curve=PlaneCurve(circle.points * (1 + noise)[:, None]), t=0.0, step=0)

        def spread(curve):
            r = np.linalg.norm(curve.points - curve.points.mean(axis=0), axis=1)
            return np.abs(r - r.mean()).max()

        assert spread(state.curve) > 3e-3
        for _ in range(50):
            state = step(state, FlowConfig(), flow=FLOWS["diffusion"])
        assert spread(state.curve) < 1e-4

    def test_perturbed_circle_conserves_signed_area(self):
        config = FlowConfig()
        start = wobbly_curve(128)
        a0 = signed_area(start)
        l0 = curve_length(start)
        state = FlowState(curve=start, t=0.0, step=0)
        for _ in range(2000):
            state = step(state, config, flow=FLOWS["diffusion"])
        assert abs(signed_area(state.curve) - a0) < 1e-4 * l0**2
        assert curve_length(state.curve) < l0


class TestH1Gradient:
    def test_circle_trivial(self):
        zeta, speed = h1_gradient(make_circle(1.0, 256))
        assert np.abs(zeta).max() < 1e-8
        assert np.abs(speed).max() < 1e-8

    def test_weak_form_identity(self):
        assert h1_weak_form_defect(wobbly_curve()) < 1e-6


class TestIndefinite:
    speed = staticmethod(FLOWS["indefinite"].speed)

    def test_identical_to_curvature(self):
        curve = wobbly_curve()
        assert np.abs(self.speed(curve) - curvature(curve)).max() < 1e-12

    def test_circle_constant_speed(self):
        for r in (0.5, 2.0):
            speed = self.speed(make_circle(r, 128))
            assert np.abs(speed - 1.0 / r).max() < 1e-4

    def test_orientation_reversal_negates(self):
        curve = wobbly_curve()
        back = reverse(curve)
        # Sample k of the reversed curve is sample -k of the original.
        remap = self.speed(back)[(-np.arange(curve.n)) % curve.n]
        assert np.abs(self.speed(curve) + remap).max() < 1e-12


class TestEvolve:
    def test_indefinite_matches_csf_trajectory(self):
        lem = make_bernoulli_lemniscate(1.0, 128)
        config = FlowConfig(cfl=0.1, stop_area_frac=0.6)
        a = run(lem, config, output_times=[0.01, 0.02])
        b = evolve_gradient_flow(lem, "indefinite", config, output_times=[0.01, 0.02])
        assert len(a.states) == len(b.states)
        for sa, sb in zip(a.states, b.states):
            assert np.abs(sa.curve.points - sb.curve.points).max() < 1e-8

    def test_all_flows_decrease_length(self):
        start = wobbly_curve(128)
        l0 = curve_length(start)
        config = FlowConfig(cfl=0.1, stop_area_frac=0.2, max_steps=400)
        for kind, flow in FLOWS.items():
            state = FlowState(curve=start, t=0.0, step=0)
            for _ in range(150):
                state = step(state, config, flow=flow)
            assert curve_length(state.curve) < l0, kind

    def test_h1_at_cfl_0_1_tracks_a_fine_run(self):
        # The perfbench evolve workload runs h1 on the N=256 lemniscate at
        # cfl 0.1 (about 15 steps).  Against a run at the default cfl (1/20
        # the step, itself within 3e-6 of one at a quarter of its step), area
        # and length at a common end time agree to 5e-4 relative (measured
        # 3.6e-4 and 2.2e-4; doubling N moves them by 2e-4 and 1e-5).
        # The end time precedes the 50% area stop, which fires at the first
        # step past it: at t = 0.0878 for cfl 0.1, 0.0856 for the default.
        lem = make_bernoulli_lemniscate(1.0, 256)
        ends = []
        for cfl in (0.1, FlowConfig().cfl):
            config = FlowConfig(cfl=cfl, stop_area_frac=0.5)
            traj = evolve_gradient_flow(lem, "h1", config, t_end=0.08)
            assert traj.stop_reason == "time"
            ends.append(np.array([traj.records[-1].area_total,
                                  curve_length(traj.states[-1].curve)]))
        assert np.all(np.abs(ends[0] - ends[1]) / ends[1] < 5e-4)

    @pytest.mark.parametrize("kind", sorted(FLOWS))
    def test_step_law(self, kind):
        # dt = CFL4 / max kappa^4 for the fourth-order diffusion flow and
        # cfl min(|A| / 4 pi, 1 / max kappa^2) for the others, both flat in
        # N; a smaller cap is taken exactly.
        flow = FLOWS[kind]
        assert flow.kind == kind and flow.fourth_order == (kind == "diffusion")
        config = FlowConfig(cfl=0.1)
        curve = wobbly_curve(128)
        area = abs(signed_area(curve))  # the curve is embedded
        kappa2 = np.max(curvature(curve) ** 2)
        law = (CFL4 / kappa2**2 if kind == "diffusion"
               else config.cfl * min(area / (4 * np.pi), 1 / kappa2))
        start = FlowState(curve=curve, t=0.0, step=1)
        assert step(start, config, flow=flow).t == law
        assert step(start, config, flow=flow, dt_cap=0.5 * law).t == 0.5 * law

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError) as exc:
            evolve_gradient_flow(make_circle(1.0, 64), "bogus", FlowConfig())
        assert exc.type is ValidationError

    def test_diffusion_metadata(self):
        traj = evolve_gradient_flow(
            make_circle(1.0, 64), "diffusion",
            FlowConfig(stop_area_frac=0.5), t_end=1e-6,
        )
        assert traj.flow_kind == "diffusion"
        assert traj.stop_reason == "time"

"""Gradient flows: arclength calculus, the elliptic solve, flow equivalences."""

import numpy as np
import pytest

from eightflow.curves import (
    PlaneCurve,
    curvature,
    curve_length,
    resample_arclength,
    reverse,
    segment_lengths,
    signed_area,
)
from eightflow.errors import SolveFailed
from eightflow.flow import FlowConfig, FlowState, run, step
from eightflow.gradients import (
    ArclengthField,
    arclength_derivative,
    arclength_second_derivative,
    curve_diffusion_speed,
    evolve_gradient_flow,
    field_on_curve,
    h1_gradient,
    h1_weak_form_defect,
    indefinite_speed,
)
from eightflow.shapes import make_bernoulli_lemniscate, make_circle
from eightflow.tridiag import solve_cyclic


def wobbly_curve(n=256):
    u = 2 * np.pi * np.arange(n) / n
    r = 1 + 0.2 * np.cos(3 * u) + 0.1 * np.sin(2 * u)
    return resample_arclength(PlaneCurve(np.column_stack([r * np.cos(u), r * np.sin(u)])))


def arclength_positions(curve):
    seg = segment_lengths(curve)
    return np.concatenate([[0.0], np.cumsum(seg[:-1])])


def random_cyclic_system(rng, n):
    """(lower, diag, upper, dense) of a diagonally dominant cyclic system."""
    lower = rng.uniform(-1, 0, n)
    upper = rng.uniform(-1, 0, n)
    diag = 3.0 + rng.uniform(0, 1, n)
    dense = np.zeros((n, n))
    for i in range(n):
        dense[i, i] = diag[i]
        dense[i, (i - 1) % n] = lower[i]
        dense[i, (i + 1) % n] = upper[i]
    return lower, diag, upper, dense


class TestCyclicTridiagonal:
    def test_against_dense_solve(self):
        rng = np.random.default_rng(3)
        for n in (8, 64, 257):
            lower, diag, upper, dense = random_cyclic_system(rng, n)
            rhs = rng.standard_normal(n)
            x = solve_cyclic(lower, diag, upper, rhs)
            assert np.abs(x - np.linalg.solve(dense, rhs)).max() < 1e-11

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
        field = field_on_curve(curve, np.full(curve.n, 3.3))
        assert np.abs(arclength_derivative(field).values).max() < 1e-12

    def test_linear_in_s_exact(self):
        curve = wobbly_curve()
        s = arclength_positions(curve)
        deriv = arclength_derivative(field_on_curve(curve, s)).values
        interior = slice(2, curve.n - 2)  # the wrap sees the sawtooth jump
        assert np.abs(deriv[interior] - 1.0).max() < 1e-3

    def test_sine_on_circle(self):
        curve = make_circle(1.0, 256)
        s = arclength_positions(curve)
        length = curve_length(curve)
        omega = 2 * np.pi / length
        deriv = arclength_derivative(field_on_curve(curve, np.sin(omega * s))).values
        assert np.abs(deriv - omega * np.cos(omega * s)).max() < 1e-3

    def test_positive_spacing_required(self):
        with pytest.raises(Exception):
            ArclengthField(np.ones(8), np.zeros(8))


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
        field = field_on_curve(curve, curve_diffusion_speed(curve))
        assert abs(field.integral()) < 1e-8

    def test_circle_stationary_1000_steps(self):
        config = FlowConfig(cfl4=0.05)
        start = make_circle(1.0, 256)
        state = FlowState(curve=start, t=0.0, step=0)
        for _ in range(1000):
            state = step(state, config, speed_fn=curve_diffusion_speed, dt_law="h4")
        assert np.abs(state.curve.points - start.points).max() < 1e-4

    def test_perturbed_circle_conserves_signed_area(self):
        config = FlowConfig(cfl4=0.05)
        start = wobbly_curve(128)
        a0 = signed_area(start)
        l0 = curve_length(start)
        state = FlowState(curve=start, t=0.0, step=0)
        for _ in range(2000):
            state = step(state, config, speed_fn=curve_diffusion_speed, dt_law="h4")
        assert abs(signed_area(state.curve) - a0) < 1e-4 * l0**2
        assert curve_length(state.curve) < l0


class TestH1Gradient:
    def test_circle_trivial(self):
        zeta, speed = h1_gradient(make_circle(1.0, 256))
        assert np.abs(zeta.values).max() < 1e-8
        assert np.abs(speed).max() < 1e-8

    def test_manufactured_single_mode(self):
        # On the unit-circle mesh (L = 2*pi), kappa_s = sin(s) should return
        # zeta = sin(s)/2: both Fourier symbols equal 1 for the first mode.
        curve = make_circle(1.0, 256)
        s = arclength_positions(curve)
        spacing = segment_lengths(curve)
        b = spacing
        a = np.roll(spacing, 1)
        w = 0.5 * (a + b)
        zeta = solve_cyclic(
            -1.0 / (a * w), 1.0 + 1.0 / (a * w) + 1.0 / (b * w), -1.0 / (b * w),
            np.sin(s),
        )
        assert np.abs(zeta - np.sin(s) / 2).max() < 1e-3

    def test_solve_residual(self):
        curve = wobbly_curve()
        kappa = curvature(curve)
        spacing = segment_lengths(curve)
        kappa_s = arclength_derivative(ArclengthField(kappa, spacing)).values
        zeta, _ = h1_gradient(curve)
        residual = zeta.values - arclength_second_derivative(zeta).values - kappa_s
        assert np.abs(residual).max() < 1e-8

    def test_weak_form_identity(self):
        assert h1_weak_form_defect(wobbly_curve()) < 1e-6


class TestIndefinite:
    def test_identical_to_curvature(self):
        curve = wobbly_curve()
        assert np.abs(indefinite_speed(curve) - curvature(curve)).max() < 1e-12

    def test_circle_constant_speed(self):
        for r in (0.5, 2.0):
            speed = indefinite_speed(make_circle(r, 128))
            assert np.abs(speed - 1.0 / r).max() < 1e-4

    def test_orientation_reversal_negates(self):
        curve = wobbly_curve()
        back = reverse(curve)
        # Sample k of the reversed curve is sample -k of the original.
        remap = indefinite_speed(back)[(-np.arange(curve.n)) % curve.n]
        assert np.abs(indefinite_speed(curve) + remap).max() < 1e-12


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
        config = FlowConfig(cfl=0.1, cfl4=0.05, stop_area_frac=0.2, max_steps=400)
        for kind in ("diffusion", "h1", "indefinite"):
            state = FlowState(curve=start, t=0.0, step=0)
            dt_law = "h4" if kind == "diffusion" else "h2"
            from eightflow import gradients
            speed_fn = {
                "diffusion": gradients.curve_diffusion_speed,
                "h1": lambda c: gradients.h1_gradient(c)[1],
                "indefinite": gradients.indefinite_speed,
            }[kind]
            for _ in range(150):
                state = step(state, config, speed_fn=speed_fn, dt_law=dt_law)
            assert curve_length(state.curve) < l0, kind

    def test_unknown_kind_rejected(self):
        from eightflow.errors import InvalidCurve
        with pytest.raises(InvalidCurve):
            evolve_gradient_flow(make_circle(1.0, 64), "bogus", FlowConfig())

    def test_diffusion_metadata(self):
        traj = evolve_gradient_flow(
            make_circle(1.0, 64), "diffusion",
            FlowConfig(cfl4=0.05, stop_area_frac=0.5), t_end=1e-6,
        )
        assert traj.flow_kind == "diffusion"
        assert traj.stop_reason == "time"

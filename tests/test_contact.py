"""Legendrian lifts, residual identities, angle function, variations."""

import numpy as np
import pytest

import oracles
from conftest import trapezoid_heights
from eightflow import contact, runio
from eightflow import curves as cv
from eightflow.curves import curve_length, signed_area, total_curvature
from eightflow.errors import InvalidCurve, NotBalanced
from eightflow.flow import REMESH_EVERY, FlowConfig, Trajectory, csf_velocity, run
from eightflow.shapes import make_bernoulli_lemniscate, make_circle


@pytest.fixture(scope="module")
def lifted_lemniscate():
    plane = make_bernoulli_lemniscate(1.0, 256)
    return plane, contact.lift(plane, 0.0)


class TestResidual:
    def test_lift_is_discretely_legendrian(self, lifted_lemniscate):
        _, lifted = lifted_lemniscate
        assert contact.legendrian_residual(lifted) < 1e-8

    def test_planar_embedding_large_residual(self):
        u = 2 * np.pi * np.arange(256) / 256
        curve = space_curve(np.column_stack([np.cos(u), np.sin(u), np.ones_like(u)]))
        # z_u = 0 while y x_u = -sin^2 u: residual ~ max|y x_u| = 1.
        assert abs(contact.legendrian_residual(curve) - 1.0) < 1e-2

    def test_helix_matches_direct_evaluation(self):
        n = 256
        u = 2 * np.pi * np.arange(n) / n
        curve = space_curve(np.column_stack([np.cos(u), np.sin(u), u]))
        profile = oracles.legendrian_residual_profile(curve)
        # Direct evaluation of z_u - y x_u = 1 + sin^2 u at segment midpoints;
        # the wrap-around segment carries the 2*pi jump of z and is excluded.
        mid = u[:-1] + np.pi / n
        expected = np.abs(1.0 + np.sin(mid) ** 2)
        assert np.abs(profile[:-1] - expected).max() < 1e-2


class TestLift:
    def test_circle_rejected(self):
        with pytest.raises(NotBalanced, match="signed area 3.14"):
            contact.lift(make_circle(1.0, 256))

    def test_defect_equals_minus_signed_area(self):
        # Holds exactly (same quadrature), even for unbalanced curves.
        for curve in (make_circle(1.0, 128), make_bernoulli_lemniscate(1.0, 128)):
            defect = oracles.lift_defect(curve)
            assert abs(defect + signed_area(curve)) < 1e-14

    def test_unbalanced_lift_carries_defect(self):
        circle = make_circle(1.0, 256)
        lifted = contact.SpaceCurve(circle, trapezoid_heights(circle))
        profile = oracles.legendrian_residual_profile(lifted)
        # Interior segments are transport-exact; the wrap segment absorbs the
        # whole holonomy |defect| = |A_signed| = pi.
        assert profile[:-1].max() < 1e-10
        expected_wrap = abs(oracles.lift_defect(circle)) / circle.du
        assert abs(profile[-1] - expected_wrap) < 1e-8

    def test_z_base_honored(self, lifted_lemniscate):
        plane, _ = lifted_lemniscate
        lifted = contact.lift(plane, 2.5)
        assert lifted.z[0] == 2.5


class TestProjection:
    def test_project_lift_identity(self, lifted_lemniscate):
        plane, lifted = lifted_lemniscate
        assert np.array_equal(lifted.plane.points, plane.points)

    def test_lift_project_round_trip(self, lifted_lemniscate):
        _, lifted = lifted_lemniscate
        again = contact.lift(lifted.plane, float(lifted.z[0]))
        dev = np.abs(again.points - lifted.points).max()
        assert dev < 1e-8 * curve_length(lifted.plane)

    def test_projection_kept(self, lifted_lemniscate):
        # The lift holds the plane curve it was given: no copy, no second jet.
        plane, lifted = lifted_lemniscate
        assert lifted.plane is plane

    def test_projection_of_non_legendrian(self):
        u = 2 * np.pi * np.arange(64) / 64
        curve = space_curve(np.column_stack([np.cos(u), np.sin(u), np.cos(3 * u)]))
        assert curve.plane.n == 64

    @pytest.mark.parametrize("z", [np.zeros(63), np.full(64, np.nan), np.full(64, np.inf)],
                             ids=["short", "nan", "inf"])
    def test_heights_checked(self, z):
        u = 2 * np.pi * np.arange(64) / 64
        with pytest.raises(InvalidCurve):
            contact.SpaceCurve(cv.PlaneCurve(np.column_stack([np.cos(u), np.sin(u)])), z)


class TestLiftTrajectory:
    def test_lemniscate_snapshots(self, lemniscate_run):
        lifted = contact.lift_trajectory(lemniscate_run, z_base=0.25)
        for state, curve3 in zip(lemniscate_run.states, lifted):
            assert curve3.z[0] == 0.25
            assert contact.legendrian_residual(curve3) < 1e-6 * curve_length(state.curve)

    def test_circle_trajectory_rejected(self):
        config = FlowConfig(cfl=0.2, stop_area_frac=0.5)
        traj = run(make_circle(1.0, 64), config)
        with pytest.raises(NotBalanced) as info:
            contact.lift_trajectory(traj)
        assert "t = 0" in str(info.value)

    def test_single_snapshot(self, lemniscate_run):
        solo = Trajectory(
            states=lemniscate_run.states[:1],
            records=lemniscate_run.records[:1],
            stop_reason="partial",
            config=lemniscate_run.config,
        )
        assert len(contact.lift_trajectory(solo)) == 1

    def test_loaded_run_lift_reuses_the_stored_curves(self, lemniscate_run, tmp_path,
                                                      monkeypatch):
        # A load reads the stored records and parses and computes only the
        # last curve's (to check it), so the lift builds one PlaneCurve, the
        # parse, and evaluates one stencil for each other curve, which the
        # residuals then share.
        short = Trajectory(states=lemniscate_run.states[:4], records=lemniscate_run.records[:4],
                           stop_reason="partial", config=lemniscate_run.config)
        runio.save_run(short, tmp_path / "run")
        loaded = runio.load_run(tmp_path / "run")
        built, stencils = [], []
        post_init, stencil = cv.PlaneCurve.__post_init__, cv.stencil

        def counting_post_init(curve):
            built.append(curve)
            post_init(curve)

        def counting_stencil(*args, **kwargs):
            stencils.append(args)
            return stencil(*args, **kwargs)

        monkeypatch.setattr(cv.PlaneCurve, "__post_init__", counting_post_init)
        monkeypatch.setattr(cv, "stencil", counting_stencil)
        lifted = contact.lift_trajectory(loaded)
        residuals = [contact.legendrian_residual(c) for c in lifted]
        assert len(built) == len(stencils) == len(loaded.states) - 1
        assert max(residuals) < 1e-8


class TestLegendrianAngle:
    def test_periodicity_defect_is_total_turning(self, lemniscate_run):
        for state in lemniscate_run.states[:: max(1, len(lemniscate_run.states) // 8)]:
            lam = oracles.legendrian_angle(state.curve)
            assert lam.shape == (state.curve.n,)
            assert abs(total_curvature(state.curve)) < 1e-6

    def test_base_value_definition(self):
        # Shift the eight off the x-axis so y(0) != 0 and the normalization
        # term is exercised exactly.
        plane = oracles.translate(make_bernoulli_lemniscate(1.0, 256), (0.0, 0.7))
        lam = oracles.legendrian_angle(plane)
        x_t0 = csf_velocity(plane)[0, 0]
        assert lam[0] == -plane.y[0] * x_t0

    def test_circle_rejected(self):
        with pytest.raises(NotBalanced):
            oracles.legendrian_angle(make_circle(1.0, 256))

    def test_reeb_component_of_lifted_motion(self):
        # Between two close snapshots (no remesh), the finite-difference Reeb
        # component (z_dot - y x_dot) matches the angle function.
        config = FlowConfig(cfl=0.1, stop_area_frac=0.5)
        plane = make_bernoulli_lemniscate(1.0, 512)
        traj = run(plane, config, output_times=[2e-4, 2.2e-4], t_end=2.4e-4)
        s1, s2 = traj.states[1], traj.states[2]
        assert s1.step // REMESH_EVERY == s2.step // REMESH_EVERY
        l1, l2 = contact.lift(s1.curve), contact.lift(s2.curve)
        dt = s2.t - s1.t
        z_dot = (l2.z - l1.z) / dt
        x_dot = (s2.curve.x - s1.curve.x) / dt
        y_mid = 0.5 * (s1.curve.y + s2.curve.y)
        reeb_component = z_dot - y_mid * x_dot
        lam_mid = 0.5 * (oracles.legendrian_angle(s1.curve) + oracles.legendrian_angle(s2.curve))
        scale = np.abs(lam_mid).max()
        assert np.abs(reeb_component - lam_mid).max() < 1e-2 * scale


class TestContactFrame:
    def test_gram_identity(self, lifted_lemniscate):
        _, lifted = lifted_lemniscate
        gram = oracles.contact_gram(lifted)
        assert np.abs(gram - np.eye(3)).max() < 1e-10

    def test_tangent_annihilates_contact_form(self, lifted_lemniscate):
        _, lifted = lifted_lemniscate
        tangent, _, _ = oracles.contact_frame(lifted)
        y = lifted.plane.y
        eta_t = tangent[:, 2] - y * tangent[:, 0]
        assert np.abs(eta_t).max() < 1e-10


class TestVariation:
    def test_constant_field_is_reeb_translation(self, lifted_lemniscate):
        _, lifted = lifted_lemniscate
        moved = oracles.legendrian_variation(lifted, np.full(lifted.plane.n, 2.0), 1e-3)
        assert np.array_equal(moved.points[:, :2], lifted.points[:, :2])
        assert np.allclose(moved.z - lifted.z, 2e-3, atol=1e-15)
        assert contact.legendrian_residual(moved) < 1e-8

    def test_residual_second_order_in_dt(self):
        base = contact.lift(make_bernoulli_lemniscate(1.0, 512))
        f = np.sin(2 * np.pi * np.arange(512) / 512)
        dt = 5e-3
        r1 = contact.legendrian_residual(oracles.legendrian_variation(base, f, dt))
        r2 = contact.legendrian_residual(oracles.legendrian_variation(base, f, dt / 2))
        assert 3.5 <= r1 / r2 <= 4.5

    def test_omitting_normal_term_first_order(self):
        # The step along xi alone: the variation without its N term.
        base = contact.lift(make_bernoulli_lemniscate(1.0, 512))
        f = np.sin(2 * np.pi * np.arange(512) / 512)
        dt = 5e-3
        r1, r2 = (contact.legendrian_residual(contact.SpaceCurve(base.plane, base.z + d * f))
                  for d in (dt, dt / 2))
        assert 1.8 <= r1 / r2 <= 2.2

    def test_field_shape_checked(self, lifted_lemniscate):
        _, lifted = lifted_lemniscate
        with pytest.raises(InvalidCurve, match="scalar field shape"):
            oracles.legendrian_variation(lifted, np.zeros(lifted.plane.n - 1), 1e-3)


class TestSerialization3D:
    """Lifted snapshots go through the one curve writer, `curves.curve_to_csv`."""

    def test_round_trip(self, tmp_path, lifted_lemniscate):
        _, lifted = lifted_lemniscate
        path = tmp_path / "curve3.csv"
        cv.curve_to_csv(lifted, path)
        back = space_curve(np.loadtxt(path, delimiter=",", skiprows=1, usecols=(1, 2, 3)))
        np.testing.assert_array_equal(back.points, lifted.points)
        again = tmp_path / "again.csv"
        cv.curve_to_csv(back, again)
        assert again.read_bytes() == path.read_bytes()


def space_curve(xyz):
    return contact.SpaceCurve(cv.PlaneCurve(xyz[:, :2]), xyz[:, 2])

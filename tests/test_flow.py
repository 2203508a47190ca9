"""Flow engine: exact-solution regressions, conservation laws, stopping."""

from types import SimpleNamespace

import numpy as np
import pytest

from conftest import angenent_oval, lemniscate_output_times, measured_radius
from eightflow import flow
from eightflow.crossings import find_self_intersections
from eightflow.curves import (
    PlaneCurve,
    curvature,
    curve_length,
    segment_lengths,
    signed_area,
    x_extent,
    y_extent,
)
from eightflow.diagnostics import compute_record, loop_split
from eightflow.errors import (
    AreaNotDecreasing,
    InvalidCurve,
    MaxStepsExceeded,
    SolveFailed,
    StepRejected,
    ValidationError,
)
from eightflow.flow import (
    Flow,
    FlowConfig,
    FlowState,
    Trajectory,
    csf_velocity,
    estimate_extinction_time,
    run,
    step,
)
from eightflow.shapes import (
    _weighted_eight,
    make_asymmetric_eight,
    make_bernoulli_lemniscate,
    make_circle,
    make_ellipse,
)
from eightflow.solitons import shrinking_circle
from eightflow.tridiag import solve_cyclic


class TestVelocity:
    def test_circle_inward_radial(self):
        for r in (1.0, 2.0):
            curve = make_circle(r, 256)
            vel = csf_velocity(curve)
            expected = -curve.points / r**2  # magnitude 1/r, pointing inward
            assert np.abs(vel - expected).max() < 1e-3

    def test_straight_segments_zero(self):
        # Stadium: two semicircular caps joined by straight sides; velocity
        # must vanish identically on the interiors of the straights.
        from eightflow.curves import PlaneCurve
        n = 256
        total = 2 * np.pi + 4.0
        pts = np.empty((n, 2))
        flat_idx = []
        for k, s in enumerate(total * np.arange(n) / n):
            if s < np.pi:
                a = -np.pi / 2 + s
                pts[k] = (1 + np.cos(a), np.sin(a))
            elif s < np.pi + 2:
                pts[k] = (1 - (s - np.pi), 1.0)
                if 0.2 < s - np.pi < 1.8:
                    flat_idx.append(k)
            elif s < 2 * np.pi + 2:
                a = np.pi / 2 + (s - np.pi - 2)
                pts[k] = (-1 + np.cos(a), np.sin(a))
            else:
                pts[k] = (-1 + (s - 2 * np.pi - 2), -1.0)
                if 0.2 < s - 2 * np.pi - 2 < 1.8:
                    flat_idx.append(k)
        vel = csf_velocity(PlaneCurve(pts))
        assert np.all(np.linalg.norm(vel[flat_idx], axis=1) < 1e-10)

    def test_grim_reaper_graph_translates(self):
        # Graph x = log cos(y) (leftward reaper) moves with velocity (-1, 0);
        # the normal part of that is kappa N, i.e. kappa = -(-1,0).N ... with
        # the reaper's own orientation kappa = (-1,0).N holds sample-wise.
        from eightflow.curves import PlaneCurve, curvature, derivatives
        ys = np.linspace(-0.85 * np.pi / 2, 0.85 * np.pi / 2, 200)
        xs = np.log(np.cos(ys))
        x_far = xs.min() - 2.0
        top = np.column_stack([np.linspace(xs[-1], x_far, 30)[1:-1],
                               np.full(28, ys[-1])])
        left = np.column_stack([np.full(28, x_far),
                                np.linspace(ys[-1], ys[0], 30)[1:-1]])
        bot = np.column_stack([np.linspace(x_far, xs[0], 30)[1:-1],
                               np.full(28, ys[0])])
        curve = PlaneCurve(np.vstack([np.column_stack([xs, ys]), top, left, bot]))
        x_u, y_u, _, _ = derivatives(curve)
        g = np.sqrt(x_u**2 + y_u**2)
        normal_dot = -(-y_u / g)  # (-1, 0) . N
        kappa = curvature(curve)
        interior = slice(5, 195)
        assert np.abs(kappa[interior] - normal_dot[interior]).max() < 1e-3


def config_fault(**values) -> type:
    """The exception type FlowConfig(**values) raises."""
    with pytest.raises(ValidationError) as exc:
        FlowConfig(**values)
    return exc.type


class TestConfig:
    # A config fault is a plain ValidationError, not a curve fault.  CFL4
    # is at most 1e-3, the largest value measured whose N=256 time error on
    # the 2:1 ellipse lies below the space error (2.6e-6 against 9.6e-6).
    def test_cfl_bounds(self):
        assert config_fault(cfl=0.0) is ValidationError
        assert config_fault(cfl=0.4) is ValidationError
        assert config_fault(cfl=0.6) is ValidationError
        assert FlowConfig(cfl=0.375).cfl == 0.375
        assert 0.0 < flow.CFL4 <= 1e-3

    def test_area_fraction_bounds(self):
        assert config_fault(stop_area_frac=1.0) is ValidationError
        assert config_fault(stop_area_frac=0.0) is ValidationError


STAGE_START = make_circle(1.0, 64)


def nan_speed(curve):
    return np.full(curve.n, np.nan)


def failing_solve(curve):
    """A cyclic solve of a NaN right-hand side, which fails as the h1 speed's
    solve can; it fails on the step's start curve, before any stage curve."""
    ones = np.ones(curve.n)
    return solve_cyclic(-ones, 4.0 * ones, -ones, np.full(curve.n, np.nan))


class TestStep:
    def test_single_step_advances(self):
        config = FlowConfig()
        state = FlowState(curve=make_circle(1.0, 64), t=0.0, step=0)
        new = step(state, config)
        assert new.t > 0 and new.step == 1
        assert curve_length(new.curve) < curve_length(state.curve)

    @pytest.mark.parametrize("speed, fourth_order, cause", [
        (nan_speed, False, InvalidCurve),
        (nan_speed, True, InvalidCurve),
        (failing_solve, False, SolveFailed),
        (failing_solve, True, SolveFailed),
    ], ids=["nan-second-order", "nan-fourth-order", "solve-fails",
            "solve-fails-fourth-order"])
    def test_failed_stage_rejected(self, speed, fourth_order, cause):
        # One attempt, no retry at a smaller dt: the stage's fault is the
        # cause.  A NaN velocity fails the stage curve's check at either
        # order; a speed's own cyclic solve (h1's) fails with SolveFailed,
        # here already on the step's start curve.
        state = FlowState(curve=STAGE_START, t=0.0, step=0)
        with pytest.raises(StepRejected) as exc:
            step(state, FlowConfig(), flow=Flow("bad", speed, fourth_order))
        assert isinstance(exc.value.__cause__, cause)

    def test_remesh_cadence(self):
        config = FlowConfig()
        state = FlowState(curve=make_ellipse(2.0, 1.0, 128), t=0.0, step=0)
        for _ in range(flow.REMESH_EVERY):
            state = step(state, config)
        seg = segment_lengths(state.curve)
        assert (seg.max() - seg.min()) / seg.mean() < 0.01

    @pytest.mark.parametrize("start, stop_area_frac", [
        (make_bernoulli_lemniscate(1.0, 256), 0.01),
        (make_asymmetric_eight(1.5, 256), 0.4),
    ], ids=["lemniscate", "asymmetric-eight"])
    def test_run_remeshes_uniform_in_one_pass(self, monkeypatch, start, stop_area_frac):
        # The remesh makes one spline pass; every remesh a run makes must
        # still leave the segment lengths within 0.5% of each other.
        spreads = []
        remesh = flow.cv.resample_arclength

        def spy(curve):
            out = remesh(curve)
            seg = segment_lengths(out)
            spreads.append((seg.max() - seg.min()) / seg.mean())
            return out

        monkeypatch.setattr(flow.cv, "resample_arclength", spy)
        traj = run(start, FlowConfig(cfl=0.1, stop_area_frac=stop_area_frac))
        assert traj.stop_reason == "area"
        assert len(spreads) == traj.states[-1].step // flow.REMESH_EVERY > 0
        assert max(spreads) <= 0.005


class TestCircleRegression:
    def test_radius_tracks_exact_solution(self, circle_runs):
        traj = circle_runs[256]
        final = traj.states[-1]
        assert abs(final.t - 0.375) < 1e-12
        r_num = measured_radius(final.curve)
        assert abs(r_num - 0.5) / 0.5 < 1e-3

    def test_halving_du_reduces_error(self, circle_runs):
        errors = {}
        for n, traj in circle_runs.items():
            r_num = measured_radius(traj.states[-1].curve)
            errors[n] = abs(r_num - shrinking_circle(1.0, traj.states[-1].t))
        assert errors[256] / errors[512] >= 3.0

    def test_default_cfl_meets_the_heun_bound(self, circle_runs):
        # At the default cfl the time error lies below the space error, and
        # the radius meets the 1e-6 bound that Heun's steps of cfl * h^2 met
        # (measured 2.8e-8; Heun read 3.0e-8).
        r_num = measured_radius(circle_runs[256].states[-1].curve)
        assert abs(r_num - 0.5) / 0.5 < 1e-6

    def test_stable_at_the_cfl_bound(self):
        # The largest steps the law allows are 75 times the default's and
        # trade accuracy for steps: they still meet the radius bound of the
        # acceptance check (measured 8.8e-4 in 7 steps).
        traj = run(make_circle(1.0, 256), FlowConfig(cfl=0.375), t_end=0.375)
        assert traj.stop_reason == "time"
        r_num = measured_radius(traj.states[-1].curve)
        assert abs(r_num - 0.5) / 0.5 < 1e-3

    def test_third_order_in_time(self):
        # At N=256 the space error is far below the time error, so halving
        # cfl divides the error by about 2^3 (measured 7.9 and 8.1).
        errors = []
        for cfl in (0.2, 0.1, 0.05):
            final = run(make_circle(1.0, 256), FlowConfig(cfl=cfl), t_end=0.375).states[-1]
            errors.append(abs(measured_radius(final.curve) - shrinking_circle(1.0, final.t)))
        assert errors[0] / errors[1] >= 6.0 and errors[1] / errors[2] >= 6.0

    def test_extinction_window(self):
        config = FlowConfig(cfl=0.2, stop_area_frac=0.02)
        traj = run(make_circle(1.0, 128), config)
        assert traj.stop_reason == "area"
        assert 0.485 <= traj.states[-1].t <= 0.5


class TestRunContract:
    def test_empty_output_times(self):
        config = FlowConfig(cfl=0.2, stop_area_frac=0.5)
        traj = run(make_circle(1.0, 64), config)
        assert len(traj.states) == 2  # initial and final only
        assert traj.states[0].t == 0.0

    def test_snapshot_at_first_step_past_request(self):
        config = FlowConfig(cfl=0.2, stop_area_frac=0.5)
        traj = run(make_circle(1.0, 64), config, output_times=[0.05])
        assert any(abs(s.t - 0.05) < 1e-10 for s in traj.states)

    def test_unreached_outputs_reported(self):
        config = FlowConfig(cfl=0.2, stop_area_frac=0.5)
        traj = run(make_circle(1.0, 64), config, output_times=[0.05, 9.0])
        assert traj.unreached_outputs == [9.0]

    def test_times_within_tolerance_share_a_snapshot(self):
        # A step that lands within 1e-12 of several requested times takes one
        # snapshot for all of them; a time 2e-12 later gets its own.
        config = FlowConfig(cfl=0.2, stop_area_frac=0.5)
        times = [0.01, 0.01 + 5e-13, 0.01 + 2e-12, 9.0]
        traj = run(make_circle(1.0, 64), config, output_times=times)
        assert [s.t for s in traj.states[:-1]] == [0.0, 0.01, 0.010000000002000001]
        assert traj.states[-1].t > 0.0100001
        assert traj.unreached_outputs == [9.0]

    @pytest.mark.parametrize("bad", [-0.005, 0, float("nan"), float("inf"), "0.01", True])
    def test_bad_output_time_raises(self, bad):
        # A time that cannot be a snapshot is refused, not silently dropped.
        with pytest.raises(ValidationError, match="output time"):
            run(make_circle(1.0, 64), FlowConfig(), output_times=[0.005, bad], t_end=0.01)

    def test_kappa_h_stop(self):
        # The curvature stop is run's: step itself takes the step.  This
        # coarse ellipse starts at max|kappa| * h_min = 8.5, past STOP_KAPPA_H.
        config = FlowConfig()
        ellipse = make_ellipse(2.0, 0.2, 16)
        traj = run(ellipse, config, output_times=[0.01])
        assert traj.stop_reason == "curvature"
        assert [s.step for s in traj.states] == [0]
        assert traj.unreached_outputs == [0.01]
        assert step(FlowState(curve=ellipse, t=0.0, step=0), config).step == 1

    def test_max_steps_exceeded(self):
        config = FlowConfig(cfl=0.2, stop_area_frac=0.01, max_steps=5)
        with pytest.raises(MaxStepsExceeded):
            run(make_circle(1.0, 64), config)

    def test_strictly_increasing_snapshot_times(self, lemniscate_run):
        times = lemniscate_run.times
        assert np.all(np.diff(times) > 0)


class TestConservation:
    def test_length_monotone(self, lemniscate_run, ellipse_run):
        for traj in (lemniscate_run, ellipse_run):
            lengths = np.array([r.length for r in traj.records])
            assert np.all(np.diff(lengths) < 0)

    def test_embedded_area_rate(self, ellipse_run):
        areas = np.array([r.area_signed for r in ellipse_run.records])
        slope = np.polyfit(ellipse_run.times, areas, 1)[0]
        assert abs(slope + 2 * np.pi) / (2 * np.pi) < 0.01

    def test_lemniscate_signed_area_stays_zero(self, lemniscate_run):
        for rec in lemniscate_run.records:
            assert abs(rec.area_signed) < 1e-6 * rec.length**2

    def test_signed_area_rate_negligible_for_eights(self, lemniscate_run):
        signed = np.array([r.area_signed for r in lemniscate_run.records])
        rates = np.abs(np.diff(signed) / np.diff(lemniscate_run.times))
        assert rates.max() < 1e-3 * 2 * np.pi

    def test_total_turning_conserved(self, lemniscate_run):
        for rec in lemniscate_run.records:
            assert abs(rec.total_curvature) < 1e-3

    def test_crossing_count_nonincreasing(self, lemniscate_run):
        counts = [r.crossing_count for r in lemniscate_run.records]
        assert all(b <= a for a, b in zip(counts, counts[1:]))
        assert counts[-1] == 1

    def test_inflections_nonincreasing(self, lemniscate_run):
        counts = [r.inflections for r in lemniscate_run.records]
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_osc_theta_nonincreasing(self, lemniscate_run):
        osc = np.array([r.osc_theta for r in lemniscate_run.records])
        assert np.all(np.diff(osc) <= 1e-6)

    def test_doubly_symmetric_loop_areas_equal(self, lemniscate_run):
        for rec in lemniscate_run.records:
            assert abs(rec.loop_a1 - rec.loop_a2) < 1e-6 * rec.length**2

    def test_mirror_symmetry_preserved(self, lemniscate_run):
        final = lemniscate_run.states[-1].curve
        n = final.n
        mirrored = final.points.copy()
        mirrored[:, 1] *= -1.0
        remapped = mirrored[(-np.arange(n)) % n]
        dist = np.abs(final.points - remapped).max()
        assert dist < 1e-6 * curve_length(final)


def oval_errors(n: int, cfl: float) -> np.ndarray:
    """|error| of the x and y half-extents and of the area rate / 2 pi of
    Angenent's oval at N nodes, evolved from t = -1 to t = -0.3."""
    start = angenent_oval(n, -1.0)
    traj = run(start, FlowConfig(cfl=cfl), t_end=0.7)
    assert traj.stop_reason == "time"
    final = traj.states[-1]
    t = final.t - 1.0
    rate = (signed_area(final.curve) - signed_area(start)) / final.t
    return np.abs([x_extent(final.curve) / 2 - np.arccosh(np.exp(-t)),
                   y_extent(final.curve) / 2 - np.arccos(np.exp(t)),
                   rate / (2 * np.pi) + 1.0])


class TestAngenentOval:
    # The circle's g and curvature are uniform; the oval's are not, so it
    # witnesses the stage's frozen g_min, the remesh and the step law.
    def test_fourth_order_in_n(self):
        # At the default cfl, N=128 -> 256 divides the errors by 17.5, 13.0
        # and 15.4.  At N=512 the time error is as large as the space error
        # (at cfl / 4 the N=256 -> 512 ratios read 14, 13 and 13), so the bound
        # there is on the value: measured 1.2e-8, 3.8e-9 and 3.9e-9.
        e128, e256, e512 = (oval_errors(n, FlowConfig().cfl) for n in (128, 256, 512))
        assert (e128 / e256 >= 8.0).all()
        assert (e512 < 3e-8).all()

    def test_third_order_in_cfl(self):
        # At N=256 the space error is below 1e-7, so halving cfl from 0.08
        # divides the errors by about 2^3 (measured 6.2 to 12.9).
        e = [oval_errors(256, cfl) for cfl in (0.08, 0.04, 0.02)]
        assert (e[0] / e[1] >= 5.0).all() and (e[1] / e[2] >= 5.0).all()


class TestExtinctionEstimate:
    def test_circle_point_estimate(self):
        config = FlowConfig(stop_area_frac=0.3)
        traj = run(make_circle(1.0, 128), config,
                   output_times=np.arange(0.02, 0.4, 0.02))
        est = estimate_extinction_time(traj)
        assert est.bracket_low == est.bracket_high  # embedded: rate pinned
        assert est.t_max == est.bracket_low
        assert abs(est.t_max - 0.5) < 1e-5  # unit circle: A = pi - 2 pi t

    def test_lemniscate_slope_and_bracket(self, lemniscate_run):
        est = estimate_extinction_time(lemniscate_run)
        # The bracket edges extrapolate the last area at slopes -4*pi and -2*pi.
        t_last = lemniscate_run.times[-1]
        area = lemniscate_run.records[-1].area_total
        assert est.bracket_low == pytest.approx(t_last + area / (4 * np.pi), rel=1e-15)
        assert est.bracket_high == pytest.approx(t_last + area / (2 * np.pi), rel=1e-15)
        assert est.t_max == 0.5 * (est.bracket_low + est.bracket_high)
        # A mid-run estimate must bracket the eventual termination time.
        k = len(lemniscate_run.states) // 2
        partial = Trajectory(
            states=lemniscate_run.states[:k],
            records=lemniscate_run.records[:k],
            stop_reason="partial",
            config=lemniscate_run.config,
        )
        est_mid = estimate_extinction_time(partial)
        t_final = lemniscate_run.times[-1]
        assert est_mid.bracket_low <= t_final <= est_mid.bracket_high

    def test_constant_area_rejected(self):
        curve = make_circle(1.0, 64)
        from eightflow.diagnostics import compute_record
        rec = compute_record(curve, 0.0)
        states = [FlowState(curve, 0.0, 0), FlowState(curve, 1.0, 1)]
        records = [rec, compute_record(curve, 1.0)]
        traj = Trajectory(states=states, records=records,
                          stop_reason="synthetic", config=FlowConfig())
        with pytest.raises(AreaNotDecreasing):
            estimate_extinction_time(traj)


class TestConvergenceOrder:
    def test_halving_du_reduces_circle_error_strongly(self):
        errors = {}
        for n in (64, 128):
            config = FlowConfig(stop_area_frac=0.3)
            traj = run(make_circle(1.0, n), config, output_times=[0.2], t_end=0.2)
            errors[n] = abs(measured_radius(traj.states[-1].curve)
                            - shrinking_circle(1.0, 0.2))
        assert errors[64] / errors[128] >= 3.0


class TestStepLaw:
    """dt = cfl * min(|A| / 4 pi, 1 / max kappa^2) is flat in N, and its
    curvature term keeps a pinching loop resolved."""

    def test_step_count_flat_in_n(self):
        config = FlowConfig(cfl=0.02, stop_area_frac=1e-4)
        steps = {}
        for n in (256, 1024):
            traj = run(make_bernoulli_lemniscate(1.0, n), config)
            assert traj.stop_reason == "area"
            steps[n] = traj.states[-1].step
        assert abs(steps[1024] - steps[256]) <= 0.05 * steps[256]

    def test_one_crossing_at_the_largest_cfl(self, monkeypatch):
        # Without the curvature term one step at cfl 0.375 cuts off the small
        # loop of this eight (4 crossings); the run checks after every step,
        # and the initial state's check reads its record.
        counts = []

        def spy(curve, found):
            counts.append(len(found))
            return loop_split(curve, found)

        monkeypatch.setattr(flow, "loop_split", spy)
        traj = run(make_asymmetric_eight(1.5, 256), FlowConfig(cfl=0.375))
        assert traj.stop_reason == "area"
        assert traj.records[0].crossing_count == 1
        assert len(counts) == traj.states[-1].step and set(counts) == {1}


def lissajous(k: int, n: int = 256) -> PlaneCurve:
    """(sin u, sin(k u + 0.3)): k - 1 self-intersections for odd k."""
    u = 2 * np.pi * np.arange(n) / n
    return PlaneCurve(np.column_stack([np.sin(u), np.sin(k * u + 0.3)]))


class TestCrossingTracker:
    """The run's area and topology check at its cadence."""

    @pytest.mark.parametrize("curve, crossings", [
        (make_circle(1.0, 256), 0),
        (make_bernoulli_lemniscate(1.0, 256), 1),
        (lissajous(3), 2),
        (lissajous(5), 4),
    ])
    def test_area_matches_record(self, monkeypatch, curve, crossings):
        # The run's area stop compares its check's area with the first
        # record's; an embedded run's check splits the area itself, any
        # other check of a recorded state reads the record.
        checks = []

        def spy(snapshot, found):
            split = loop_split(snapshot, found)
            checks.append((split[2], len(found)))
            return split

        monkeypatch.setattr(flow, "loop_split", spy)
        rec = compute_record(curve, 0.0)
        traj = run(curve, FlowConfig(), t_end=0.0)
        assert traj.stop_reason == "time"
        assert rec.crossing_count == crossings
        assert checks == ([(rec.area_total, 0)] if crossings == 0 else [])

    def test_record_keeps_the_scanned_crossing(self):
        curve = make_bernoulli_lemniscate(1.0, 256)
        (crossing,) = find_self_intersections(curve)
        rec = compute_record(curve, 0.0)
        assert rec.crossing_segments == crossing.segments
        assert rec.crossing_point == tuple(crossing.point)
        rec = compute_record(make_circle(1.0, 64), 0.0)
        assert rec.crossing_segments is None and rec.crossing_point is None

    def test_each_state_scanned_once(self, monkeypatch):
        # The benchmark's lemniscate run: a recorded state's check reads its
        # record, so only the last state is scanned twice, by its check and
        # then by its record (145 scans; a scan per check and record took 209).
        scanned, checks = [], []
        scan = flow.cx.find_self_intersections

        def counting_scan(curve):
            scanned.append(curve)
            return scan(curve)

        def spy(curve, found):
            checks.append((curve, len(found)))
            return loop_split(curve, found)

        monkeypatch.setattr(flow.cx, "find_self_intersections", counting_scan)
        monkeypatch.setattr(flow, "loop_split", spy)
        traj = run(make_bernoulli_lemniscate(1.0, 256), FlowConfig(cfl=0.1),
                   lemniscate_output_times())
        steps = traj.states[-1].step
        assert traj.stop_reason == "area" and len(traj.states) == 65
        assert len({id(c) for c in scanned}) == steps + 1
        assert len(scanned) == steps + 2 == 145
        assert checks[-1] == (traj.states[-1].curve, traj.records[-1].crossing_count)

    def test_stored_states_hold_only_their_samples(self):
        # The benchmark's lemniscate run: a state stored before the last is a
        # fresh curve over the stepped samples, holding them and its segment
        # lengths (3 N floats) but not the jet its step computed; its record
        # reads the same from it, the jet computed again.
        n = 256
        traj = run(make_bernoulli_lemniscate(1.0, n), FlowConfig(cfl=0.1),
                   lemniscate_output_times())
        assert len(traj.states) == 65
        for state, record in zip(traj.states[:-1], traj.records):
            # A cached jet would show here as a tuple of four arrays.
            held = [a for v in vars(state.curve).values()
                    for a in (v if isinstance(v, tuple) else (v,))]
            assert sum(a.nbytes for a in held) == 3 * n * 8
            assert compute_record(state.curve, state.t) == record

    def test_lost_crossing_stops_on_topology(self, monkeypatch):
        # The first record finds the eight's crossing; the run's scan then
        # finds none.  Unbalanced, |signed area| stays above the area stop.
        monkeypatch.setattr(flow, "cx", SimpleNamespace(find_self_intersections=lambda c: []))
        traj = run(_weighted_eight(1.5, 1.0, 128), FlowConfig())
        assert traj.records[0].crossing_count == 1
        assert traj.stop_reason == "topology"

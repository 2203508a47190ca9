"""Monitor reports: balanced invariants, collapse rate, isoperimetric, symmetry."""

import json

import numpy as np
import pytest

from eightflow.diagnostics import DiagnosticsRecord
from eightflow.errors import ExtinctionUnresolved, OscBelowPi
from eightflow.flow import FlowConfig, Trajectory, run
from eightflow.monitors import (
    ALPHA0,
    C1,
    THRESHOLD_PREFACTOR,
    balanced_invariant_report,
    collapse_report,
    isoperimetric_report,
    min_theta_bound,
    symmetry_collapse_check,
)
from eightflow.shapes import make_circle


def check_by_name(report, name):
    return next(c for c in report.checks if c.name == name)


@pytest.fixture(scope="module")
def circle_run():
    config = FlowConfig(cfl=0.2, stop_area_frac=0.3)
    return run(make_circle(1.0, 128), config, output_times=np.arange(0.02, 0.4, 0.02))


class TestBalancedReport:
    def test_lemniscate_all_pass(self, lemniscate_run):
        rep = balanced_invariant_report(lemniscate_run)
        assert rep.passed, rep.to_text()

    def test_circle_flagged_not_a_figure_eight(self, circle_run):
        rep = balanced_invariant_report(circle_run)
        crossing_check = check_by_name(rep, "crossing_count")
        assert not crossing_check.passed
        assert crossing_check.note == "NotAFigureEight"
        # The embedded rate -2*pi still sits inside the admissible window.
        assert check_by_name(rep, "area_rate_window").passed

    def test_injected_area_drift_fails(self, lemniscate_run):
        doctored = []
        for k, rec in enumerate(lemniscate_run.records):
            d = rec.__dict__.copy()
            d["area_signed"] = 1e-2 * k
            doctored.append(DiagnosticsRecord(**d))
        traj = Trajectory(
            states=lemniscate_run.states,
            records=doctored,
            stop_reason="synthetic",
            config=lemniscate_run.config,
        )
        rep = balanced_invariant_report(traj)
        assert not check_by_name(rep, "signed_area_over_L2").passed


class TestCollapseReport:
    def test_constants(self):
        assert C1 == pytest.approx(1.0 / (32 * np.pi), rel=1e-15)
        # -log(1 - 1/(32 pi)) / log 2, reported to 4 s.f. as 0.01442.
        assert ALPHA0 == pytest.approx(0.014423, abs=1e-6)

    def test_lemniscate_report(self, lemniscate_run):
        alphas = (0.0, 0.005, 0.01, 0.0144)
        rep = collapse_report(lemniscate_run, alphas=alphas)
        assert check_by_name(rep, "ell_monotone_nonincreasing").passed
        assert check_by_name(rep, "alpha0").value == ALPHA0
        # alpha = 0 makes the sup the largest resolved ell (the initial one).
        ells = [r.x_extent for r in lemniscate_run.records]
        assert check_by_name(rep, "sup ell/tau^0").value == pytest.approx(max(ells))
        sups = [check_by_name(rep, f"sup ell/tau^{a:g}") for a in alphas]
        for sup in sups:
            assert np.isfinite(sup.value) and sup.passed
            assert sup.note == "resolved range only"
        names = [c.name for c in rep.checks]
        assert names == ["ell_monotone_nonincreasing", "alpha0",
                         *(c.name for c in sups),
                         "contraction_bound_c2_penalty",
                         "contraction_bound_c2_literal",
                         "contraction_convention_matching",
                         "asymptotic_caveat"], "expected resolved tau -> tau/2 pairs"
        assert "asymptotic" in check_by_name(rep, "asymptotic_caveat").value
        text = rep.to_text()
        assert "certified" in text or "resolved" in text

    def test_unresolved_extinction_rejected(self, lemniscate_run):
        # Truncated early, the remaining-area bracket is far too wide.
        k = 8
        truncated = Trajectory(
            states=lemniscate_run.states[:k],
            records=lemniscate_run.records[:k],
            stop_reason="synthetic",
            config=lemniscate_run.config,
        )
        with pytest.raises(ExtinctionUnresolved):
            collapse_report(truncated)


class TestIsoperimetricReport:
    def test_threshold_prefactor_value(self):
        # pi / (4 sqrt(3) ln 2) evaluated independently: 0.654190...
        assert THRESHOLD_PREFACTOR == pytest.approx(0.654190, abs=1e-5)

    def test_lemniscate_report(self, lemniscate_run):
        rep = isoperimetric_report(lemniscate_run, m=1.0, alpha=0.01)
        assert check_by_name(rep, "Q_at_least_4pi").passed
        hit = check_by_name(rep, "exists tau: Q >= 1 tau^-0.01")
        assert hit.passed  # Q(tau0) ~ 27.5 already beats M tau^-alpha ~ 1
        assert check_by_name(rep, "min_theta_rise_vs_bound").passed

    def test_circle_reports_non_blow_up(self, circle_run):
        rep = isoperimetric_report(circle_run, m=1.0, alpha=0.01)
        assert check_by_name(rep, "Q_at_least_4pi").passed
        q_max = max(r.isoperimetric_q for r in circle_run.records)
        assert q_max == pytest.approx(4 * np.pi, rel=1e-3)
        note = check_by_name(rep, "Q_blow_up").note
        assert "no blow-up" in note

    def test_osc_below_pi_rejected(self, lemniscate_run):
        doctored = []
        for rec in lemniscate_run.records:
            d = rec.__dict__.copy()
            d["osc_theta"] = 3.0  # < pi
            doctored.append(DiagnosticsRecord(**d))
        traj = Trajectory(
            states=lemniscate_run.states,
            records=doctored,
            stop_reason="synthetic",
            config=lemniscate_run.config,
        )
        with pytest.raises(OscBelowPi):
            isoperimetric_report(traj, m=1.0, alpha=0.01)

    def test_min_theta_read_from_records(self, lemniscate_run):
        # Falling record minima with unchanged snapshot curves: only a report
        # that reads the records sees the rise fall short of the bound.
        doctored = []
        for k, rec in enumerate(lemniscate_run.records):
            d = rec.__dict__.copy()
            d["theta_min"] -= k
            doctored.append(DiagnosticsRecord(**d))
        traj = Trajectory(
            states=lemniscate_run.states,
            records=doctored,
            stop_reason="synthetic",
            config=lemniscate_run.config,
        )
        rise = check_by_name(isoperimetric_report(traj, m=1.0, alpha=0.01),
                             "min_theta_rise_vs_bound")
        assert rise.passed is False and rise.value < 0

    def test_min_theta_bound_values(self):
        # Independent evaluation: (sqrt(pi)/4) * e^-1 = 0.44311346 * 0.36787944
        # = 0.16301233 at L = 1, tau = 1.
        assert min_theta_bound(1.0, 1.0) == pytest.approx(0.1630123, abs=1e-6)
        assert min_theta_bound(1.0, 1e-4) < 1e-300  # exponential domination


class TestSymmetryCheck:
    def test_lemniscate_crossing_stationary(self, lemniscate_run):
        rep = symmetry_collapse_check(lemniscate_run)
        drift = check_by_name(rep, "crossing_max_displacement")
        assert drift.value < 1e-6 * lemniscate_run.records[0].length
        assert check_by_name(rep, "crossing_x_monotone").value == "stationary"
        assert check_by_name(rep, "y_extent_decay").value < 1.0

    def test_asymmetric_crossing_monotone(self, asymmetric_run):
        rep = symmetry_collapse_check(asymmetric_run)
        direction = check_by_name(rep, "crossing_x_monotone")
        assert direction.passed
        assert direction.value == "left"  # drifts toward the convex loop


class TestReportEmission:
    def test_json_shape(self, lemniscate_run):
        rep = balanced_invariant_report(lemniscate_run)
        payload = json.loads(rep.to_json())
        assert payload["title"]
        assert isinstance(payload["pass"], bool)
        for check in payload["checks"]:
            assert {"name", "value", "bound", "pass"} <= set(check)

    def test_text_alignment(self, lemniscate_run):
        text = balanced_invariant_report(lemniscate_run).to_text()
        lines = text.splitlines()
        assert lines[0].startswith("==")
        assert any("PASS" in line for line in lines)

"""Run directory persistence and the command-line interface."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eightflow
from eightflow import cli, runio, solitons
from eightflow.cli import _GENERATORS, main
from eightflow.errors import RowCountMismatch, ValidationError
from eightflow.flow import FlowConfig, run
from eightflow.shapes import make_bernoulli_lemniscate


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    config = FlowConfig(cfl=0.2, stop_area_frac=0.25)
    traj = run(make_bernoulli_lemniscate(1.0, 128), config,
               output_times=[0.02, 0.04, 0.06])
    out = tmp_path_factory.mktemp("runs") / "lem"
    runio.save_run(traj, out)
    return traj, out


@pytest.fixture(scope="module")
def stored_reaper_run(tmp_path_factory):
    """A stored lemniscate run deep enough for the matched reaper comparison."""
    run_dir = tmp_path_factory.mktemp("runs") / "cmp"
    assert main(["evolve", "--generator", "lemniscate", "--n", "128",
                 "--out-dir", str(run_dir), "--stop-area-frac", "0.05",
                 "--cfl", "0.2", "--times",
                 ",".join(str(t) for t in np.arange(0.005, 0.12, 0.005))]) == 0
    return run_dir


@pytest.fixture
def reaper_run(stored_reaper_run, tmp_path):
    """A fresh copy of the stored run; compare-reaper rewrites its diagnostics."""
    return shutil.copytree(stored_reaper_run, tmp_path / "cmp")


class InProcessPool:
    """A stand-in for ProcessPoolExecutor that records its worker count and
    maps in this process."""

    workers: list[int] = []

    def __init__(self, max_workers):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def margin_column(run_dir) -> np.ndarray:
    lines = (run_dir / "diagnostics.csv").read_text().splitlines()
    assert lines[0].split(",").count("reaper_margin") == 1
    return np.array([float(line.rsplit(",", 1)[1]) for line in lines[1:]])


class TestRunIO:
    def test_round_trip(self, small_run):
        traj, out = small_run
        back = runio.load_run(out)
        assert back.stop_reason == traj.stop_reason
        assert back.flow_kind == traj.flow_kind
        assert len(back.states) == len(traj.states)
        for a, b in zip(traj.states, back.states):
            assert a.t == b.t
            np.testing.assert_array_equal(a.curve.points, b.curve.points)

    def test_diagnostics_columns(self, small_run):
        _, out = small_run
        header = (out / "diagnostics.csv").read_text().splitlines()[0]
        assert header == ("t,L,A_signed,A_total,total_curvature,osc_theta,"
                          "inflections,crossings,ell,Q")

    def test_determinism_byte_identical(self, small_run, tmp_path):
        traj, out = small_run
        config = FlowConfig(cfl=0.2, stop_area_frac=0.25)
        again = run(make_bernoulli_lemniscate(1.0, 128), config,
                    output_times=[0.02, 0.04, 0.06])
        second = tmp_path / "again"
        runio.save_run(again, second)
        assert (second / "diagnostics.csv").read_bytes() == \
               (out / "diagnostics.csv").read_bytes()

    def test_lifted_layout(self, small_run, tmp_path):
        from eightflow.contact import legendrian_residual, lift_trajectory
        traj, _ = small_run
        lifted = lift_trajectory(traj, 0.5)
        out = tmp_path / "lifted"
        runio.save_lifted_run(traj, lifted, [legendrian_residual(c) for c in lifted], out)
        header = (out / "diagnostics.csv").read_text().splitlines()[0]
        assert header.endswith(",residual")
        assert (out / "snapshots" / "snap_0000.csv").read_text().startswith("u,x,y,z")


class TestMalformedMetadata:
    @pytest.mark.parametrize("damage", ["not-json", "no-snapshot-steps", "short-snapshot-steps",
                                        "unknown-config-field", "str-time", "nan-time",
                                        "decreasing-times", "str-step"])
    def test_rejected(self, small_run, tmp_path, capsys, damage):
        run_dir = shutil.copytree(small_run[1], tmp_path / "run")
        path = run_dir / "metadata.json"
        meta = json.loads(path.read_text())
        if damage == "no-snapshot-steps":
            del meta["snapshot_steps"]
        elif damage == "short-snapshot-steps":
            meta["snapshot_steps"] = meta["snapshot_steps"][:1]
        elif damage == "unknown-config-field":
            meta["config"]["bogus"] = 1
        elif damage == "str-time":
            meta["snapshot_times"][1] = "0.02"
        elif damage == "nan-time":
            meta["snapshot_times"][1] = float("nan")
        elif damage == "decreasing-times":
            meta["snapshot_times"][1:] = meta["snapshot_times"][:0:-1]
        elif damage == "str-step":
            meta["snapshot_steps"][1] = str(meta["snapshot_steps"][1])
        path.write_text("{" if damage == "not-json" else json.dumps(meta))
        with pytest.raises(ValidationError):
            runio.load_run(run_dir)
        for argv in (["lift", str(run_dir)],
                     ["report", str(run_dir), "--monitor", "balanced"],
                     ["compare-reaper", str(run_dir)]):
            assert main(argv) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("ERROR ValidationError:")


class TestCLI:
    def test_generate_and_reload(self, tmp_path):
        out = tmp_path / "lem.csv"
        assert main(["generate", "lemniscate", "--a", "1", "--n", "128",
                     "--out", str(out)]) == 0
        from eightflow.curves import curve_from_csv, signed_area
        assert abs(signed_area(curve_from_csv(out))) < 1e-10

    def test_generate_circle_json(self, tmp_path):
        out = tmp_path / "circle.json"
        assert main(["generate", "circle", "--r", "1", "--n", "64", "--out", str(out)]) == 0
        from eightflow.curves import curve_from_json, signed_area
        assert abs(signed_area(curve_from_json(out)) - np.pi) < 1e-3
        # evolve reads the file by the same suffix rule.
        assert main(["evolve", "--curve", str(out), "--t-end", "1e-4",
                     "--out-dir", str(tmp_path / "run")]) == 0

    def test_generate_too_small_exits_1(self, tmp_path, capsys):
        code = main(["generate", "lemniscate", "--n", "8",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("ERROR InvalidCurve:")

    def test_generate_parameter_it_does_not_read_exits_1(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(["generate", "circle", "--a", "5", "--ratio", "9", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "ERROR ValidationError: unknown circle parameter 'a'"]
        assert not out.exists()

    def test_evolve_lift_report_pipeline(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        code = main([
            "evolve", "--generator", "lemniscate", "--a", "1", "--n", "128",
            "--flow", "csf", "--out-dir", str(run_dir),
            "--stop-area-frac", "0.25", "--cfl", "0.2",
            "--times", "0.02,0.04,0.06", "--monitors", "balanced,symmetry",
        ])
        assert code == 0
        assert (run_dir / "report_balanced.json").exists()
        payload = json.loads((run_dir / "report_balanced.json").read_text())
        assert payload["pass"] is True

        assert main(["lift", str(run_dir), "--z-base", "2.5"]) == 0
        lifted = run_dir / "lifted" / "snapshots" / "snap_0000.csv"
        first_row = lifted.read_text().splitlines()[1].split(",")
        assert float(first_row[3]) == 2.5

        assert main(["report", str(run_dir), "--monitor", "symmetry"]) == 0
        out = capsys.readouterr().out
        assert "symmetric collapse" in out

    def test_lift_of_circle_run_rejected(self, tmp_path, capsys):
        run_dir = tmp_path / "circle_run"
        assert main(["evolve", "--generator", "circle", "--r", "1", "--n", "64",
                     "--out-dir", str(run_dir), "--t-end", "0.02",
                     "--cfl", "0.2"]) == 0
        code = main(["lift", str(run_dir)])
        assert code == 1
        assert "NotBalanced" in capsys.readouterr().err

    @pytest.mark.parametrize("out", [None, "L"], ids=["default", "out-dir"])
    def test_lift_into_a_run_refused(self, small_run, tmp_path, capsys, monkeypatch, out):
        run_dir = shutil.copytree(small_run[1], tmp_path / "run")
        out_flag = ["--out-dir", str(tmp_path / out)] if out else []
        assert main(["lift", str(run_dir), *out_flag]) == 0
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        capsys.readouterr()
        monkeypatch.setattr(runio, "load_run", lambda *args: pytest.fail("loaded"))
        assert main(["lift", str(run_dir), *out_flag]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR ValidationError:")
        assert "already holds a run" in err[0]
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("flags, last_line", [
        ([], "push_distance=-0.357625 final_rightmost_x=-0.210015 pushed_past=n/a"),
        (["--c0", "30", "--tau0", "0.05"],
         "push_distance=-0.3834194 final_rightmost_x=-0.0825661 pushed_past=n/a"),
        (["--c0", "1", "--tau0", "0.2"],
         "push_distance=0.1977663 final_rightmost_x=-0.547102 pushed_past=True"),
    ], ids=["matched", "c0-30", "c0-1"])
    def test_compare_reaper_pushed_past(self, reaper_run, capsys, flags, last_line):
        # A barrier that moves right (push <= 0) pushes nothing past it.
        assert main(["compare-reaper", str(reaper_run), *flags]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == last_line

    def test_compare_reaper_appends_margin(self, reaper_run, capsys):
        assert main(["compare-reaper", str(reaper_run)]) == 0
        header = (reaper_run / "diagnostics.csv").read_text().splitlines()[0]
        assert header.endswith(",reaper_margin")
        assert "all_positive=True" in capsys.readouterr().out

    def test_compare_reaper_explicit_parameters(self, reaper_run, capsys):
        traj = runio.load_run(reaper_run)
        reaper = solitons.GrimReaper(c0=30.0, tau0=0.05)
        cmp_ = solitons.barrier_comparison(traj, reaper)
        assert 1 < len(cmp_.margins) < len(traj.states)
        assert main(["compare-reaper", str(reaper_run),
                     "--c0", "30", "--tau0", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "matched reaper" not in out
        assert f"push_distance={cmp_.push:.7g}" in out
        padded = np.full(len(traj.states), np.nan)
        padded[:len(cmp_.margins)] = cmp_.margins
        np.testing.assert_array_equal(margin_column(reaper_run), padded)

    @pytest.mark.parametrize("flag", [["--c0", "30"], ["--tau0", "0.05"]])
    def test_compare_reaper_needs_both_parameters(self, reaper_run, capsys, flag):
        before = (reaper_run / "diagnostics.csv").read_bytes()
        assert main(["compare-reaper", str(reaper_run), *flag]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR ValidationError")
        assert (reaper_run / "diagnostics.csv").read_bytes() == before

    @pytest.mark.parametrize("flags", [["--c0", "nan", "--tau0", "0.2"],
                                       ["--c0", "inf", "--tau0", "0.2"],
                                       ["--c0", "1", "--tau0", "nan"],
                                       ["--c0", "1", "--tau0", "inf"]])
    def test_compare_reaper_non_finite_parameters(self, reaper_run, capsys, flags):
        before = (reaper_run / "diagnostics.csv").read_bytes()
        assert main(["compare-reaper", str(reaper_run), *flags]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR InvalidCurve:")
        assert captured.out == ""
        assert (reaper_run / "diagnostics.csv").read_bytes() == before

    def test_compare_reaper_twice_keeps_one_column(self, reaper_run):
        assert main(["compare-reaper", str(reaper_run)]) == 0
        first = (reaper_run / "diagnostics.csv").read_bytes()
        assert main(["compare-reaper", str(reaper_run)]) == 0
        assert (reaper_run / "diagnostics.csv").read_bytes() == first
        assert main(["compare-reaper", str(reaper_run),
                     "--c0", "30", "--tau0", "0.05"]) == 0
        margins = margin_column(reaper_run)
        assert np.isnan(margins[-1])

    def test_margin_row_count_mismatch(self, reaper_run, capsys):
        rows = len(runio.load_run(reaper_run).states)
        with pytest.raises(RowCountMismatch):
            runio.append_margin_column(reaper_run, np.zeros(rows + 1))
        assert issubclass(RowCountMismatch, ValidationError)
        path = reaper_run / "diagnostics.csv"
        path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
        assert main(["compare-reaper", str(reaper_run)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR RowCountMismatch")

    def test_runspec_file_with_flag_override(self, tmp_path):
        spec = {
            "generator": {"name": "circle", "r": 1.0, "n": 64},
            "flow": "csf",
            "config": {"cfl": 0.2, "stop_area_frac": 0.5},
            "t_end": 0.01,
            "out_dir": str(tmp_path / "from_spec"),
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        override = tmp_path / "overridden"
        assert main(["evolve", "--spec", str(spec_path),
                     "--out-dir", str(override)]) == 0
        assert override.exists()
        assert not Path(spec["out_dir"]).exists()

    @pytest.mark.parametrize("pool", [False, True], ids=["serial", "pool"])
    def test_several_specs_print_every_summary_in_order(self, tmp_path, capsys,
                                                       monkeypatch, pool):
        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(InProcessPool, "workers", [])
        runs = [("circle", {"t_end": 1e-3}, "time"),
                ("lemniscate", {"config": {"stop_area_frac": 0.9}}, "area")]
        specs = []
        for k, (name, extra, _) in enumerate(runs):
            path = tmp_path / f"spec{k}.json"
            path.write_text(json.dumps({"generator": {"name": name, "n": 64},
                                        "out_dir": str(tmp_path / f"job{k}"), **extra}))
            specs.append(str(path))
        assert main(["evolve", "--spec", *specs, "--jobs", "2" if pool else "1"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith(("stop_reason=", "run complete:"))]
        assert lines == [f"stop_reason={runs[0][2]}", f"run complete: {tmp_path / 'job0'}",
                         f"stop_reason={runs[1][2]}", f"run complete: {tmp_path / 'job1'}"]
        assert InProcessPool.workers == ([2] if pool else [])

    def test_parallel_specs(self, tmp_path):
        specs = []
        for k in range(2):
            spec = {
                "generator": {"name": "circle", "r": 1.0, "n": 64},
                "config": {"cfl": 0.2, "stop_area_frac": 0.5},
                "t_end": 0.005,
                "out_dir": str(tmp_path / f"job{k}"),
            }
            path = tmp_path / f"spec{k}.json"
            path.write_text(json.dumps(spec))
            specs.append(str(path))
        assert main(["evolve", "--spec", *specs, "--jobs", "2"]) == 0
        assert (tmp_path / "job0" / "metadata.json").exists()
        assert (tmp_path / "job1" / "metadata.json").exists()

    def test_indefinite_flow_reproduces_csf_diagnostics(self, tmp_path):
        outs = []
        for kind in ("csf", "indefinite"):
            out = tmp_path / kind
            assert main(["evolve", "--generator", "lemniscate", "--n", "128",
                         "--flow", kind, "--out-dir", str(out),
                         "--stop-area-frac", "0.5", "--cfl", "0.2",
                         "--times", "0.01,0.02"]) == 0
            outs.append((out / "diagnostics.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_unknown_generator_in_spec_exits_1(self, tmp_path, capsys):
        spec = {"generator": {"name": "nonsense"}, "out_dir": str(tmp_path / "never")}
        path = tmp_path / "bad_spec.json"
        path.write_text(json.dumps(spec))
        assert main(["evolve", "--spec", str(path)]) == 1
        assert "ERROR ValidationError" in capsys.readouterr().err

    @pytest.mark.parametrize("generator", sorted(_GENERATORS))
    def test_spec_generator_defaults_match_flags(self, tmp_path, generator):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"generator": {"name": generator},
                                         "t_end": 1e-6,
                                         "out_dir": str(tmp_path / "spec")}))
        assert main(["evolve", "--spec", str(spec_path)]) == 0
        assert main(["evolve", "--generator", generator, "--t-end", "1e-6",
                     "--out-dir", str(tmp_path / "flags")]) == 0
        first = Path("snapshots") / "snap_0000.csv"
        assert (tmp_path / "spec" / first).read_bytes() == \
               (tmp_path / "flags" / first).read_bytes()

    def test_generator_flags_override_spec_generator(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"generator": {"name": "circle", "n": 64, "r": 1.0},
                                         "t_end": 1e-6, "out_dir": str(tmp_path / "never")}))
        out = tmp_path / "run"
        assert main(["evolve", "--spec", str(spec_path), "--n", "128", "--r", "2",
                     "--out-dir", str(out)]) == 0
        for snap in (out / "snapshots").glob("snap_*.csv"):
            xy = np.loadtxt(snap, delimiter=",", skiprows=1)[:, 1:]
            assert xy.shape == (128, 2)
            np.testing.assert_allclose(np.hypot(*xy.T), 2.0, rtol=1e-3)

    @pytest.mark.parametrize("text", [
        "{not json",                                                  # not JSON
        "[1, 2]",                                                     # not an object
        '{"generator": {"name": "circle", "n": "64"}}',               # string n
        '{"generator": {"name": "circle"}, "config": {"cfl": "0.1"}}',  # string cfl
        '{"generator": {"name": "circle", "bogus": 3}}',              # unknown key
        '{"generator": {"name": "circle", "a": 5}}',                  # not a circle parameter
    ], ids=["not-json", "not-object", "string-n", "string-cfl", "unknown-generator-key",
            "parameter-the-generator-does-not-read"])
    def test_malformed_spec_exits_1(self, tmp_path, capsys, text):
        path = tmp_path / "spec.json"
        path.write_text(text)
        out = tmp_path / "never"
        assert main(["evolve", "--spec", str(path), "--t-end", "1e-6",
                     "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR ValidationError:")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--cfl", "0.05"], ["--flow", "h1"],
                                       ["--monitors", "balanced"], ["--t-end", "1"],
                                       ["--n", "128"], ["--curve", "x.csv"],
                                       ["--times", "0.01"]])
    def test_run_flags_with_several_specs_exit_1(self, tmp_path, capsys, flags):
        specs = []
        for k in range(2):
            path = tmp_path / f"spec{k}.json"
            path.write_text(json.dumps({"generator": {"name": "circle", "n": 64},
                                        "t_end": 1e-6, "out_dir": str(tmp_path / f"job{k}")}))
            specs.append(str(path))
        assert main(["evolve", "--spec", *specs, *flags]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"ERROR ValidationError: {flags[0]} cannot combine with multiple specs"]
        assert not (tmp_path / "job0").exists()

    @pytest.mark.parametrize("entry", [
        {"t_end": "0.01"},
        {"t_end": -1.0},
        {"t_end": 0},
        {"t_end": float("nan")},
        {"t_end": float("inf")},
        {"output_times": "0.01"},
        {"output_times": [0.01, "x"]},
        {"config": [1, 2]},
        {"out_dir": 5},
        {"curve_file": 5},
        {"M": "1"},
        {"alphas": "0.01"},
        {"monitors": "balanced"},
        {"cfl": 0.01},
        {"monitor": ["balanced"]},
        {"output_times": [0.005, -0.005]},
        {"output_times": [0]},
        {"output_times": [float("nan")]},
        {"curve_file": "circle.csv"},
        {"config": {"cfl": 0.6}},
        {"M": float("nan")},
        {"M": -1.0},
        {"alpha": -1.0},
        {"alphas": [float("nan")]},
    ], ids=["string-t_end", "negative-t_end", "zero-t_end", "nan-t_end", "inf-t_end",
            "string-output_times", "string-output_time",
            "list-config", "number-out_dir", "number-curve_file", "string-M",
            "string-alphas", "string-monitors", "top-level-cfl", "misspelled-monitors",
            "negative-output_time", "zero-output_time", "nan-output_time",
            "curve_file-and-generator", "out-of-range-cfl", "nan-M", "negative-M",
            "negative-alpha", "nan-alphas-entry"])
    def test_bad_spec_value_exits_1_before_the_run(self, tmp_path, capsys, monkeypatch,
                                                    entry):
        monkeypatch.chdir(tmp_path)   # a number out_dir would be a relative path
        spec = {"generator": {"name": "circle", "n": 64}, "t_end": 1e-6,
                "out_dir": "never", **entry}
        Path("spec.json").write_text(json.dumps(spec))
        assert main(["evolve", "--spec", "spec.json"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR ValidationError:")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]

    @pytest.mark.parametrize("t_end", ["-1", "nan"])
    def test_bad_t_end_flag_exits_1(self, tmp_path, capsys, t_end):
        out = tmp_path / "never"
        assert main(["evolve", "--generator", "circle", "--n", "64", f"--t-end={t_end}",
                     "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR ValidationError: t_end")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--times=-0.005,nan,0.005"],
                                       ["--curve", "circle.csv", "--n", "128"]],
                             ids=["bad-times", "curve-and-generator-parameter"])
    def test_flag_that_cannot_apply_exits_1(self, tmp_path, capsys, monkeypatch, flags):
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "circle", "--n", "64", "--out", "circle.csv"]) == 0
        capsys.readouterr()
        argv = ["evolve", "--t-end", "0.01", "--out-dir", "never", *flags]
        if "--curve" not in flags:
            argv += ["--generator", "circle", "--n", "64"]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR ValidationError:")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["circle.csv"]

    def test_step_budget_exits_2(self, tmp_path, capsys):
        out = tmp_path / "never"
        assert main(["evolve", "--generator", "circle", "--n", "64", "--t-end", "1e-3",
                     "--max-steps", "1", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "ERROR MaxStepsExceeded: no stopping criterion after 1 steps"]
        assert not out.exists()

    def test_non_number_in_times_exits_1(self, tmp_path, capsys):
        out = tmp_path / "never"
        assert main(["evolve", "--generator", "circle", "--n", "64", "--t-end", "1e-3",
                     "--times", "1e-4,x", "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["ERROR ValidationError: --times must be comma-separated numbers, "
                       "not '1e-4,x'"]
        assert not out.exists()

    def test_non_number_in_alphas_exits_1(self, small_run, tmp_path, capsys):
        out = tmp_path / "never.json"
        assert main(["report", str(small_run[1]), "--monitor", "collapse",
                     "--alphas", "0.01,x", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["ERROR ValidationError: --alphas must be comma-separated numbers, "
                       "not '0.01,x'"]
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--monitor", "isoperimetric", "--M=-1"],
                                       ["--monitor", "isoperimetric", "--M", "nan"],
                                       ["--monitor", "isoperimetric", "--alpha=-1"],
                                       ["--monitor", "collapse", "--alphas", "0.01,nan"]],
                             ids=["negative-M", "nan-M", "negative-alpha", "nan-alphas"])
    def test_out_of_range_monitor_flag_exits_1(self, small_run, tmp_path, capsys, flags):
        run_dir, out = small_run[1], tmp_path / "never.json"
        before = sorted(run_dir.iterdir())
        assert main(["report", str(run_dir), *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR ValidationError:")
        assert not out.exists() and sorted(run_dir.iterdir()) == before

    def test_out_of_range_cfl_flag_exits_1(self, tmp_path, capsys):
        out = tmp_path / "never"
        assert main(["evolve", "--generator", "circle", "--n", "64", "--cfl", "0.6",
                     "--t-end", "1e-6", "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "ERROR ValidationError: cfl 0.6 outside (0, 0.5]"]
        assert not out.exists()

    def test_out_dir_holding_a_run_refused_before_stepping(self, tmp_path, capsys,
                                                           monkeypatch):
        out = tmp_path / "run"
        argv = ["evolve", "--generator", "circle", "--n", "64", "--t-end", "1e-6",
                "--out-dir", str(out)]
        assert main(argv) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        capsys.readouterr()
        monkeypatch.setattr(cli, "run", lambda *args, **kwargs: pytest.fail("stepped"))
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR ValidationError:")
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_jobs_capped_at_spec_count(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(InProcessPool, "workers", [])
        specs = []
        for k in range(2):
            path = tmp_path / f"spec{k}.json"
            path.write_text(json.dumps({"generator": {"name": "circle", "n": 64},
                                        "t_end": 1e-6, "out_dir": str(tmp_path / f"job{k}")}))
            specs.append(str(path))
        assert main(["evolve", "--spec", *specs, "--jobs", "5"]) == 0
        assert InProcessPool.workers == [2]
        assert (tmp_path / "job1" / "metadata.json").exists()

    def test_several_specs_checked_before_any_run(self, tmp_path, capsys):
        specs = []
        for k, t_end in enumerate([1e-6, "1e-6"]):
            path = tmp_path / f"spec{k}.json"
            path.write_text(json.dumps({"generator": {"name": "circle", "n": 64},
                                        "t_end": t_end, "out_dir": str(tmp_path / f"job{k}")}))
            specs.append(str(path))
        assert main(["evolve", "--spec", *specs]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR ValidationError:")
        assert not (tmp_path / "job0").exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exit_1(self, tmp_path, capsys, jobs):
        out = tmp_path / "never"
        assert main(["evolve", "--generator", "circle", "--n", "64", "--t-end", "1e-6",
                     "--out-dir", str(out), "--jobs", jobs]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"ERROR ValidationError: --jobs must be at least 1, not {jobs}"]
        assert not out.exists()

    def test_evolve_malformed_curve_exits_1(self, tmp_path, capsys):
        path = tmp_path / "short_row.csv"
        path.write_text("u,x,y\n0,1\n")
        assert main(["evolve", "--curve", str(path),
                     "--out-dir", str(tmp_path / "never")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR InvalidCurve:")
        assert not (tmp_path / "never").exists()

    def test_evolve_malformed_json_curve_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        for text in ("{", "[[1, 2]]", '{"n": 2}', '{"points": [["a", "b"]]}'):
            path.write_text(text)
            assert main(["evolve", "--curve", str(path),
                         "--out-dir", str(tmp_path / "never")]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("ERROR InvalidCurve:")
            assert not (tmp_path / "never").exists()

    def test_missing_run_dir_exits_3(self, tmp_path, capsys):
        assert main(["lift", str(tmp_path / "no_such_run")]) == 3
        assert capsys.readouterr().err.startswith("ERROR FileNotFoundError")


class TestImportGraph:
    def test_cli_import_skips_scipy_interpolate_and_special(self):
        # Each costs import time and resident memory in every CLI process.
        src = str(Path(eightflow.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = ("import sys, eightflow.cli; "
                "print(sorted(m for m in ('scipy.interpolate', 'scipy.special') "
                "if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

"""Run directory persistence and the command-line interface."""

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eightflow
from eightflow import cli, crossings, runio, solitons
from eightflow.cli import _GENERATORS, RunSpec, main
from eightflow.curves import y_extent
from eightflow.errors import ValidationError
from eightflow.flow import FlowConfig, Trajectory, run
from eightflow.gradients import FLOWS
from eightflow.shapes import make_bernoulli_lemniscate, make_circle


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    config = FlowConfig(cfl=0.2, stop_area_frac=0.25)
    traj = run(make_bernoulli_lemniscate(1.0, 128), config,
               output_times=[0.02, 0.04, 0.06])
    out = tmp_path_factory.mktemp("runs") / "lem"
    runio.save_run(traj, out)
    return traj, out


@pytest.fixture(scope="module")
def curve_csv(tmp_path_factory):
    """Curve CSV files that `generate` wrote: an N=64 circle and an N=128 lemniscate."""
    out = tmp_path_factory.mktemp("curves")
    for name, n in (("circle", 64), ("lemniscate", 128)):
        assert main(["generate", name, "--n", str(n), "--out", str(out / f"{name}.csv")]) == 0
    return {name: str(out / f"{name}.csv") for name in ("circle", "lemniscate")}


@pytest.fixture(scope="module")
def stored_reaper_run(tmp_path_factory, curve_csv):
    """A stored lemniscate run at the default cfl, deep enough for the
    matched reaper comparison, with the report of every monitor."""
    run_dir = tmp_path_factory.mktemp("runs") / "cmp"
    assert main(["evolve", "--curve", curve_csv["lemniscate"],
                 "--out-dir", str(run_dir), "--stop-area-frac", "0.05", "--times",
                 ",".join(str(t) for t in np.arange(0.005, 0.12, 0.005)),
                 "--monitors", ",".join(cli._MONITORS)]) == 0
    return run_dir


@pytest.fixture
def reaper_run(stored_reaper_run, tmp_path):
    """A fresh copy of the stored run; compare-reaper rewrites its diagnostics."""
    return shutil.copytree(stored_reaper_run, tmp_path / "cmp")


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

    def test_diagnostics_cells_are_the_named_fields(self, small_run):
        # Cell k of every row is the %.17g text of the field header k names.
        traj, out = small_run
        field = {"t": "t", "L": "length", "A_signed": "area_signed", "A_total": "area_total",
                 "total_curvature": "total_curvature", "osc_theta": "osc_theta",
                 "inflections": "inflections", "crossings": "crossing_count",
                 "ell": "x_extent", "Q": "isoperimetric_q"}
        header, *rows = (out / "diagnostics.csv").read_text().splitlines()
        assert len(rows) == len(traj.records)
        for row, rec in zip(rows, traj.records):
            assert row.split(",") == ["%.17g" % getattr(rec, field[name])
                                      for name in header.split(",")]

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
                                        "decreasing-times", "str-step", "stored-cfl4",
                                        "no-records", "no-digests", "short-digests",
                                        "stale-last-record", "old-records",
                                        "stale-crossing-angle", "record-times"])
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
        elif damage == "stored-cfl4":
            # A run stored while cfl4 was a config field; it is now flow.CFL4.
            meta["config"]["cfl4"] = 0.05
        elif damage in ("no-records", "no-digests"):
            # A run saved before metadata.json held its records and digests.
            del meta["records" if damage == "no-records" else "snapshot_sha256"]
        elif damage == "short-digests":
            meta["snapshot_sha256"].pop()
        elif damage == "stale-last-record":
            # A run saved before a change to compute_record.
            meta["records"]["length"][-1] *= 1.0 + 1e-6
        elif damage == "old-records":
            # A run saved before the records held the crossing angle.
            del meta["records"]["crossing_angle"]
        elif damage == "stale-crossing-angle":
            meta["records"]["crossing_angle"][-1] *= 1.0 + 1e-6
        elif damage == "record-times":
            meta["records"]["t"][1] = meta["snapshot_times"][2]
        path.write_text("{" if damage == "not-json" else json.dumps(meta))
        with pytest.raises(ValidationError):
            runio.load_run(run_dir)
        for argv in (["lift", str(run_dir)],
                     ["report", str(run_dir), "--monitor", "balanced"],
                     ["compare-reaper", str(run_dir)]):
            assert main(argv) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("ERROR ValidationError:")
            if damage in ("no-records", "no-digests", "stale-last-record", "old-records",
                          "stale-crossing-angle"):
                assert err[0].endswith("; re-run it")


def same_record(a, b) -> bool:
    """Field for field equality, NaN equal to NaN."""
    return all(x == y or x != x and y != y
               for x, y in zip(dataclasses.astuple(a), dataclasses.astuple(b), strict=True))


class TestStoredRecords:
    """save_run stores the records and snapshot digests that load_run reads."""

    @pytest.fixture(scope="class")
    def circle_run(self, tmp_path_factory):
        traj = run(make_circle(1.0, 64), FlowConfig(), output_times=[0.005], t_end=0.01)
        out = tmp_path_factory.mktemp("runs") / "circle"
        runio.save_run(traj, out)
        return traj, out

    @pytest.mark.parametrize("which", ["small_run", "circle_run"])
    def test_records_round_trip(self, request, which):
        traj, out = request.getfixturevalue(which)
        back = runio.load_run(out).records
        assert len(back) == len(traj.records)
        assert all(same_record(a, b) for a, b in zip(traj.records, back))
        last = back[-1]
        if which == "circle_run":
            assert last.crossing_segments is None and np.isnan(last.loop_a1)
        else:
            assert last.crossing_segments == traj.records[-1].crossing_segments is not None

    def test_edited_snapshot_rejected(self, small_run, tmp_path, capsys):
        run_dir = shutil.copytree(small_run[1], tmp_path / "run")
        snap = run_dir / "snapshots" / "snap_0002.csv"
        lines = snap.read_text().splitlines()
        u, x, y = lines[5].split(",")
        lines[5] = f"{u},{float(x) + 1e-9!r},{y}"
        snap.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError) as info:
            runio.load_run(run_dir)
        assert str(snap) in str(info.value)
        # collapse reads no curve but the last, yet the load checks them all.
        for monitor in ("balanced", "collapse"):
            assert main(["report", str(run_dir), "--monitor", monitor]) == 1
            assert capsys.readouterr().err.splitlines() == [
                f"ERROR ValidationError: {snap} differs from the snapshot the run saved"]

    def test_save_hashes_the_bytes_written(self, small_run, tmp_path, monkeypatch):
        # The digests come from the bytes each snapshot write returned; no
        # file is read back, and each digest is still its file's.
        def refuse(path):
            raise AssertionError(f"read back {path}")

        monkeypatch.setattr(Path, "read_bytes", refuse)
        out = runio.save_run(small_run[0], tmp_path / "run")
        monkeypatch.undo()
        stored = json.loads((out / "metadata.json").read_text())["snapshot_sha256"]
        snaps = sorted((out / "snapshots").glob("snap_*.csv"))
        assert stored == [hashlib.sha256(p.read_bytes()).hexdigest() for p in snaps]
        assert len(stored) == len(small_run[0].states)

    @pytest.mark.parametrize("a, b", [(1.0, 1.0 + 1e-9), (0.0, 1e-12), (np.nan, np.nan),
                                      (np.inf, np.inf), (np.inf, -np.inf), (1.0, np.nan),
                                      (1.0, 1.0 + 3e-9), (5.0, np.inf)])
    def test_matches_agrees_with_isclose(self, a, b):
        # The stale-record check's float rule is np.isclose's, either way round.
        for stored, fresh in ((a, b), (b, a)):
            expected = np.isclose(stored, fresh, rtol=1e-9, atol=1e-12, equal_nan=True)
            assert runio._matches(stored, fresh) == expected

    @pytest.mark.parametrize("which", ["small_run", "circle_run"])
    def test_records_hold_the_angle_and_y_extent(self, request, which):
        traj, _ = request.getfixturevalue(which)
        for state, rec in zip(traj.states, traj.records, strict=True):
            if rec.crossing_count == 1:
                angle = crossings.crossing_interior_angle(state.curve, rec.crossing_segments)
                assert rec.crossing_angle == angle
            else:
                assert np.isnan(rec.crossing_angle)
            assert rec.y_extent == y_extent(state.curve)
        assert traj.times.tolist() == [s.t for s in traj.states]

    def test_load_computes_one_record(self, lemniscate_run, tmp_path, monkeypatch):
        # Only the last snapshot's record is recomputed, as a check.
        stored = Trajectory(states=lemniscate_run.states[:65],
                            records=lemniscate_run.records[:65],
                            stop_reason="partial", config=lemniscate_run.config)
        runio.save_run(stored, tmp_path / "run")
        calls = {"record": 0, "scan": 0}
        record, scan = runio.compute_record, crossings.find_self_intersections

        def counting(key, fn):
            def wrapped(*args):
                calls[key] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(runio, "compute_record", counting("record", record))
        monkeypatch.setattr(crossings, "find_self_intersections", counting("scan", scan))
        assert len(runio.load_run(tmp_path / "run").states) == 65
        assert calls == {"record": 1, "scan": 1}


class TestLazyStates:
    """A load checks every snapshot's digest but parses a state on first use."""

    @pytest.fixture(scope="class")
    def stored(self, lemniscate_run, tmp_path_factory):
        traj = Trajectory(states=lemniscate_run.states[:65], records=lemniscate_run.records[:65],
                          stop_reason="partial", config=lemniscate_run.config)
        out = tmp_path_factory.mktemp("runs") / "lem65"
        runio.save_run(traj, out)
        return traj, out

    @pytest.fixture
    def parsed(self, monkeypatch):
        """The snapshot numbers that runio.curve_from_csv parses, in order."""
        out, parse = [], runio.curve_from_csv

        def counting(path, *args):
            out.append(int(Path(path).stem.split("_")[1]))
            return parse(path, *args)

        monkeypatch.setattr(runio, "curve_from_csv", counting)
        return out

    @pytest.mark.parametrize("argv, count", [
        (["report", "--monitor", "collapse"], 1),
        (["report", "--monitor", "balanced"], 1),
        (["report", "--monitor", "isoperimetric"], 1),
        (["report", "--monitor", "symmetry"], 2),
        (["lift"], 65),
    ])
    def test_commands_parse_what_they_read(self, stored, tmp_path, parsed, argv, count):
        run_dir = shutil.copytree(stored[1], tmp_path / "run")
        assert main([argv[0], str(run_dir), *argv[1:]]) == 0
        assert len(parsed) == len(set(parsed)) == count and parsed[0] == 64

    def test_compare_reaper_parses_its_window(self, stored, tmp_path, parsed):
        run_dir = shutil.copytree(stored[1], tmp_path / "run")
        window = len(solitons.matched_barrier_comparison(stored[0]).margins)
        assert 1 < window < 64
        assert main(["compare-reaper", str(run_dir)]) == 0
        assert sorted(parsed) == [*range(window), 64]

    def test_snapshot_rewritten_after_the_load_raises_at_first_use(self, stored, tmp_path):
        # The load holds digests, not bytes: a state reads its file when first
        # used and checks it against the digest again.
        run_dir = shutil.copytree(stored[1], tmp_path / "run")
        traj = runio.load_run(run_dir)
        snap = run_dir / "snapshots" / "snap_0003.csv"
        lines = snap.read_text().splitlines()
        u, x, y = lines[5].split(",")
        lines[5] = f"{u},{float(x) + 1e-9!r},{y}"
        snap.write_text("\n".join(lines) + "\n")
        assert traj.states[2].t == stored[0].states[2].t
        with pytest.raises(ValidationError) as info:
            traj.states[3]
        assert str(info.value) == f"{snap} differs from the snapshot the run saved"

    def test_states_match_an_eager_load(self, stored, parsed):
        traj = runio.load_run(stored[1])
        eager = [runio.curve_from_csv(stored[1] / "snapshots" / f"snap_{k:04d}.csv")
                 for k in range(65)]
        parsed.clear()
        assert traj.states[3] is traj.states[3] and parsed == [3]

        def same(states, curves):
            return len(states) == len(curves) and all(
                np.array_equal(s.curve.points, c.points) for s, c in zip(states, curves))

        assert same([traj.states[-1]], eager[-1:])
        assert same(traj.states[:7], eager[:7]) and same(traj.states[::9], eager[::9])
        assert same(list(traj.states), eager)
        assert [s.t for s in traj.states] == [s.t for s in stored[0].states]
        assert [s.step for s in traj.states] == [s.step for s in stored[0].states]
        assert traj.times.tolist() == [s.t for s in stored[0].states]
        assert sorted(parsed) == list(range(64))
        with pytest.raises(IndexError):
            traj.states[65]


class TestCLI:
    def test_generate_and_reload(self, tmp_path):
        out = tmp_path / "lem.csv"
        assert main(["generate", "lemniscate", "--a", "1", "--n", "128",
                     "--out", str(out)]) == 0
        from eightflow.curves import curve_from_csv, signed_area
        assert abs(signed_area(curve_from_csv(out))) < 1e-10

    def test_generate_circle_json(self, tmp_path):
        # Curve files have one format: a .json name gets a CSV too, and
        # evolve reads it back as CSV.
        out = tmp_path / "circle.json"
        assert main(["generate", "circle", "--r", "1", "--n", "64", "--out", str(out)]) == 0
        assert out.read_text().startswith("u,x,y\n")
        from eightflow.curves import curve_from_csv, signed_area
        assert abs(signed_area(curve_from_csv(out)) - np.pi) < 1e-3
        assert main(["evolve", "--curve", str(out), "--t-end", "1e-4",
                     "--out-dir", str(tmp_path / "run")]) == 0

    def test_generate_too_small_exits_1(self, tmp_path, capsys):
        code = main(["generate", "lemniscate", "--n", "8",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("ERROR InvalidCurve:")

    @pytest.mark.parametrize("args, error", [
        (["circle", "--n", "-5"], "need at least 16 samples, got -5"),
        (["ellipse", "--a", "nan"], "semi-axes must be positive and finite, not nan"),
        (["circle", "--r", "inf"], "semi-axes must be positive and finite, not inf"),
        (["lemniscate", "--a", "inf"], "scale must be positive and finite, not inf"),
    ], ids=["negative-n", "nan-axis", "infinite-radius", "infinite-scale"])
    def test_generate_out_of_range_parameter_is_named(self, tmp_path, capsys, args, error):
        out = tmp_path / "c.csv"
        assert main(["generate", *args, "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"ERROR InvalidCurve: {error}"]
        assert not out.exists()

    def test_generate_parameter_it_does_not_read_exits_1(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(["generate", "circle", "--a", "5", "--ratio", "9", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "ERROR ValidationError: unknown circle parameter 'a'"]
        assert not out.exists()

    def test_evolve_lift_report_pipeline(self, tmp_path, capsys, curve_csv):
        run_dir = tmp_path / "run"
        code = main([
            "evolve", "--curve", curve_csv["lemniscate"],
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

    def test_lift_of_circle_run_rejected(self, tmp_path, capsys, curve_csv):
        run_dir = tmp_path / "circle_run"
        assert main(["evolve", "--curve", curve_csv["circle"],
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
        ([], "push_distance=-0.3576135 final_rightmost_x=-0.210015 pushed_past=n/a"),
        (["--c0", "30", "--tau0", "0.05"],
         "push_distance=-0.3834194 final_rightmost_x=-0.0825662 pushed_past=n/a"),
        (["--c0", "1", "--tau0", "0.2"],
         "push_distance=0.1977663 final_rightmost_x=-0.547103 pushed_past=True"),
    ], ids=["matched", "c0-30", "c0-1"])
    def test_compare_reaper_pushed_past(self, reaper_run, capsys, flags, last_line):
        # A barrier that moves right (push <= 0) pushes nothing past it.
        assert main(["compare-reaper", str(reaper_run), *flags]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == last_line

    @pytest.mark.parametrize("c0, tau0, verdict", [(0.2, 5.0, "False"), (1.0, 0.2, "True")])
    def test_compare_reaper_pushed_past_is_scale_free(self, tmp_path, capsys, c0, tau0,
                                                      verdict):
        # Scaling a curve by s scales its flow's times by s^2, and the reaper
        # (C0 / s, s^2 tau0) scales push and positions by s: same verdict.
        for s in (1.0, 0.01):
            curve, run_dir = str(tmp_path / f"lem{s}.csv"), str(tmp_path / f"lem{s}")
            assert main(["generate", "lemniscate", "--a", str(s), "--n", "128",
                         "--out", curve]) == 0
            assert main(["evolve", "--curve", curve, "--out-dir", run_dir, "--cfl", "0.2",
                         "--stop-area-frac", "0.25", "--times",
                         ",".join(str(t * s * s) for t in (0.02, 0.04, 0.06, 0.08))]) == 0
            capsys.readouterr()
            assert main(["compare-reaper", run_dir, "--c0", str(c0 / s),
                         "--tau0", str(s * s * tau0)]) == 0
            assert capsys.readouterr().out.endswith(f" pushed_past={verdict}\n")

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

    @pytest.mark.parametrize("monitor", sorted(cli._MONITORS))
    def test_evolve_monitors_match_report_defaults(self, stored_reaper_run, tmp_path, monitor):
        # evolve reports from the records it computed, report from the
        # records the load read back: the bytes agree.
        out = tmp_path / f"{monitor}.json"
        assert main(["report", str(stored_reaper_run), "--monitor", monitor,
                     "--out", str(out)]) == 0
        assert out.read_bytes() == (stored_reaper_run / f"report_{monitor}.json").read_bytes()

    @pytest.mark.parametrize("damage", ["truncated", "deleted"])
    def test_compare_reaper_rebuilds_diagnostics(self, stored_reaper_run, tmp_path, damage):
        # compare-reaper writes diagnostics.csv from the stored records, so
        # what the file held before, or whether it was there, changes nothing.
        intact = shutil.copytree(stored_reaper_run, tmp_path / "intact")
        damaged = shutil.copytree(stored_reaper_run, tmp_path / "damaged")
        path = damaged / "diagnostics.csv"
        if damage == "truncated":
            path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
        else:
            path.unlink()
        for run_dir in (intact, damaged):
            assert main(["compare-reaper", str(run_dir)]) == 0
        assert path.read_bytes() == (intact / "diagnostics.csv").read_bytes()

    def test_writers_share_one_layout(self, reaper_run):
        # Without its last column, lift's and compare-reaper's diagnostics.csv
        # is save_run's, byte for byte.
        def without_last_column(path) -> bytes:
            lines = path.read_bytes().splitlines()
            return b"".join(line.rsplit(b",", 1)[0] + b"\n" for line in lines)

        saved = (reaper_run / "diagnostics.csv").read_bytes()
        assert main(["lift", str(reaper_run)]) == 0
        assert main(["compare-reaper", str(reaper_run)]) == 0
        assert without_last_column(reaper_run / "lifted" / "diagnostics.csv") == saved
        assert without_last_column(reaper_run / "diagnostics.csv") == saved

    def test_evolve_prints_its_summary(self, tmp_path, capsys):
        # The shrinking-circle check needs the circle's generator.
        out, spec_path = tmp_path / "run", tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"generator": {"name": "circle", "n": 64},
                                         "t_end": 0.01, "out_dir": str(out)}))
        assert main(["evolve", "--spec", str(spec_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("t=0.01 L=") and " crossings=0 " in lines[0]
        assert lines[1] == "stop_reason=time"
        label, rel_error = lines[2].split("=")
        assert label == "shrinking_circle_check rel_error" and float(rel_error) < 1e-3
        assert lines[3] == f"run complete: {out}"

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

    def test_indefinite_flow_reproduces_csf_diagnostics(self, tmp_path, curve_csv):
        outs = []
        for kind in ("csf", "indefinite"):
            out = tmp_path / kind
            assert main(["evolve", "--curve", curve_csv["lemniscate"],
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
        generated = tmp_path / "generated.csv"
        assert main(["generate", generator, "--out", str(generated)]) == 0
        first = tmp_path / "spec" / "snapshots" / "snap_0000.csv"
        assert first.read_bytes() == generated.read_bytes()

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
        {"monitors": "balanced"},
        {"cfl": 0.01},
        {"monitor": ["balanced"]},
        {"output_times": [0.005, -0.005]},
        {"output_times": [0]},
        {"output_times": [float("nan")]},
        {"curve_file": "circle.csv"},
        {"config": {"cfl": 0.6}},
        {"config": {"cfl": 0.4}},
        {"config": {"remesh_every": 10}},
        {"M": 1.0},
        {"alpha": 0.01},
        {"alphas": [0.01]},
        {"flow": "bogus"},
        {"config": {"max_steps": 0}},
        {"flow": []},
        {"flow": {}},
        {"output_times": {}},
        {"output_times": 0},
        {"output_times": ""},
        {"output_times": False},
        {"monitors": ""},
        {"monitors": {}},
        {"monitors": 0},
        {"config": []},
        {"config": ""},
        {"config": 0},
        {"curve_file": ""},
    ], ids=["string-t_end", "negative-t_end", "zero-t_end", "nan-t_end", "inf-t_end",
            "string-output_times", "string-output_time",
            "list-config", "number-out_dir", "number-curve_file",
            "string-monitors", "top-level-cfl", "misspelled-monitors",
            "negative-output_time", "zero-output_time", "nan-output_time",
            "curve_file-and-generator", "out-of-range-cfl",
            "cfl-above-heun-limit", "removed-remesh_every", "removed-M",
            "removed-alpha", "removed-alphas", "unknown-flow", "zero-max_steps",
            "list-flow", "object-flow", "object-output_times", "zero-output_times",
            "empty-string-output_times", "false-output_times", "empty-string-monitors",
            "object-monitors", "zero-monitors", "empty-list-config", "empty-string-config",
            "zero-config", "empty-curve_file"])
    def test_bad_spec_value_exits_1_before_the_run(self, tmp_path, capsys, monkeypatch,
                                                    entry):
        monkeypatch.chdir(tmp_path)   # a number out_dir would be a relative path
        spec = {"generator": {"name": "circle", "n": 64}, "t_end": 1e-6,
                "out_dir": "never", **entry}
        Path("spec.json").write_text(json.dumps(spec))
        assert main(["evolve", "--spec", "spec.json"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR ValidationError:")
        # Monitor parameters are `report` flags only.
        if set(entry) <= {"M", "alpha", "alphas"}:
            assert err[0] == f"ERROR ValidationError: unknown RunSpec key {next(iter(entry))!r}"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]

    @pytest.mark.parametrize("t_end", ["-1", "nan"])
    def test_bad_t_end_flag_exits_1(self, tmp_path, capsys, curve_csv, t_end):
        out = tmp_path / "never"
        assert main(["evolve", "--curve", curve_csv["circle"], f"--t-end={t_end}",
                     "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR ValidationError: t_end")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--times=-0.005,nan,0.005"]], ids=["bad-times"])
    def test_flag_that_cannot_apply_exits_1(self, tmp_path, capsys, curve_csv, flags):
        out = tmp_path / "never"
        assert main(["evolve", "--curve", curve_csv["circle"], "--t-end", "0.01",
                     "--out-dir", str(out), *flags]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR ValidationError:")
        assert not out.exists()

    def test_step_budget_exits_2(self, tmp_path, capsys, curve_csv):
        out = tmp_path / "never"
        # One step of the unit circle at the default cfl reaches t = 0.00125, not 0.1.
        assert main(["evolve", "--curve", curve_csv["circle"], "--t-end", "0.1",
                     "--max-steps", "1", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "ERROR MaxStepsExceeded: no stopping criterion after 1 steps"]
        assert not out.exists()

    def test_non_number_in_times_exits_1(self, tmp_path, capsys, curve_csv):
        out = tmp_path / "never"
        assert main(["evolve", "--curve", curve_csv["circle"], "--t-end", "1e-3",
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

    @pytest.mark.parametrize("monitor, flags", [
        ("balanced", ["--M", "5"]), ("balanced", ["--M=-1"]),
        ("collapse", ["--alpha", "0.01"]), ("isoperimetric", ["--alphas", "0.01"]),
        ("symmetry", ["--alphas", "0.01"])],
        ids=["balanced-M", "balanced-negative-M", "collapse-alpha", "isoperimetric-alphas",
             "symmetry-alphas"])
    def test_flag_of_another_monitor_exits_1(self, small_run, tmp_path, capsys, monitor, flags):
        out = tmp_path / "never.json"
        assert main(["report", str(small_run[1]), "--monitor", monitor, *flags,
                     "--out", str(out)]) == 1
        flag = flags[0].split("=")[0]
        assert capsys.readouterr().err.splitlines() == [
            f"ERROR ValidationError: {flag} does not apply to monitor {monitor}"]
        assert not out.exists()

    # The ids "," and "" are the --alphas cases.
    @pytest.mark.parametrize("flag, value", [
        ("--alphas", ","), ("--alphas", ""), ("--times", ","), ("--times", "0.01,"),
        ("--monitors", ","), ("--monitors", "balanced,,symmetry")],
        ids=[",", "", "times-comma", "times-trailing-comma", "monitors-comma",
             "monitors-inner-empty"])
    def test_empty_alphas_exits_1(self, small_run, curve_csv, tmp_path, capsys, flag, value):
        out = tmp_path / "never"
        if flag == "--alphas":
            argv = ["report", str(small_run[1]), "--monitor", "collapse", "--out", str(out)]
        else:
            argv = ["evolve", "--curve", curve_csv["circle"], "--t-end", "1e-3",
                    "--out-dir", str(out)]
        assert main([*argv, flag, value]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"ERROR ValidationError: {flag} has an empty entry in {value!r}"]
        assert not out.exists()

    def test_out_of_range_cfl_flag_exits_1(self, tmp_path, capsys, curve_csv):
        out = tmp_path / "never"
        assert main(["evolve", "--curve", curve_csv["circle"], "--cfl", "0.6",
                     "--t-end", "1e-6", "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "ERROR ValidationError: cfl 0.6 outside (0, 0.375]"]
        assert not out.exists()

    def test_out_dir_holding_a_run_refused_before_stepping(self, tmp_path, capsys,
                                                           monkeypatch, curve_csv):
        out = tmp_path / "run"
        argv = ["evolve", "--curve", curve_csv["circle"], "--t-end", "1e-6",
                "--out-dir", str(out)]
        assert main(argv) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        capsys.readouterr()
        monkeypatch.setattr(cli, "run", lambda *args, **kwargs: pytest.fail("stepped"))
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR ValidationError:")
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_jobs_flag_is_unknown(self, tmp_path, capsys, curve_csv):
        out = tmp_path / "never"
        with pytest.raises(SystemExit) as exc:
            main(["evolve", "--curve", curve_csv["circle"], "--t-end", "1e-6",
                  "--out-dir", str(out), "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
        assert not out.exists()

    def test_generator_flags_are_unknown(self, tmp_path, capsys, monkeypatch):
        # A generated curve reaches evolve by a RunSpec generator or by --curve.
        monkeypatch.chdir(tmp_path)
        for argv, unknown in ((["--out-dir", "x", "--n", "64"], "--n 64"),
                              (["--generator", "circle", "--t-end", "1e-6", "--out-dir", "x"],
                               "--generator circle")):
            with pytest.raises(SystemExit) as exc:
                main(["evolve", *argv])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {unknown}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_second_spec_file_is_unknown(self, tmp_path, capsys):
        # evolve runs one RunSpec per call.
        specs = []
        for k in range(2):
            path = tmp_path / f"spec{k}.json"
            path.write_text(json.dumps({"generator": {"name": "circle", "n": 64},
                                        "t_end": 1e-6, "out_dir": str(tmp_path / f"job{k}")}))
            specs.append(str(path))
        with pytest.raises(SystemExit) as exc:
            main(["evolve", "--spec", *specs])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {specs[1]}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec0.json", "spec1.json"]

    @pytest.mark.parametrize("spec", [None, {"out_dir": "x"}], ids=["flags", "spec"])
    def test_no_curve_source_exits_1(self, tmp_path, capsys, monkeypatch, spec):
        monkeypatch.chdir(tmp_path)
        argv = ["evolve", "--out-dir", "x"]
        if spec is not None:
            Path("spec.json").write_text(json.dumps(spec))
            argv = ["evolve", "--spec", "spec.json"]
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            "ERROR ValidationError: RunSpec needs a curve_file or a generator"]
        assert sorted(p.name for p in tmp_path.iterdir()) == (["spec.json"] if spec else [])

    def test_stop_kappa_h_flag_is_unknown(self, tmp_path, capsys, curve_csv):
        # The resolution stop is the constant flow.STOP_KAPPA_H.
        out = tmp_path / "never"
        with pytest.raises(SystemExit) as exc:
            main(["evolve", "--curve", curve_csv["circle"], "--t-end", "1e-6",
                  "--out-dir", str(out), "--stop-kappa-h", "0.5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --stop-kappa-h 0.5" in capsys.readouterr().err
        assert not out.exists()

    def test_evolve_malformed_curve_exits_1(self, tmp_path, capsys):
        path = tmp_path / "short_row.csv"
        path.write_text("u,x,y\n0,1\n")
        assert main(["evolve", "--curve", str(path),
                     "--out-dir", str(tmp_path / "never")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR InvalidCurve:")
        assert not (tmp_path / "never").exists()

    def test_evolve_space_curve_file_exits_1(self, small_run, tmp_path, capsys):
        # A lifted snapshot's u,x,y,z header is not the plane-curve header u,x,y.
        lifted = tmp_path / "lifted"
        assert main(["lift", str(small_run[1]), "--out-dir", str(lifted)]) == 0
        capsys.readouterr()
        assert main(["evolve", "--curve", str(lifted / "snapshots" / "snap_0001.csv"),
                     "--out-dir", str(tmp_path / "never")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "ERROR InvalidCurve: unexpected curve CSV header 'u,x,y,z', expected u,x,y"]
        assert not (tmp_path / "never").exists()

    def test_evolve_header_only_curve_exits_1(self, tmp_path, capsys):
        # A comment is no empty line, so a file with one has a malformed row.
        path = tmp_path / "header.csv"
        for text, fault in (("u,x,y\n", "no sample rows"), ("u,x,y\n\n\n", "no sample rows"),
                            ("u,x,y\n\n  # no rows\n", "malformed row")):
            path.write_text(text)
            assert main(["evolve", "--curve", str(path),
                         "--out-dir", str(tmp_path / "never")]) == 1
            (line,) = capsys.readouterr().err.splitlines()
            assert line.startswith(f"ERROR InvalidCurve: {fault} in {path}")
            assert not (tmp_path / "never").exists()

    def test_report_on_header_only_snapshot_exits_1(self, small_run, tmp_path, capsys):
        # A load checks every snapshot's digest before it parses any.
        run_dir = shutil.copytree(small_run[1], tmp_path / "run")
        snap = run_dir / "snapshots" / "snap_0001.csv"
        snap.write_text("u,x,y\n")
        before = sorted(run_dir.iterdir())
        assert main(["report", str(run_dir), "--monitor", "balanced"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"ERROR ValidationError: {snap} differs from the snapshot the run saved"]
        assert sorted(run_dir.iterdir()) == before

    def test_evolve_malformed_json_curve_exits_1(self, tmp_path, capsys):
        # Curve files are CSV only, so a JSON curve, such as an N=64 circle in
        # the {"n": N, "points": [[x, y], ...]} layout, fails the header check;
        # the error quotes only the start of its one long line.
        circle = json.dumps({"n": 64, "points": make_circle(1.0, 64).points.tolist()})
        path = tmp_path / "bad.json"
        for text in (circle, "{", "[[1, 2]]", '{"n": 2}', '{"points": [["a", "b"]]}'):
            path.write_text(text)
            assert main(["evolve", "--curve", str(path),
                         "--out-dir", str(tmp_path / "never")]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and len(err[0]) < 200
            assert err[0].startswith("ERROR InvalidCurve: unexpected curve CSV header")
            assert not (tmp_path / "never").exists()

    def test_missing_run_dir_exits_3(self, tmp_path, capsys):
        assert main(["lift", str(tmp_path / "no_such_run")]) == 3
        assert capsys.readouterr().err.startswith("ERROR FileNotFoundError")


# The JSON kinds a value can take, and the one each RunSpec key takes.
_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
JSON_KINDS = {
    "bool": st.booleans(),
    "number": st.integers() | st.floats(),
    "string": st.text(max_size=8),
    "list": st.lists(_SCALARS, max_size=3),
    "object": st.dictionaries(st.text(max_size=4), _SCALARS, max_size=3),
}
SPEC_KINDS = {"out_dir": "string", "curve_file": "string", "generator": "object",
              "flow": "string", "config": "object", "output_times": "list",
              "t_end": "number", "monitors": "list"}
# A valid value or null for each optional key of a generator's RunSpec.
OPTIONAL_VALUES = {
    "curve_file": st.none(),
    "flow": st.none() | st.sampled_from(sorted(FLOWS)),
    "config": st.none() | st.just({"cfl": 0.1}),
    "output_times": st.none() | st.lists(st.floats(0.01, 1.0), max_size=3),
    "t_end": st.none() | st.floats(0.01, 1.0),
    "monitors": st.none() | st.lists(st.sampled_from(sorted(cli._MONITORS)), max_size=2),
}


def generator_spec(tmp_path_factory) -> dict:
    return {"generator": {"name": "circle", "n": 64},
            "out_dir": str(tmp_path_factory.getbasetemp() / "never")}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_wrong_kind_spec_value_is_a_validation_error(tmp_path_factory, data):
    key = data.draw(st.sampled_from(sorted(SPEC_KINDS)))
    kind = data.draw(st.sampled_from(sorted(set(JSON_KINDS) - {SPEC_KINDS[key]})))
    spec = {**generator_spec(tmp_path_factory), key: data.draw(JSON_KINDS[kind])}
    with pytest.raises(ValidationError):
        RunSpec.from_dict(spec)


@settings(max_examples=50, deadline=None)
@given(st.fixed_dictionaries({}, optional=OPTIONAL_VALUES))
def test_null_spec_value_means_the_key_is_left_out(tmp_path_factory, optional):
    spec = {**generator_spec(tmp_path_factory), **optional}
    given_only = {k: v for k, v in spec.items() if v is not None}
    assert RunSpec.from_dict(spec) == RunSpec.from_dict(given_only)


class TestImportGraph:
    @staticmethod
    def loaded(module: str, names: tuple[str, ...]) -> str:
        """The sorted list of `names` in sys.modules after `import module` in a
        fresh interpreter, as printed."""
        src = str(Path(eightflow.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = f"import sys, {module}; print(sorted(m for m in {names!r} if m in sys.modules))"
        return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True).stdout.strip()

    def test_cli_import_skips_unused_modules(self):
        # Each costs import time and resident memory in every CLI process.
        # Any scipy submodule loads the scipy package, and the package has no
        # runtime dependency on scipy.
        assert self.loaded("eightflow.cli", ("scipy", "multiprocessing",
                                             "concurrent.futures.process")) == "[]"

    def test_curves_import_skips_flow_and_monitors(self):
        # The package namespace re-exports nothing, so importing one module
        # loads only the modules that it imports.
        assert self.loaded("eightflow.curves", ("eightflow.flow", "eightflow.monitors")) == "[]"

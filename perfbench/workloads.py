"""The benchmark workloads: seeded inputs, timed operations, output checks.

Every operation goes through an entry point users call: `eightflow.cli.main`
with generated arguments, or `eightflow.gradients.evolve_gradient_flow`.
The seed only picks the scale `a` of every initial curve; times scale by
a^2 (a^4 for the fourth-order diffusion flow), so step counts stay
comparable across seeds.
"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Extinction time of the unit Bernoulli lemniscate under curve shortening
# flow; N=256 and N=512 agree to 3e-7.
LEMNISCATE_T = 0.115646
# Snapshot-time anchor of the reference lemniscate run (tests/conftest.py).
LEMNISCATE_T_MAX = 0.1155
# Relative radius tolerance of the tier-1 shrinking-circle regression.
CIRCLE_RTOL = 1e-3

VERDICTS_FILE = Path(__file__).with_name("expected_verdicts.json")


def lemniscate_output_times(a: float) -> list[float]:
    """The reference run's ~70 uniform and dyadic times, scaled by a^2."""
    uniform = np.arange(0.002, 0.120, 0.002)
    dyadic = LEMNISCATE_T_MAX * (1.0 - 0.5 ** np.arange(1, 14))
    times = sorted(set(np.round(np.concatenate([uniform, dyadic]), 12)))
    return [a * a * float(t) for t in times]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def report_verdicts(path: Path) -> list[list]:
    return [[c["name"], c["pass"]] for c in json.loads(path.read_text())["checks"]]


def _fmt(value: float) -> str:
    return f"{value:.17g}"


@dataclass
class Outcome:
    """What one operation returned; `error` is set when it raised."""

    label: str
    code: int | None = None
    stderr: str = ""
    value: object = None
    error: str | None = None


@dataclass
class RepCheck:
    """Output check of one repetition."""

    attempted: int
    problems: list[str] = field(default_factory=list)
    failed_ops: set[str] = field(default_factory=set)
    steps: int = 0
    digests: dict[str, str] = field(default_factory=dict)

    def fail(self, label: str, why: str) -> None:
        self.failed_ops.add(label)
        self.problems.append(f"{label}: {why}")


def run_ops(ops) -> tuple[float, list[Outcome]]:
    """Run (label, callable) operations in order; return the summed wall time.

    A CLI call returns its exit code with captured output; a library call
    returns its value.  Any exception is recorded as that operation's
    failure and the remaining operations still run.
    """
    outcomes = []
    total = 0.0
    for label, call in ops:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                result = call()
            error = None
        except SystemExit as exc:  # argparse rejects arguments by exiting
            result, error = exc.code, f"SystemExit({exc.code})"
        except Exception:  # noqa: BLE001 - count it as a failed operation
            result, error = None, traceback.format_exc()
        total += time.perf_counter() - start
        outcome = Outcome(label, stderr=err.getvalue(), error=error)
        if isinstance(result, int):
            outcome.code = result
        else:
            outcome.value = result
        outcomes.append(outcome)
    return total, outcomes


class Workload:
    """Base: `make_inputs` and `finish_setup` form the set-up; `operations`
    gives one repetition's timed calls into the program and `check` verifies
    their outputs afterwards, outside the timed part."""

    name = ""
    cfl = 0.1

    def __init__(self, ef, scale: float):
        self.ef = ef
        self.a = scale
        self.inputs: Path | None = None
        self.expected_verdicts = json.loads(VERDICTS_FILE.read_text())

    def cli(self, *argv):
        return lambda: self.ef.cli.main([str(x) for x in argv])

    def make_inputs(self, root: Path) -> None:
        raise NotImplementedError

    def finish_setup(self, root: Path) -> None:
        """Set-up work after the inputs exist (default: none)."""

    def operations(self, rep_dir: Path) -> list:
        raise NotImplementedError

    def repetition(self, rep_dir: Path, tracer=None) -> tuple[float, RepCheck]:
        """Run one repetition's operations, under `tracer` if given; return
        the timed wall time and the output check."""
        ops = self.operations(rep_dir)
        with tracer or nullcontext():
            wall, outcomes = run_ops(ops)
        return wall, self.check(rep_dir, outcomes)

    def check(self, rep_dir: Path, outcomes: list[Outcome]) -> RepCheck:
        rep = RepCheck(attempted=len(outcomes))
        for o in outcomes:
            if o.error is not None:
                rep.fail(o.label, o.error.strip().splitlines()[-1])
            elif o.value is None and o.code != 0:
                rep.fail(o.label, f"exit code {o.code}: {o.stderr.strip()}")
        return rep

    def sample_curves(self, rep_dir: Path) -> list:
        """Curves of a repetition's runs, for the micro-timings."""
        raise NotImplementedError

    def snapshot_curves(self, run_dir: Path, count: int = 6) -> list:
        """Up to `count` snapshot curves spread over a stored run."""
        files = sorted((run_dir / "snapshots").glob("snap_*.csv"))
        picks = np.unique(np.linspace(0, len(files) - 1, count).round().astype(int))
        return [self.ef.curves.curve_from_csv(files[k]) for k in picks]

    # -- helpers shared by the CLI workloads -------------------------------

    def _write_curve(self, root: Path, name: str, curve) -> Path:
        root.mkdir(parents=True, exist_ok=True)
        path = root / name
        self.ef.curves.curve_to_csv(curve, path)
        return path

    def _check_run(self, rep: RepCheck, label: str, run_dir: Path,
                   stop_reason: str) -> dict | None:
        if label in rep.failed_ops:
            return None
        try:
            meta = json.loads((run_dir / "metadata.json").read_text())
            rep.steps += meta["snapshot_steps"][-1]
        except (OSError, ValueError, KeyError, IndexError) as exc:
            rep.fail(label, f"unreadable metadata.json: {exc!r}")
            return None
        if meta.get("stop_reason") != stop_reason:
            rep.fail(label, f"stop reason {meta.get('stop_reason')!r}, expected {stop_reason!r}")
        self._digest(rep, label, run_dir / "diagnostics.csv")
        return meta

    def _digest(self, rep: RepCheck, label: str, path: Path) -> None:
        if label in rep.failed_ops:
            return
        try:
            rep.digests[f"{label}/{path.name}"] = sha256(path)
        except OSError as exc:
            rep.fail(label, f"missing output: {exc!r}")

    def _check_verdicts(self, rep: RepCheck, label: str, path: Path, key: str) -> None:
        if label in rep.failed_ops:
            return
        expected = self.expected_verdicts[key]
        try:
            got = report_verdicts(path)
        except (OSError, ValueError, KeyError) as exc:
            rep.fail(label, f"unreadable report: {exc!r}")
            return
        if got != expected:
            rep.fail(label, f"report verdicts {got} differ from recorded {expected}")


class Lemniscate(Workload):
    """Input and `evolve` arguments of the reference lemniscate run."""

    def make_inputs(self, root: Path) -> None:
        self.lemniscate = self.ef.shapes.make_bernoulli_lemniscate(self.a, 256)
        self.inputs = self._write_curve(root, "lemniscate.csv", self.lemniscate)
        self.times = ",".join(_fmt(t) for t in lemniscate_output_times(self.a))

    def evolve_args(self, out_dir: Path, monitors: bool) -> list:
        args = ["evolve", "--curve", self.inputs, "--flow", "csf",
                "--out-dir", out_dir, "--cfl", self.cfl, "--stop-area-frac", 0.01,
                "--times", self.times]
        return args + (["--monitors", "balanced,symmetry"] if monitors else [])


class Evolve(Lemniscate):
    """Every time-stepping run, in one repetition:

    - `lemniscate`: the paper's headline run, the lemniscate to 1% area with
      the reference snapshot times and the balanced and symmetry monitors;
    - `circle`: the embedded circle at N=512 to t = 0.375 a^2, which has an
      exact solution and short-circuits the crossing tracker;
    - `h1` and `diffusion`: the gradient flows of the lemniscate (to 50%
      area) and of a 2:1 ellipse at N=128 (to t = 0.002 a^4), the only runs
      that reach `gradients` and `tridiag`.
    """

    name = "evolve"

    def make_inputs(self, root: Path) -> None:
        super().make_inputs(root)
        shapes = self.ef.shapes
        self.circle = self._write_curve(root, "circle.csv", shapes.make_circle(self.a, 512))
        self.circle_t_end = 0.375 * self.a**2
        self.ellipse = shapes.make_ellipse(2.0 * self.a, self.a, 128)
        # The diffusion flow is fourth order: its time scales by a^4.
        self.diffusion_t_end = 0.002 * self.a**4

    def operations(self, rep_dir: Path) -> list:
        ef = self.ef
        config = ef.flow.FlowConfig
        t_end = _fmt(self.circle_t_end)
        return [
            ("lemniscate", self.cli(*self.evolve_args(rep_dir / "lemniscate", True))),
            ("circle", self.cli(
                "evolve", "--curve", self.circle, "--flow", "csf",
                "--out-dir", rep_dir / "circle", "--cfl", 0.2,
                "--t-end", t_end, "--times", t_end)),
            ("h1", lambda: ef.gradients.evolve_gradient_flow(
                self.lemniscate, "h1", config(cfl=self.cfl, stop_area_frac=0.5))),
            ("diffusion", lambda: ef.gradients.evolve_gradient_flow(
                self.ellipse, "diffusion", config(), t_end=self.diffusion_t_end)),
        ]

    def check(self, rep_dir: Path, outcomes: list[Outcome]) -> RepCheck:
        rep = super().check(rep_dir, outcomes)
        self._check_lemniscate(rep, rep_dir / "lemniscate")
        self._check_circle(rep, rep_dir / "circle")
        self._check_gradient_flows(rep, outcomes[2:])
        return rep

    def _check_lemniscate(self, rep: RepCheck, run_dir: Path) -> None:
        label = "lemniscate"
        if self._check_run(rep, label, run_dir, "area") is None:
            return
        try:
            est = self.ef.flow.estimate_extinction_time(self.ef.runio.load_run(run_dir))
        except (self.ef.errors.EightflowError, OSError, ValueError) as exc:
            rep.fail(label, f"cannot estimate the extinction time: {exc!r}")
            return
        t_ref = LEMNISCATE_T * self.a**2
        if not est.bracket_low <= t_ref <= est.bracket_high:
            rep.fail(label, f"extinction bracket [{est.bracket_low:.7g}, "
                     f"{est.bracket_high:.7g}] misses T a^2 = {t_ref:.7g}")
        for monitor in ("balanced", "symmetry"):
            self._check_verdicts(rep, label, run_dir / f"report_{monitor}.json",
                                 f"evolve/{monitor}")

    def _check_circle(self, rep: RepCheck, run_dir: Path) -> None:
        label = "circle"
        meta = self._check_run(rep, label, run_dir, "time")
        if meta is None:
            return
        try:
            last = sorted((run_dir / "snapshots").glob("snap_*.csv"))[-1]
            pts = self.ef.curves.curve_from_csv(last).points
            exact = self.ef.solitons.shrinking_circle(self.a, meta["snapshot_times"][-1])
        except (self.ef.errors.EightflowError, OSError, ValueError, IndexError) as exc:
            rep.fail(label, f"cannot read the final circle: {exc!r}")
            return
        measured = float(np.linalg.norm(pts - pts.mean(axis=0), axis=1).mean())
        rel = abs(measured - exact) / exact
        if not rel < CIRCLE_RTOL:
            rep.fail(label, f"radius error {rel:.3e} not below {CIRCLE_RTOL}")

    def _check_gradient_flows(self, rep: RepCheck, outcomes: list[Outcome]) -> None:
        header = self.ef.diagnostics.DiagnosticsRecord.CSV_COLUMNS
        self.trajectories = []
        for o, stop in zip(outcomes, ("area", "time")):
            if o.label in rep.failed_ops:
                continue
            traj = o.value
            self.trajectories.append(traj)
            if traj.stop_reason != stop:
                rep.fail(o.label, f"stop reason {traj.stop_reason!r}, expected {stop!r}")
            rep.steps += traj.states[-1].step
            # The same bytes save_run would write as diagnostics.csv.
            text = "\n".join([header] + [r.csv_row() for r in traj.records]) + "\n"
            rep.digests[f"{o.label}/diagnostics.csv"] = hashlib.sha256(
                text.encode()).hexdigest()

    def sample_curves(self, rep_dir: Path) -> list:
        curves = self.snapshot_curves(rep_dir / "lemniscate")
        curves += self.snapshot_curves(rep_dir / "circle")
        return curves + [s.curve for traj in self.trajectories for s in traj.states]


class Postprocess(Lemniscate):
    """Every post-processing command on a stored lemniscate run; no stepping."""

    name = "postprocess"
    REPORTS = ("balanced", "collapse", "isoperimetric", "symmetry")

    def finish_setup(self, root: Path) -> None:
        self.stored = root / "stored"
        _, (outcome,) = run_ops([("setup-evolve", self.cli(
            *self.evolve_args(self.stored, False)))])
        if outcome.code != 0:
            raise RuntimeError(f"stored run failed: {outcome.error or outcome.stderr}")

    def operations(self, rep_dir: Path) -> list:
        # compare-reaper appends a column to diagnostics.csv and lift writes
        # under the run directory, so every repetition gets a fresh copy.
        run_dir = rep_dir / "run"
        shutil.copytree(self.stored, run_dir)
        ops = [("lift", self.cli("lift", run_dir))]
        ops += [(f"report-{m}", self.cli("report", run_dir, "--monitor", m))
                for m in self.REPORTS]
        return ops + [("compare-reaper", self.cli("compare-reaper", run_dir))]

    def check(self, rep_dir: Path, outcomes: list[Outcome]) -> RepCheck:
        rep = super().check(rep_dir, outcomes)
        run_dir = rep_dir / "run"
        for m in self.REPORTS:
            self._check_verdicts(rep, f"report-{m}", run_dir / f"report_{m}.json",
                                 f"report/{m}")
        self._digest(rep, "lift", run_dir / "lifted" / "diagnostics.csv")
        self._digest(rep, "compare-reaper", run_dir / "diagnostics.csv")
        return rep

    def sample_curves(self, rep_dir: Path) -> list:
        return self.snapshot_curves(rep_dir / "run")


WORKLOADS = {w.name: w for w in (Evolve, Postprocess)}

"""In-memory span tracer that wraps eightflow's public functions from outside.

A span records (name, start, end, parent).  Functions are wrapped where
their caller looks them up: a module attribute (``flow.step`` is looked up in
``eightflow.flow`` by ``flow.run``), a name imported into another module
(``eightflow.runio.compute_record``), or, for ``PlaneCurve`` validation, the
``__post_init__`` method the dataclass constructor calls.  Nothing under
``src/`` is edited: the wrappers are installed for the timed part of a
repetition and removed afterwards.
"""

from __future__ import annotations

import time
from collections import defaultdict
from functools import reduce
from pathlib import Path


def _run_bytes(run_dir, *names) -> int:
    """Bytes of the named files of a run directory plus its snapshot CSVs."""
    run_dir = Path(run_dir)
    files = [run_dir / name for name in names]
    files += sorted((run_dir / "snapshots").glob("snap_*.csv"))
    return sum(p.stat().st_size for p in files if p.exists())


# (owner, attribute, span name) for every wrapped call site.  The owner is a
# path below the eightflow package; the span is named after the module that
# defines the function, whatever module its caller imported it into.
TARGETS = [
    ("cli", "main", "cli.main"),
    ("gradients", "evolve_gradient_flow", "gradients.evolve_gradient_flow"),
    ("cli", "run", "flow.run"),
    ("gradients", "run", "flow.run"),
    ("flow", "step", "flow.step"),
    ("curves.PlaneCurve", "__post_init__", "curves.PlaneCurve"),
    ("curves", "resample_arclength", "curves.resample_arclength"),
    ("cli", "curve_from_csv", "curves.curve_from_csv"),
    ("runio", "curve_from_csv", "curves.curve_from_csv"),
    ("runio", "curve_to_csv", "curves.curve_to_csv"),
    ("crossings", "find_crossing_near", "crossings.find_crossing_near"),
    ("crossings", "find_self_intersections", "crossings.find_self_intersections"),
    ("flow", "compute_record", "diagnostics.compute_record"),
    ("runio", "compute_record", "diagnostics.compute_record"),
    ("runio", "load_run", "runio.load_run"),
    ("runio", "save_run", "runio.save_run"),
    ("runio", "save_lifted_run", "runio.save_lifted_run"),
    ("runio", "append_margin_column", "runio.append_margin_column"),
    ("contact", "lift_trajectory", "contact.lift_trajectory"),
    ("solitons", "matched_barrier_comparison", "solitons.matched_barrier_comparison"),
    ("gradients", "h1_gradient", "gradients.h1_gradient"),
    ("gradients", "curve_diffusion_speed", "gradients.curve_diffusion_speed"),
    ("gradients", "solve_cyclic", "tridiag.solve_cyclic"),
] + [
    ("monitors", fn, f"monitors.{fn}")
    for fn in ("balanced_invariant_report", "collapse_report",
               "isoperimetric_report", "symmetry_collapse_check")
] + [
    ("shapes", fn, f"shapes.{fn}")
    for fn in ("make_bernoulli_lemniscate", "make_circle", "make_ellipse")
]
SPAN_NAMES = sorted({name for _, _, name in TARGETS})
LAYERS = sorted({name.split(".")[0] for name in SPAN_NAMES})


class Tracer:
    """Spans kept in memory; counters measured at the same boundaries."""

    def __init__(self, ef):
        self._targets = [(reduce(getattr, owner.split("."), ef), attr, name)
                         for owner, attr, name in TARGETS]
        self._patched: list[tuple[object, str, object]] = []
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self.window_hits = 0
        self.bytes_read = 0
        self.bytes_written = 0

    def _after(self, name, args, result) -> None:
        if name == "crossings.find_crossing_near" and result is not None:
            self.window_hits += 1
        elif name == "runio.load_run":
            self.bytes_read += _run_bytes(args[0], "metadata.json")
        elif name in ("runio.save_run", "runio.save_lifted_run"):
            self.bytes_written += _run_bytes(result, "diagnostics.csv", "metadata.json")
        elif name == "runio.append_margin_column":
            self.bytes_written += Path(result).stat().st_size

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            self._after(name, args, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name in self._targets:
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self) -> dict[str, float]:
        """Per-span-name calls and self time, plus the derived ratios."""
        spans = self.spans
        child = defaultdict(float)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        fsi_under_run = 0
        fsi_under_record = 0.0
        resample_passes = 0
        for idx, (name, start, end, parent) in enumerate(spans):
            own = (end - start) - child[idx]
            calls[name] += 1
            self_s[name] += own
            parent_name = spans[parent][0] if parent >= 0 else None
            if name == "crossings.find_self_intersections":
                if parent_name == "flow.run":
                    fsi_under_run += 1
                elif parent_name == "diagnostics.compute_record":
                    fsi_under_record += own
            elif name == "curves.PlaneCurve" and parent_name == "curves.resample_arclength":
                resample_passes += 1

        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = sum(
                v for k, v in self_s.items() if k.split(".")[0] == layer)
        near = calls["crossings.find_crossing_near"]
        out["crossings.window_hit_ratio"] = self.window_hits / near if near else 0.0
        out["crossings.find_self_intersections.under_run.calls"] = fsi_under_run
        out["crossings.find_self_intersections.under_compute_record.self_s"] = fsi_under_record
        resamples = calls["curves.resample_arclength"]
        out["curves.resample_arclength.passes_per_call"] = (
            resample_passes / resamples if resamples else 0.0)
        out["runio.bytes_read"] = self.bytes_read
        out["runio.bytes_written"] = self.bytes_written
        return out

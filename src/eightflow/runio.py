"""On-disk layout of a flow run.

    run_dir/
      diagnostics.csv    one row per snapshot (t,L,A_signed,A_total,...)
      metadata.json      config, flow kind, stop reason, unreached outputs
      snapshots/snap_NNNN.csv   curve samples per snapshot (u,x,y)

A lifted run mirrors the layout with u,x,y,z snapshot files and a
`residual` column appended to the diagnostics.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import contact
from .curves import curve_from_csv, curve_to_csv
from .diagnostics import DiagnosticsRecord, compute_record
from .errors import RowCountMismatch, ValidationError
from .flow import FlowConfig, FlowState, Trajectory, checked_times


def check_new_run_dir(run_dir) -> None:
    """ValidationError when `run_dir` already holds a run, i.e. a metadata.json."""
    if (Path(run_dir) / "metadata.json").exists():
        raise ValidationError(f"{run_dir} already holds a run; choose a new out_dir")


def _write_run(run_dir, header: str, rows, curves, meta: dict) -> Path:
    """The one run-directory writer: diagnostics.csv from a header and rows,
    one snapshot CSV per curve, then metadata.json."""
    run_dir = Path(run_dir)
    snap_dir = run_dir / "snapshots"
    snap_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "diagnostics.csv").write_text("".join(line + "\n" for line in (header, *rows)))
    for k, curve in enumerate(curves):
        curve_to_csv(curve, snap_dir / f"snap_{k:04d}.csv")
    (run_dir / "metadata.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
    return run_dir


def save_run(traj: Trajectory, run_dir: str | Path) -> Path:
    meta = {
        "flow_kind": traj.flow_kind,
        "stop_reason": traj.stop_reason,
        "config": asdict(traj.config),
        "snapshot_times": [s.t for s in traj.states],
        "snapshot_steps": [s.step for s in traj.states],
        "unreached_outputs": traj.unreached_outputs,
    }
    return _write_run(run_dir, DiagnosticsRecord.CSV_COLUMNS,
                      [rec.csv_row() for rec in traj.records],
                      [s.curve for s in traj.states], meta)


def load_run(run_dir: str | Path) -> Trajectory:
    """The trajectory of a stored run; its records are recomputed.

    Raises ValidationError when metadata.json is not JSON or lacks a key,
    when its snapshot times and steps differ in length or do not both start
    at 0 and strictly increase (the times finite, the steps ints), or when its
    config is not a valid FlowConfig.
    """
    run_dir = Path(run_dir)
    path = run_dir / "metadata.json"
    try:
        meta = json.loads(path.read_text())
        times, steps = meta["snapshot_times"], meta["snapshot_steps"]
        snapshots = list(zip(times, steps, strict=True))
        if (times[:1] != [0] or checked_times(times[1:], f"{path} snapshot time") != times[1:]
                or any(type(s) is not int for s in steps) or sorted(set(steps)) != steps
                or steps[:1] != [0]):
            raise ValidationError(f"{path}: snapshot times and steps must start at 0 and increase")
        stop_reason, flow_kind = meta["stop_reason"], meta["flow_kind"]
        config = FlowConfig.from_dict(meta["config"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ValidationError(f"malformed {path}: {exc!r}") from exc
    states = [FlowState(curve=curve_from_csv(run_dir / "snapshots" / f"snap_{k:04d}.csv"),
                        t=t, step=step) for k, (t, step) in enumerate(snapshots)]
    return Trajectory(states=states, records=[compute_record(s.curve, s.t) for s in states],
                      stop_reason=stop_reason, config=config, flow_kind=flow_kind,
                      unreached_outputs=meta.get("unreached_outputs", []))


def save_lifted_run(
    traj: Trajectory, lifted: list[contact.SpaceCurve], residuals: list[float],
    out_dir: str | Path,
) -> Path:
    """Write a lifted trajectory: 3D snapshots, and diagnostics extended by a
    column of their `contact.legendrian_residual`s."""
    meta = {
        "kind": "lifted",
        "z_base": float(lifted[0].z[0]) if lifted else None,
        "max_residual": max(residuals) if residuals else None,
        "snapshot_times": [s.t for s in traj.states],
    }
    return _write_run(out_dir, DiagnosticsRecord.CSV_COLUMNS + ",residual",
                      [rec.csv_row() + f",{res:.17g}" for rec, res in zip(traj.records, residuals)],
                      lifted, meta)


def append_margin_column(run_dir: str | Path, margins: np.ndarray) -> Path:
    """Rewrite diagnostics.csv with a last reaper_margin column.

    A reaper_margin column left by an earlier comparison is replaced, not
    repeated.  Raises RowCountMismatch unless there is one margin per row.
    """
    path = Path(run_dir) / "diagnostics.csv"
    lines = path.read_text().strip().split("\n")
    if len(lines) - 1 != len(margins):
        raise RowCountMismatch(
            f"{len(margins)} margins for {len(lines) - 1} diagnostics rows"
        )
    if lines[0].endswith(",reaper_margin"):
        lines = [line.rsplit(",", 1)[0] for line in lines]
    out = [lines[0] + ",reaper_margin"]
    out += [line + f",{m:.17g}" for line, m in zip(lines[1:], margins)]
    path.write_text("\n".join(out) + "\n")
    return path

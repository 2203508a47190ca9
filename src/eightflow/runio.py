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
from .flow import FlowConfig, FlowState, Trajectory


def save_run(traj: Trajectory, run_dir: str | Path) -> Path:
    run_dir = Path(run_dir)
    snap_dir = run_dir / "snapshots"
    snap_dir.mkdir(parents=True, exist_ok=True)
    with open(run_dir / "diagnostics.csv", "w") as fh:
        fh.write(DiagnosticsRecord.CSV_COLUMNS + "\n")
        for rec in traj.records:
            fh.write(rec.csv_row() + "\n")
    for k, state in enumerate(traj.states):
        curve_to_csv(state.curve, snap_dir / f"snap_{k:04d}.csv")
    meta = {
        "flow_kind": traj.flow_kind,
        "stop_reason": traj.stop_reason,
        "config": asdict(traj.config),
        "snapshot_times": [s.t for s in traj.states],
        "snapshot_steps": [s.step for s in traj.states],
        "unreached_outputs": traj.unreached_outputs,
    }
    with open(run_dir / "metadata.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    return run_dir


def load_run(run_dir: str | Path) -> Trajectory:
    """The trajectory of a stored run; its records are recomputed.

    Raises ValidationError when metadata.json is not JSON or lacks a key, or
    when its config is not a valid FlowConfig.
    """
    run_dir = Path(run_dir)
    path = run_dir / "metadata.json"
    try:
        meta = json.loads(path.read_text())
        snapshots = list(zip(meta["snapshot_times"], meta["snapshot_steps"]))
        stop_reason, flow_kind = meta["stop_reason"], meta["flow_kind"]
        config = FlowConfig.from_dict(meta["config"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ValidationError(f"malformed {path}: {exc!r}") from exc
    states = []
    for k, (t, step) in enumerate(snapshots):
        curve = curve_from_csv(run_dir / "snapshots" / f"snap_{k:04d}.csv")
        states.append(FlowState(curve=curve, t=t, step=step))
    records = [compute_record(s.curve, s.t) for s in states]
    return Trajectory(
        states=states,
        records=records,
        stop_reason=stop_reason,
        config=config,
        flow_kind=flow_kind,
        unreached_outputs=meta.get("unreached_outputs", []),
    )


def save_lifted_run(
    traj: Trajectory, lifted: list[contact.SpaceCurve], out_dir: str | Path
) -> Path:
    """Write a lifted trajectory: 3D snapshots plus residual-extended diagnostics."""
    out_dir = Path(out_dir)
    snap_dir = out_dir / "snapshots"
    snap_dir.mkdir(parents=True, exist_ok=True)
    residuals = [contact.legendrian_residual(c) for c in lifted]
    with open(out_dir / "diagnostics.csv", "w") as fh:
        fh.write(DiagnosticsRecord.CSV_COLUMNS + ",residual\n")
        for rec, res in zip(traj.records, residuals):
            fh.write(rec.csv_row() + f",{res:.17g}\n")
    for k, curve in enumerate(lifted):
        contact.space_curve_to_csv(curve, snap_dir / f"snap_{k:04d}.csv")
    meta = {
        "kind": "lifted",
        "z_base": float(lifted[0].z[0]) if lifted else None,
        "max_residual": max(residuals) if residuals else None,
        "snapshot_times": [s.t for s in traj.states],
    }
    with open(out_dir / "metadata.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    return out_dir


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

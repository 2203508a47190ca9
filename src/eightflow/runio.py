"""On-disk layout of a flow run.

    run_dir/
      diagnostics.csv    one row per snapshot (t,L,A_signed,A_total,...)
      metadata.json      config, flow kind, stop reason, unreached outputs,
                         snapshot times and steps, records, snapshot sha256s
      snapshots/snap_NNNN.csv   curve samples per snapshot (u,x,y)
      report_<monitor>.json     a monitor's report, from `evolve --monitors`
                                or from `report` without --out

diagnostics.csv is written from the records by `_write_diagnostics` alone, for
`evolve`, `lift` and `compare-reaper` (which adds a `reaper_margin` column),
and no command reads it back: `load_run` reads the records, one JSON list per
DiagnosticsRecord field (exact, as JSON writes floats by repr).  It checks
every snapshot's sha256, holds only the digests, and parses a snapshot when a
caller first uses it.  A lifted run mirrors the layout with u,x,y,z snapshot
files and a `residual` column, and holds no records or digests.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Sequence
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np

from . import contact
from .curves import curve_from_csv, curve_to_csv
from .diagnostics import DiagnosticsRecord, compute_record
from .errors import ValidationError
from .flow import FlowConfig, FlowState, Trajectory, checked_times


def check_new_run_dir(run_dir) -> None:
    """ValidationError when `run_dir` already holds a run, i.e. a metadata.json."""
    if (Path(run_dir) / "metadata.json").exists():
        raise ValidationError(f"{run_dir} already holds a run; choose a new out_dir")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_diagnostics(run_dir: Path, records, column=None) -> Path:
    """The one diagnostics.csv writer: CSV_COLUMNS and one csv_row() per record,
    each line extended by one %.17g value given a `(name, values)` column."""
    lines = [DiagnosticsRecord.CSV_COLUMNS, *(rec.csv_row() for rec in records)]
    if column is not None:
        cells = [column[0], *(f"{value:.17g}" for value in column[1])]
        lines = [f"{line},{cell}" for line, cell in zip(lines, cells, strict=True)]
    path = run_dir / "diagnostics.csv"
    path.write_text("".join(line + "\n" for line in lines))
    return path


def _write_run(run_dir, records, curves, meta: dict, column=None, digests: bool = False) -> Path:
    """The one run-directory writer: diagnostics.csv from the records and
    `column` by _write_diagnostics (no command reads it back), one snapshot CSV
    per curve, then metadata.json, which holds the sha256 of the bytes each
    snapshot write returned under `snapshot_sha256` when `digests` is set."""
    run_dir = Path(run_dir)
    snap_dir = run_dir / "snapshots"
    snap_dir.mkdir(parents=True, exist_ok=True)
    _write_diagnostics(run_dir, records, column)
    sha256 = [_sha256(curve_to_csv(curve, snap_dir / f"snap_{k:04d}.csv"))
              for k, curve in enumerate(curves)]
    if digests:
        meta = {**meta, "snapshot_sha256": sha256}
    (run_dir / "metadata.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
    return run_dir


def save_run(traj: Trajectory, run_dir: str | Path) -> Path:
    """Write a trajectory's run directory (see the module docstring)."""
    meta = {
        "flow_kind": traj.flow_kind,
        "stop_reason": traj.stop_reason,
        "config": asdict(traj.config),
        "snapshot_times": [s.t for s in traj.states],
        "snapshot_steps": [s.step for s in traj.states],
        "unreached_outputs": traj.unreached_outputs,
        "records": {f.name: [getattr(rec, f.name) for rec in traj.records]
                    for f in fields(DiagnosticsRecord)},
    }
    return _write_run(run_dir, traj.records, [s.curve for s in traj.states], meta, digests=True)


def _matches(stored, fresh) -> bool:
    """Whether a stored record value is `fresh`, compute_record's now: floats
    (the crossing point's too) to a relative 1e-9, which a last-bit numpy or
    CPU difference passes, and ints, None and the crossing segments exactly.
    The float rule is np.isclose's (atol 1e-12, equal_nan), without numpy."""
    if isinstance(fresh, float):
        if not isinstance(stored, float):
            return False
        if math.isfinite(stored) and math.isfinite(fresh):
            return abs(stored - fresh) <= 1e-12 + 1e-9 * abs(fresh)
        return stored == fresh or (stored != stored and fresh != fresh)
    if isinstance(fresh, tuple) and isinstance(stored, tuple) and len(stored) == len(fresh):
        return all(map(_matches, stored, fresh))
    return stored == fresh


def _checked_bytes(path: str, digest: str) -> bytes:
    """The bytes of a snapshot file; ValidationError unless their sha256 is `digest`."""
    with open(path, "rb") as fh:
        data = fh.read()
    if _sha256(data) != digest:
        raise ValidationError(f"{path} differs from the snapshot the run saved")
    return data


class _Snapshots(Sequence):
    """A loaded run's states.  Each is parsed on first use from its file,
    checked again against its digest (ValidationError if it changed since
    the load), and kept."""

    def __init__(self, files: list[tuple[str, str] | None], times: list, steps: list[int]):
        self._files, self._times, self._steps = files, times, steps
        self._states: list[FlowState | None] = [None] * len(files)

    def __len__(self) -> int:
        return len(self._states)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        k = range(len(self))[k]
        if self._states[k] is None:
            path, digest = self._files[k]
            curve = curve_from_csv(path, _checked_bytes(path, digest))
            self._states[k] = FlowState(curve=curve, t=self._times[k], step=self._steps[k])
            self._files[k] = None
        return self._states[k]


def load_run(run_dir: str | Path) -> Trajectory:
    """The trajectory of a stored run: its records read from metadata.json,
    every snapshot's sha256 checked now, and each state parsed on first use.

    Raises ValidationError when metadata.json is not JSON or lacks a key,
    when its snapshot times and steps differ in length or do not both start
    at 0 and strictly increase (the times finite, the steps ints), when its
    config is not a valid FlowConfig, when it lacks the digests or a record
    field (an older run: re-run it), when the records' times are not the
    snapshot times, when a snapshot's sha256 is not its digest, or when
    compute_record disagrees with the last record (a stale run).  A state
    whose file changed after the load raises ValidationError on first use.
    """
    run_dir = Path(run_dir)
    path = run_dir / "metadata.json"
    try:
        meta = json.loads(path.read_text())
        times, steps = meta["snapshot_times"], meta["snapshot_steps"]
        if (times[:1] != [0] or checked_times(times[1:], f"{path} snapshot time") != times[1:]
                or any(type(s) is not int for s in steps) or sorted(set(steps)) != steps
                or steps[:1] != [0]):
            raise ValidationError(f"{path}: snapshot times and steps must start at 0 and increase")
        stop_reason, flow_kind = meta["stop_reason"], meta["flow_kind"]
        config = FlowConfig.from_dict(meta["config"])
        columns = meta.get("records", {})
        names = [f.name for f in fields(DiagnosticsRecord)]
        if "snapshot_sha256" not in meta or not set(names) <= columns.keys():
            raise ValidationError(f"{path} holds no snapshot digests or not every record "
                                  "field, as a run saved by an older version; re-run it")
        records = [DiagnosticsRecord(*[tuple(value) if isinstance(value, list) else value
                                       for value in row])
                   for row in zip(*[columns[name] for name in names], strict=True)]
        snapshots = list(zip(times, steps, meta["snapshot_sha256"], records, strict=True))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ValidationError(f"malformed {path}: {exc!r}") from exc
    files = []
    snap_dir = run_dir / "snapshots"
    for k, (t, _, digest, record) in enumerate(snapshots):
        if record.t != t:
            raise ValidationError(f"{path}: record {k} is not at snapshot time {t!r}")
        snap = f"{snap_dir}/snap_{k:04d}.csv"
        _checked_bytes(snap, digest)
        files.append((snap, digest))
    states = _Snapshots(files, times, steps)
    fresh = compute_record(states[-1].curve, states[-1].t)
    if not all(map(_matches, astuple(records[-1]), astuple(fresh))):
        raise ValidationError(f"{path}: the last record is not what the diagnostics give for "
                              "the last snapshot; re-run it")
    return Trajectory(states=states, records=records,
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
        "z_base": float(lifted[0].z[0]),
        "max_residual": max(residuals),
        "snapshot_times": [s.t for s in traj.states],
    }
    return _write_run(out_dir, traj.records, lifted, meta, ("residual", residuals))


def append_margin_column(traj: Trajectory, margins: np.ndarray, run_dir: str | Path) -> Path:
    """Rebuild the diagnostics.csv of `traj`, loaded from `run_dir`, from its
    records with one reaper_margin column, replacing an earlier comparison's."""
    return _write_diagnostics(Path(run_dir), traj.records, ("reaper_margin", margins))

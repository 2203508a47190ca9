"""Command-line front end.

Subcommands: generate, evolve, lift, report, compare-reaper.  `evolve` runs
one RunSpec per call, and every curve file it reads or writes is CSV.
Exit codes: 0 success, 1 validation/precondition failure, 2 numerical
failure, 3 I/O.
Every failure path prints a single line `ERROR <Kind>: <message>` on stderr.
Runs are deterministic: identical inputs produce byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import contact, monitors, runio, solitons
from .curves import curve_from_csv, curve_to_csv
from .diagnostics import compute_record
from .errors import EightflowError, ValidationError
from .flow import FlowConfig, checked_numbers, checked_times, run
from .gradients import FLOWS
from .shapes import (
    make_asymmetric_eight,
    make_bernoulli_lemniscate,
    make_circle,
    make_ellipse,
)

# Each generator's maker and the parameters it reads, in the maker's order.
_GENERATORS = {
    "lemniscate": (make_bernoulli_lemniscate, ("a", "n")),
    "circle": (make_circle, ("r", "n")),
    "ellipse": (make_ellipse, ("a", "b", "n")),
    "asymmetric-eight": (make_asymmetric_eight, ("ratio", "n")),
}

# Each generator parameter's default and `generate` help; the default also
# serves RunSpec generators that leave the parameter out.
_GENERATOR_PARAMS = {"a": (1.0, "scale / semi-axis"), "b": (1.0, "ellipse minor semi-axis"),
                     "r": (1.0, "circle radius"), "ratio": (1.5, "eight loop ratio"),
                     "n": (256, "sample count")}

# Each monitor's report function in `monitors` (looked up by name at each
# call, so a wrapper set on the module attribute sees it) and the `report`
# flags it reads.  A flag sets the keyword parameter of the same name in
# lower case; a flag left out, and every parameter under `evolve --monitors`,
# takes the function's default.
_MONITORS = {
    "balanced": ("balanced_invariant_report", ()),
    "collapse": ("collapse_report", ("--alphas",)),
    "isoperimetric": ("isoperimetric_report", ("--M", "--alpha")),
    "symmetry": ("symmetry_collapse_check", ()),
}


def _checked_generator(gen) -> dict:
    """`gen`, a generator object, with the defaults of the parameters its
    generator reads filled in, once its name is known and each other key is a
    number parameter that generator reads; else ValidationError."""
    name = gen.get("name") if isinstance(gen, dict) else None
    if not isinstance(name, str) or name not in _GENERATORS:
        raise ValidationError(f"unknown generator {name!r}")
    defaults = {k: _GENERATOR_PARAMS[k][0] for k in _GENERATORS[name][1]}
    params = {k: v for k, v in gen.items() if k != "name"}
    return {"name": name, **defaults, **checked_numbers(params, defaults, f"{name} parameter")}


def _generated(gen: dict):
    """The initial curve of a checked generator object."""
    maker, params = _GENERATORS[gen["name"]]
    return maker(*(gen[k] for k in params))


@dataclass(frozen=True)
class RunSpec:
    """One checked `evolve` run: the README's RunSpec keys, generator defaults
    filled in, the FlowConfig built."""

    out_dir: str
    curve_file: str | None = None
    generator: dict | None = None
    flow: str = "csf"
    config: FlowConfig = FlowConfig()
    output_times: tuple[float, ...] = ()
    t_end: float = np.inf
    monitors: tuple[str, ...] = ()

    @classmethod
    def from_dict(cls, spec: dict) -> RunSpec:
        """The run a RunSpec JSON object describes, once every key is a field, every
        value usable and out_dir free of an earlier run; else ValidationError.
        A null value means the key was left out."""
        spec = {k: v for k, v in spec.items() if v is not None}
        unknown = sorted(set(spec) - {f.name for f in fields(cls)})
        if unknown:
            raise ValidationError(f"unknown RunSpec key {unknown[0]!r}")
        out_dir = spec.get("out_dir")
        if not out_dir or not isinstance(out_dir, str):
            raise ValidationError(f"RunSpec needs an out_dir path, not {out_dir!r}")
        runio.check_new_run_dir(out_dir)
        curve_file, gen = spec.get("curve_file"), spec.get("generator")
        if curve_file is not None:
            if not curve_file or not isinstance(curve_file, str):
                raise ValidationError(f"curve_file must be a path, not {curve_file!r}")
            if gen is not None:
                raise ValidationError("RunSpec names both a curve_file and a generator")
        elif gen is None:
            raise ValidationError("RunSpec needs a curve_file or a generator")
        else:
            gen = _checked_generator(gen)
        flow = spec.get("flow", cls.flow)
        if not isinstance(flow, str) or flow not in FLOWS:
            raise ValidationError(f"unknown flow kind {flow!r}")
        t_end = checked_times([spec["t_end"]], "t_end")[0] if "t_end" in spec else np.inf
        times = spec.get("output_times", [])
        if not isinstance(times, list):
            raise ValidationError(f"RunSpec output_times must be a list of numbers, not {times!r}")
        times = checked_times(times, "output time")
        names = spec.get("monitors", [])
        if not isinstance(names, list) or not all(
                isinstance(name, str) and name in _MONITORS for name in names):
            raise ValidationError(
                f"RunSpec monitors must be a list of names from {sorted(_MONITORS)}, "
                f"not {names!r}")
        return cls(**{
            **spec, "curve_file": curve_file, "generator": gen, "flow": flow,
            "config": FlowConfig.from_dict(spec.get("config", {})),
            "output_times": tuple(times), "t_end": t_end, "monitors": tuple(names)})


def _record_line(rec) -> str:
    return (
        f"t={rec.t:g} L={rec.length:.8g} A_signed={rec.area_signed:.8g} "
        f"A_total={rec.area_total:.8g} total_curvature={rec.total_curvature:.3g} "
        f"osc_theta={rec.osc_theta:.8g} inflections={rec.inflections} "
        f"crossings={rec.crossing_count} ell={rec.x_extent:.8g} "
        f"Q={rec.isoperimetric_q:.8g}"
    )


def _listed(kind, flag: str):
    """The argparse type of a comma-separated list of `kind`s; a malformed list,
    or one with an empty entry, raises ValidationError, so `main` parses inside
    its error handling."""
    def parse(s: str) -> list:
        tokens = s.split(",")
        if "" in tokens:
            raise ValidationError(f"{flag} has an empty entry in {s!r}")
        try:
            return [kind(tok) for tok in tokens]
        except ValueError:
            raise ValidationError(f"{flag} must be comma-separated numbers, not {s!r}") from None
    return parse


def cmd_generate(args) -> int:
    params = {k: getattr(args, k) for k in _GENERATOR_PARAMS if getattr(args, k) is not None}
    curve = _generated(_checked_generator({"name": args.generator, **params}))
    curve_to_csv(curve, args.out)
    print(_record_line(compute_record(curve, 0.0)))
    print(f"wrote {args.out}")
    return 0


def _read_spec(path: str) -> dict:
    """One RunSpec file: a JSON object, or ValidationError."""
    try:
        spec = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ValidationError(f"RunSpec {path} is not JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise ValidationError(f"RunSpec {path} is not a JSON object")
    return spec


def _run_spec(spec: RunSpec) -> str:
    """Run, save and monitor one RunSpec; returns the run's summary text."""
    gen = spec.generator
    curve = _generated(gen) if gen is not None else curve_from_csv(spec.curve_file)
    traj = run(curve, spec.config, spec.output_times, flow=FLOWS[spec.flow], t_end=spec.t_end)

    runio.save_run(traj, spec.out_dir)
    for monitor in spec.monitors:
        rep = getattr(monitors, _MONITORS[monitor][0])(traj)
        path = Path(spec.out_dir) / f"report_{monitor}.json"
        path.write_text(rep.to_json() + "\n")

    lines = [_record_line(traj.records[-1]), f"stop_reason={traj.stop_reason}"]
    if gen is not None and gen["name"] == "circle" and traj.stop_reason == "time":
        exact = solitons.shrinking_circle(gen["r"], traj.times[-1])
        pts = traj.states[-1].curve.points
        measured = float(np.linalg.norm(pts - pts.mean(axis=0), axis=1).mean())
        lines.append(f"shrinking_circle_check rel_error={abs(measured - exact) / exact:.3e}")
    lines.append(f"run complete: {spec.out_dir}")
    return "\n".join(lines)


def _with_flags(args, spec: dict) -> dict:
    """`spec`, a RunSpec file's object or {}, with the given evolve flags laid
    over it.  Flags override file values, and `--curve` replaces the file's
    curve source; `RunSpec.from_dict` checks the result."""
    def given(dests):
        return {d: getattr(args, d) for d in dests if getattr(args, d) is not None}

    if args.curve_file is not None:
        spec = {k: v for k, v in spec.items() if k != "generator"}
    spec |= given(("curve_file", "flow", "out_dir", "output_times", "t_end", "monitors"))
    config = given(f.name for f in fields(FlowConfig))
    if config:
        base = {} if spec.get("config") is None else spec["config"]
        # A base that is not an object stays, for from_dict to reject.
        spec["config"] = {**base, **config} if isinstance(base, dict) else base
    return spec


def cmd_evolve(args) -> int:
    spec = _read_spec(args.spec) if args.spec else {}
    print(_run_spec(RunSpec.from_dict(_with_flags(args, spec))))
    return 0


def cmd_lift(args) -> int:
    out_dir = args.out_dir or str(Path(args.run_dir) / "lifted")
    runio.check_new_run_dir(out_dir)
    traj = runio.load_run(args.run_dir)
    lifted = contact.lift_trajectory(traj, args.z_base)
    residuals = [contact.legendrian_residual(c) for c in lifted]
    runio.save_lifted_run(traj, lifted, residuals, out_dir)
    print(f"lifted {len(lifted)} snapshots, max residual {max(residuals):.3e}")
    print(f"lift complete: {out_dir}")
    return 0


def cmd_report(args) -> int:
    report, reads = _MONITORS[args.monitor]
    params = {}
    for flag in ("--M", "--alpha", "--alphas"):
        value = getattr(args, flag[2:])
        if value is not None:
            if flag not in reads:
                raise ValidationError(f"{flag} does not apply to monitor {args.monitor}")
            params[flag[2:].lower()] = value
    if "m" in params and not 0.0 < params["m"] < np.inf:
        raise ValidationError(f"M {params['m']!r} is not finite and positive")
    # No monitor reads both --alpha and --alphas.
    for alpha in params.get("alphas", [params["alpha"]] if "alpha" in params else []):
        if not 0.0 <= alpha < np.inf:
            raise ValidationError(f"alpha {alpha!r} is not finite and non-negative")
    traj = runio.load_run(args.run_dir)
    rep = getattr(monitors, report)(traj, **params)
    out = Path(args.out or Path(args.run_dir) / f"report_{args.monitor}.json")
    out.write_text(rep.to_json() + "\n")
    print(rep.to_text())
    print(f"report written: {out}")
    return 0


def cmd_compare_reaper(args) -> int:
    if (args.c0 is None) != (args.tau0 is None):
        raise ValidationError("--c0 and --tau0 must be given together")
    traj = runio.load_run(args.run_dir)
    if args.c0 is not None:
        reaper = solitons.GrimReaper(c0=args.c0, tau0=args.tau0)
        cmp_ = solitons.barrier_comparison(traj, reaper)
    else:
        cmp_ = solitons.matched_barrier_comparison(traj)
        print(f"matched reaper: C0={cmp_.reaper.c0:.6g} tau0={cmp_.reaper.tau0:.6g} "
              f"rectangle_contained={cmp_.initial_contained}")

    margins, push, final_x = cmp_.margins, cmp_.push, cmp_.final_rightmost_x
    padded = np.full(len(traj.states), np.nan)
    padded[:len(margins)] = margins
    runio.append_margin_column(traj, padded, args.run_dir)
    print(f"margins: min={np.nanmin(margins):.6g} "
          f"all_positive={bool(np.all(margins > 0))}")
    # A barrier that does not move left pushes nothing past it; the slack is
    # 1% of the push, so the verdict does not change with the curve's scale.
    pushed = "n/a" if push <= 0 else final_x <= -0.99 * push
    print(f"push_distance={push:.7g} final_rightmost_x={final_x:.6g} pushed_past={pushed}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eightflow",
        description="Curve shortening flow of figure-eights, Legendrian lifts, "
                    "and comparison solutions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write an initial curve CSV file")
    p.add_argument("generator", choices=sorted(_GENERATORS))
    for name, (default, text) in _GENERATOR_PARAMS.items():
        p.add_argument(f"--{name}", type=type(default), help=text)
    p.add_argument("--out", required=True, help="curve CSV file")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("evolve", help="run a flow and write a run directory")
    p.add_argument("--spec", help="RunSpec JSON file")
    p.add_argument("--curve", dest="curve_file", help="input curve CSV file")
    p.add_argument("--flow", choices=FLOWS)
    p.add_argument("--out-dir")
    p.add_argument("--times", dest="output_times", type=_listed(float, "--times"),
                   help="comma-separated output times")
    p.add_argument("--t-end", type=float)
    for f in fields(FlowConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default))
    p.add_argument("--monitors", type=_listed(str, "--monitors"),
                   help="comma-separated monitors, each at report's defaults")
    p.set_defaults(fn=cmd_evolve)

    p = sub.add_parser("lift", help="lift a run to Legendrian curves")
    p.add_argument("run_dir")
    p.add_argument("--z-base", type=float, default=0.0)
    p.add_argument("--out-dir")
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("report", help="run a monitor over a stored run")
    p.add_argument("run_dir")
    p.add_argument("--monitor", required=True, choices=sorted(_MONITORS))
    p.add_argument("--M", type=float, help="isoperimetric only")
    p.add_argument("--alpha", type=float, help="isoperimetric only")
    p.add_argument("--alphas", type=_listed(float, "--alphas"),
                   help="comma-separated alphas; collapse only")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("compare-reaper", help="grim-reaper barrier comparison")
    p.add_argument("run_dir")
    p.add_argument("--c0", type=float)
    p.add_argument("--tau0", type=float)
    p.set_defaults(fn=cmd_compare_reaper)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (EightflowError, OSError) as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, OSError) else 1 if isinstance(exc, ValidationError) else 2


if __name__ == "__main__":
    sys.exit(main())

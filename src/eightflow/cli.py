"""Command-line front end.

Subcommands: generate, evolve, lift, report, compare-reaper.  Exit codes:
0 success, 1 validation/precondition failure, 2 numerical failure, 3 I/O.
Every failure path prints a single line `ERROR <Kind>: <message>` on stderr.
Runs are deterministic: identical inputs produce byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import contact, monitors, runio, solitons
from .curves import (
    PlaneCurve,
    curve_from_csv,
    curve_from_json,
    curve_to_csv,
    curve_to_json,
)
from .diagnostics import compute_record
from .errors import EightflowError, ValidationError
from .flow import FlowConfig, checked_numbers, estimate_extinction_time, run
from .gradients import FLOW_KINDS, evolve_gradient_flow
from .shapes import (
    make_asymmetric_eight,
    make_bernoulli_lemniscate,
    make_circle,
    make_ellipse,
)

_GENERATORS = {
    "lemniscate": lambda a: make_bernoulli_lemniscate(a.a, a.n),
    "circle": lambda a: make_circle(a.r, a.n),
    "ellipse": lambda a: make_ellipse(a.a, a.b, a.n),
    "asymmetric-eight": lambda a: make_asymmetric_eight(a.ratio, a.n),
}

# Generator parameters and their defaults, for the CLI flags and for RunSpec
# generators that leave a parameter out.
_GENERATOR_DEFAULTS = {"a": 1.0, "b": 1.0, "r": 1.0, "ratio": 1.5, "n": 256}
_GENERATOR_HELP = {"a": "scale / semi-axis", "b": "ellipse minor semi-axis",
                   "r": "circle radius", "ratio": "eight loop ratio",
                   "n": "sample count"}
_FLOW_DEFAULTS = {f.name: f.default for f in fields(FlowConfig)}
# `evolve` flags that override one RunSpec's values; none applies to several.
_RUN_FLAGS = ("curve", "generator", "flow", "out_dir", "times", "t_end",
              *_FLOW_DEFAULTS, "monitors")
# RunSpec numbers outside the generator and the config, each with a value of
# its type for `checked_numbers`.
_SPEC_NUMBERS = {"t_end": 1.0, "M": 1.0, "alpha": 0.01}

# Monitor reports by name; each reads its parameters from a RunSpec or from
# the `report` flags.
_MONITORS = {
    "balanced": lambda traj, p: monitors.balanced_invariant_report(traj),
    "collapse": lambda traj, p: monitors.collapse_report(
        traj, p.get("alphas") or (0.005, 0.01, 0.0144)),
    "isoperimetric": lambda traj, p: monitors.isoperimetric_report(
        traj, p.get("M", 1.0), p.get("alpha", 0.01)),
    "symmetry": lambda traj, p: monitors.symmetry_collapse_check(traj),
}


def _add_generator_args(parser: argparse.ArgumentParser, flag: str) -> None:
    """The generator choice (positional or `--generator`) and its parameters."""
    parser.add_argument(flag, choices=sorted(_GENERATORS))
    for name, default in _GENERATOR_DEFAULTS.items():
        parser.add_argument(f"--{name}", type=type(default), default=default,
                            help=_GENERATOR_HELP[name])


def _record_line(rec) -> str:
    return (
        f"t={rec.t:g} L={rec.length:.8g} A_signed={rec.area_signed:.8g} "
        f"A_total={rec.area_total:.8g} total_curvature={rec.total_curvature:.3g} "
        f"osc_theta={rec.osc_theta:.8g} inflections={rec.inflections} "
        f"crossings={rec.crossing_count} ell={rec.x_extent:.8g} "
        f"Q={rec.isoperimetric_q:.8g}"
    )


def _numbers(text: str, flag: str) -> list[float]:
    """The numbers of a comma-separated list flag; else ValidationError."""
    try:
        return [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise ValidationError(f"{flag} must be comma-separated numbers, not {text!r}") from None


def cmd_generate(args) -> int:
    curve = _GENERATORS[args.generator](args)
    if args.format == "json":
        curve_to_json(curve, args.out)
    else:
        curve_to_csv(curve, args.out)
    print(_record_line(compute_record(curve, 0.0)))
    print(f"wrote {args.out}")
    return 0


def _load_curve(path: str) -> PlaneCurve:
    if path.endswith(".json"):
        return curve_from_json(path)
    return curve_from_csv(path)


def _read_spec(path: str) -> dict:
    """One RunSpec file: a JSON object, or ValidationError."""
    try:
        spec = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ValidationError(f"RunSpec {path} is not JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise ValidationError(f"RunSpec {path} is not a JSON object")
    return spec


def _check_spec(spec: dict) -> FlowConfig:
    """The RunSpec's FlowConfig, once every value of the spec has been checked
    to be usable and out_dir to hold no earlier run; else ValidationError."""
    out_dir = spec.get("out_dir")
    if not out_dir or not isinstance(out_dir, str):
        raise ValidationError(f"RunSpec needs an out_dir path, not {out_dir!r}")
    if (Path(out_dir) / "metadata.json").exists():
        raise ValidationError(f"{out_dir} already holds a run; choose a new out_dir")
    if spec.get("curve_file"):
        if not isinstance(spec["curve_file"], str):
            raise ValidationError(f"curve_file must be a path, not {spec['curve_file']!r}")
    else:
        gen = spec.get("generator") or {}
        name = gen.get("name") if isinstance(gen, dict) else None
        if not isinstance(name, str) or name not in _GENERATORS:
            raise ValidationError(f"unknown generator {name!r}")
        params = {k: v for k, v in gen.items() if k != "name"}
        checked_numbers(params, _GENERATOR_DEFAULTS, "generator parameter")
    if spec.get("flow", "csf") not in ("csf",) + FLOW_KINDS:
        raise ValidationError(f"unknown flow kind {spec['flow']!r}")
    # A null t_end means no end time; M and alpha have no such reading.
    numbers = {k: v for k, v in spec.items()
               if k in ("M", "alpha") or (k == "t_end" and v is not None)}
    checked_numbers(numbers, _SPEC_NUMBERS, "RunSpec value")
    if "t_end" in numbers and not 0.0 < numbers["t_end"] < np.inf:
        raise ValidationError(f"t_end must be finite and positive, not {numbers['t_end']!r}")
    for key in ("output_times", "alphas"):
        values = spec.get(key) or []
        if not isinstance(values, list):
            raise ValidationError(f"RunSpec {key} must be a list of numbers, not {values!r}")
        checked_numbers(dict(enumerate(values)), dict.fromkeys(range(len(values)), 1.0),
                        f"{key} entry")
    names = spec.get("monitors") or []
    if not isinstance(names, list) or not all(
            isinstance(name, str) and name in _MONITORS for name in names):
        raise ValidationError(
            f"RunSpec monitors must be a list of names from {sorted(_MONITORS)}, "
            f"not {names!r}")
    return FlowConfig.from_dict(spec.get("config") or {})


def _run_spec(spec: dict, config: FlowConfig) -> str:
    """Run, save and monitor one RunSpec checked by `_check_spec`, which gave
    `config`; returns the run's summary text."""
    generator = None if spec.get("curve_file") else spec["generator"]
    if generator is None:
        curve = _load_curve(spec["curve_file"])
    else:
        make = _GENERATORS[generator["name"]]
        curve = make(argparse.Namespace(**{**_GENERATOR_DEFAULTS, **generator}))

    flow_kind = spec.get("flow", "csf")
    times = spec.get("output_times") or ()
    t_end = spec.get("t_end")
    out_dir = spec["out_dir"]
    if flow_kind == "csf":
        traj = run(curve, config, times, t_end=t_end)
    else:
        traj = evolve_gradient_flow(curve, flow_kind, config, times, t_end=t_end)

    runio.save_run(traj, out_dir)
    for monitor in spec.get("monitors") or []:
        rep = _MONITORS[monitor](traj, spec)
        path = Path(out_dir) / f"report_{monitor}.json"
        path.write_text(rep.to_json() + "\n")

    lines = [_record_line(traj.records[-1]), f"stop_reason={traj.stop_reason}"]
    if generator and generator["name"] == "circle" and traj.stop_reason == "time":
        r0 = generator.get("r", _GENERATOR_DEFAULTS["r"])
        exact = solitons.shrinking_circle(r0, traj.times[-1])
        pts = traj.states[-1].curve.points
        measured = float(np.linalg.norm(pts - pts.mean(axis=0), axis=1).mean())
        lines.append(f"shrinking_circle_check rel_error={abs(measured - exact) / exact:.3e}")
    lines.append(f"run complete: {out_dir}")
    return "\n".join(lines)


def _flag_spec(args, base: dict) -> dict:
    """`base` with the evolve flags laid over it; flags override file values."""
    if args.curve:
        base["curve_file"] = args.curve
        base.pop("generator", None)
    if args.generator:
        base["generator"] = {"name": args.generator,
                             **{k: getattr(args, k) for k in _GENERATOR_DEFAULTS}}
        base.pop("curve_file", None)
    if args.flow:
        base["flow"] = args.flow
    if args.out_dir:
        base["out_dir"] = args.out_dir
    if args.times:
        base["output_times"] = _numbers(args.times, "--times")
    if args.t_end is not None:
        base["t_end"] = args.t_end
    config = dict(checked_numbers(base.get("config") or {}, _FLOW_DEFAULTS, "FlowConfig field"))
    for name in _FLOW_DEFAULTS:
        value = getattr(args, name)
        if value is not None:
            config[name] = value
    base["config"] = config
    if args.monitors:
        base["monitors"] = [tok for tok in args.monitors.split(",") if tok]
    return base


def cmd_evolve(args) -> int:
    spec_files = args.spec or []
    if args.jobs < 1:
        raise ValidationError(f"--jobs must be at least 1, not {args.jobs}")
    if len(spec_files) > 1:
        given = [name for name in _RUN_FLAGS if getattr(args, name) is not None]
        if given:
            flags = ", ".join("--" + name.replace("_", "-") for name in given)
            raise ValidationError(f"{flags} cannot combine with multiple specs")
        specs = [_read_spec(p) for p in spec_files]
    else:
        specs = [_flag_spec(args, _read_spec(spec_files[0]) if spec_files else {})]
    configs = [_check_spec(spec) for spec in specs]

    # A fork-started pool forks all its workers at the first submit.
    jobs = min(args.jobs, len(specs))
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        for summary in (pool.map if pool else map)(_run_spec, specs, configs):
            print(summary)
    return 0


def cmd_lift(args) -> int:
    traj = runio.load_run(args.run_dir)
    lifted = contact.lift_trajectory(traj, args.z_base)
    out_dir = args.out_dir or str(Path(args.run_dir) / "lifted")
    runio.save_lifted_run(traj, lifted, out_dir)
    worst = max(contact.legendrian_residual(c) for c in lifted)
    print(f"lifted {len(lifted)} snapshots, max residual {worst:.3e}")
    print(f"lift complete: {out_dir}")
    return 0


def cmd_report(args) -> int:
    traj = runio.load_run(args.run_dir)
    params = {"M": args.M, "alpha": args.alpha}
    if args.alphas:
        params["alphas"] = _numbers(args.alphas, "--alphas")
    rep = _MONITORS[args.monitor](traj, params)
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
        t_max = estimate_extinction_time(traj).t_max
        cmp_ = solitons.matched_barrier_comparison(traj, t_max)
        print(f"matched reaper: C0={cmp_.reaper.c0:.6g} tau0={cmp_.reaper.tau0:.6g} "
              f"rectangle_contained={cmp_.initial_contained}")

    margins, push, final_x = cmp_.margins, cmp_.push, cmp_.final_rightmost_x
    padded = np.full(len(traj.states), np.nan)
    padded[:len(margins)] = margins
    runio.append_margin_column(args.run_dir, padded)
    print(f"margins: min={np.nanmin(margins):.6g} "
          f"all_positive={bool(np.all(margins > 0))}")
    print(f"push_distance={push:.7g} final_rightmost_x={final_x:.6g} "
          f"pushed_past={final_x <= -push + 1e-2}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eightflow",
        description="Curve shortening flow of figure-eights, Legendrian lifts, "
                    "and comparison solutions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write an initial curve file")
    _add_generator_args(p, "generator")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("evolve", help="run a flow and write a run directory")
    p.add_argument("--spec", nargs="*", help="RunSpec JSON file(s)")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel runs when several specs are given")
    p.add_argument("--curve", help="input curve file (csv or json)")
    _add_generator_args(p, "--generator")
    p.add_argument("--flow", choices=("csf",) + FLOW_KINDS)
    p.add_argument("--out-dir")
    p.add_argument("--times", help="comma-separated snapshot times")
    p.add_argument("--t-end", type=float)
    p.add_argument("--cfl", type=float)
    p.add_argument("--cfl4", type=float)
    p.add_argument("--remesh-every", type=int, dest="remesh_every")
    p.add_argument("--stop-area-frac", type=float, dest="stop_area_frac")
    p.add_argument("--stop-kappa-h", type=float, dest="stop_kappa_h")
    p.add_argument("--max-steps", type=int, dest="max_steps")
    p.add_argument("--monitors", help="comma-separated monitor names")
    p.set_defaults(fn=cmd_evolve)

    p = sub.add_parser("lift", help="lift a run to Legendrian curves")
    p.add_argument("run_dir")
    p.add_argument("--z-base", type=float, default=0.0, dest="z_base")
    p.add_argument("--out-dir")
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("report", help="run a monitor over a stored run")
    p.add_argument("run_dir")
    p.add_argument("--monitor", required=True, choices=sorted(_MONITORS))
    p.add_argument("--M", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--alphas", help="comma-separated alphas for collapse")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("compare-reaper", help="grim-reaper barrier comparison")
    p.add_argument("run_dir")
    p.add_argument("--c0", type=float)
    p.add_argument("--tau0", type=float)
    p.set_defaults(fn=cmd_compare_reaper)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except EightflowError as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

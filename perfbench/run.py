"""eightflow benchmark: end-to-end metrics, or per-layer metrics when traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload evolve --seed 1 --seconds 35 --trace 0

With `--trace 0` it sets the workload up several times, then repeats the
workload's timed operations until `--seconds` have passed and prints
setup_s, wall_s and peak_rss_mb (medians over the samples).  With
`--trace 1` it runs a warm-up, a traced and an untraced repetition, then the
micro-timings, and prints the per-layer metrics named in BENCHMARK.json.
The last line of standard output is the result object; the lines before it
name every metric with its unit.
See perfbench/DESIGN.md for the workloads and what each metric should move.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("evolve", "postprocess")
# BLAS/OpenMP pools are capped at one thread before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUPS = 3           # set-ups per untraced run; setup_s is their median
MIN_REPS = 2         # repetitions per untraced run, even past --seconds
SCALE_BAND = 0.02    # the seed draws the curve scale a from [1 - band, 1 + band]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(np, scipy) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


class Tally:
    """Operations attempted and failed, steps and output digests over reps."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.steps: list[int] = []
        self.digests: dict[str, set[str]] = {}

    def add(self, rep) -> None:
        self.attempted += rep.attempted
        self.failed += len(rep.failed_ops)
        self.problems += rep.problems
        self.steps.append(rep.steps)
        for key, digest in rep.digests.items():
            self.digests.setdefault(key, set()).add(digest)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted


def measure(wl, work, seconds, tally) -> dict:
    setups = []
    for k in range(SETUPS):
        start = time.perf_counter()
        wl.make_inputs(work / f"setup{k}")
        wl.finish_setup(work / f"setup{k}")
        setups.append(time.perf_counter() - start)
    walls = []
    begin = time.perf_counter()
    while len(walls) < MIN_REPS or time.perf_counter() - begin < seconds:
        rep_dir = work / f"rep{len(walls)}"
        wall, rep = wl.repetition(rep_dir)
        walls.append(wall)
        tally.add(rep)
        shutil.rmtree(rep_dir, ignore_errors=True)
    return {"setups": setups, "walls": walls}


def measure_traced(ef, wl, work, tally) -> tuple[dict, dict]:
    from micro import micro_timings
    from tracing import Tracer

    tracer = Tracer(ef)
    with tracer:
        wl.make_inputs(work / "setup")
    wl.finish_setup(work / "setup")
    # The first repetition in a process runs up to half again slower, so it
    # only warms up; the overhead compares the traced repetition with the next.
    reps = [wl.repetition(work / "rep0"), wl.repetition(work / "rep1", tracer),
            wl.repetition(work / "rep2")]
    for _, rep in reps:
        tally.add(rep)
    traced, untraced = reps[1][0], reps[2][0]
    metrics = tracer.summary()
    metrics["flow.steps"] = reps[1][1].steps
    metrics["trace.overhead_s"] = traced - untraced
    metrics["fail_frac"] = tally.fail_frac
    metrics.update(micro_timings(ef, wl.sample_curves(work / "rep1"), wl.cfl,
                                 work / "micro"))
    return metrics, {"untraced_wall_s": untraced, "traced_wall_s": traced,
                     "spans": len(tracer.spans)}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "eightflow" / "__init__.py").is_file():
        print(f"perfbench: no eightflow package under {src}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    import numpy as np
    import scipy

    import eightflow
    import eightflow.cli  # noqa: F401 - also loads runio and the monitors
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _T0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    scale = 1.0 + SCALE_BAND * (2.0 * random.Random(args.seed).random() - 1.0)
    wl = WORKLOADS[args.workload](eightflow, scale)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    tally = Tally()
    try:
        if args.trace:
            metrics, extra = measure_traced(eightflow, wl, work, tally)
        else:
            m = measure(wl, work, args.seconds, tally)
            metrics = {
                "setup_s": import_s + statistics.median(m["setups"]),
                "wall_s": statistics.median(m["walls"]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            extra = {"import_s": import_s, "setup_samples_s": m["setups"],
                     "wall_samples_s": m["walls"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    if set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics))
        unknown = sorted(set(metrics) - set(units))
        raise RuntimeError(f"metrics disagree with BENCHMARK.json: "
                           f"missing {missing}, not listed {unknown}")
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    info = {
        "workload": args.workload, "seed": args.seed, "scale": scale,
        "trace": args.trace, "environment": environment(np, scipy),
        "repetitions": len(tally.steps), "steps_per_repetition": tally.steps,
        "diagnostics_sha256": {k: sorted(v) for k, v in sorted(tally.digests.items())},
        **extra,
    }
    print("info: " + json.dumps(info, sort_keys=True))
    for name in units:
        if name != "fail_frac":
            print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(f"fail_frac = {tally.fail_frac:.6g} ratio ({tally.failed} failed of "
          f"{tally.attempted} operations)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

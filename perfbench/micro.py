"""Per-call micro-timings of the layers' public functions.

Each function is timed on the workload's own snapshot curves, cycling over
them, in `BATCHES` batches of at least `BATCH_S` seconds; the reported value
is the median batch's time per call, in microseconds.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

BATCHES = 5
BATCH_S = 0.02


def _per_call_us(call, args_list) -> float:
    for args in args_list:  # warm-up, and calibration below
        call(*args)
    loops = 1
    while True:
        start = time.perf_counter()
        for _ in range(loops):
            for args in args_list:
                call(*args)
        if time.perf_counter() - start >= BATCH_S:
            break
        loops *= 2
    samples = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(loops):
            for args in args_list:
                call(*args)
        samples.append(time.perf_counter() - start)
    return 1e6 * statistics.median(samples) / (loops * len(args_list))


def _cyclic_system(ef, curve):
    """The cyclic tridiagonal system `gradients.h1_gradient` assembles."""
    spacing = ef.curves.segment_lengths(curve)
    a = np.roll(spacing, 1)
    w = 0.5 * (a + spacing)
    lower = -1.0 / (a * w)
    upper = -1.0 / (spacing * w)
    diag = 1.0 + 1.0 / (a * w) + 1.0 / (spacing * w)
    return lower, diag, upper, ef.curves.curvature(curve)


def micro_timings(ef, curves, cfl: float, scratch: Path) -> dict[str, float]:
    cv, cx, flow = ef.curves, ef.crossings, ef.flow
    scratch.mkdir(parents=True, exist_ok=True)
    config = flow.FlowConfig(cfl=cfl)
    # step + 1 is never a remesh step, so flow.step times one plain RK2 step.
    states = [(flow.FlowState(curve=c, t=0.0, step=1), config) for c in curves]
    pairs = []
    for c in curves:
        found = cx.find_self_intersections(c)
        pairs.append((c, found[0].segments if found else (0, c.n // 2)))
    files = []
    for k, c in enumerate(curves):
        path = scratch / f"micro_{k}.csv"
        cv.curve_to_csv(c, path)
        files.append((path,))
    one = [(c,) for c in curves]
    timed = {
        "curves.derivatives": (cv.derivatives, one),
        "flow.csf_velocity": (flow.csf_velocity, one),
        "curves.PlaneCurve": (cv.PlaneCurve, [(c.points,) for c in curves]),
        "flow.step": (flow.step, states),
        "curves.resample_arclength": (cv.resample_arclength, one),
        "crossings.find_self_intersections": (cx.find_self_intersections, one),
        "crossings.find_crossing_near": (cx.find_crossing_near, pairs),
        "diagnostics.compute_record": (ef.diagnostics.compute_record,
                                       [(c, 0.0) for c in curves]),
        "curves.curve_to_csv": (cv.curve_to_csv,
                                [(c, scratch / "micro_out.csv") for c in curves]),
        "curves.curve_from_csv": (cv.curve_from_csv, files),
        "gradients.h1_gradient": (ef.gradients.h1_gradient, one),
        "gradients.curve_diffusion_speed": (ef.gradients.curve_diffusion_speed, one),
        "tridiag.solve_cyclic": (ef.tridiag.solve_cyclic,
                                 [_cyclic_system(ef, c) for c in curves]),
    }
    return {f"{name}.us_per_call": _per_call_us(call, args)
            for name, (call, args) in timed.items()}


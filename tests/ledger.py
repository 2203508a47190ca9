"""The accuracy ledger: fixed runs, each error measured against an exact
solution or a stated reference value.

Run it as `PYTHONPATH=src python tests/ledger.py`.  It prints one line per
row: the case, the quantity, the reference and where it comes from, the
error, and the steps, crossing scans and CPU (`time.process_time`) of the
row's run; rows that read the same run print those once.  The scans are the
calls of `crossings.find_self_intersections`, the run loop's and the
records' alike, counted by a wrapper on the module attribute they both
call.  Errors are signed, value minus reference, and relative where the
quantity says so.  The ledger sets no pass/fail bound: a change that moves a
trajectory shows the table before and after and names the reason of any
error that grows.  A reference that is not exact names its source, here the
prototypes in ROADMAP.md.  The file is not named test_*, so pytest does not
collect it.
"""

import time

import numpy as np
from conftest import angenent_oval, measured_radius

from eightflow import crossings
from eightflow.curves import TWO_PI
from eightflow.flow import FlowConfig, run
from eightflow.gradients import evolve_gradient_flow
from eightflow.shapes import make_bernoulli_lemniscate, make_circle

# Extinction time of the unit lemniscate from ROADMAP item 13's spectral
# prototype, and item 14's h1 flow of it at t = 0.05; neither is exact.
LEMNISCATE_T_EXTINCT = 0.11564599660
H1_AREA, H1_LENGTH = 0.7159804977, 4.5239019022


def circle(n):
    traj = run(make_circle(1.0, n), FlowConfig(), t_end=0.375)
    radius = measured_radius(traj.states[-1].curve)
    return traj, [("mean radius, relative", "0.5, exact sqrt(1 - 2t)", (radius - 0.5) / 0.5)]


def angenent():
    traj = run(angenent_oval(256, -1.0), FlowConfig(), t_end=0.75)
    curve, t = traj.states[-1].curve, traj.states[-1].t - 1.0
    residual = np.abs(np.exp(t) * np.cosh(curve.x) - np.cos(curve.y)).max()
    return traj, [("max |e^t cosh x - cos y|", "0, exact", residual),
                  ("area_total", "-2 pi t, exact", traj.records[-1].area_total + TWO_PI * t)]


def lemniscate():
    traj = run(make_bernoulli_lemniscate(1.0, 256), FlowConfig(stop_area_frac=1e-9), t_end=0.1156)
    rec = traj.records[-1]
    edge = rec.t + rec.area_total / (TWO_PI + 2.0 * rec.crossing_angle)
    return traj, [("theta edge t + |A|/(2 pi + 2 theta)",
                   f"{LEMNISCATE_T_EXTINCT:.11f}, ROADMAP item 13's prototype",
                   edge - LEMNISCATE_T_EXTINCT)]


def h1():
    traj = evolve_gradient_flow(make_bernoulli_lemniscate(1.0, 256), "h1", FlowConfig(),
                                t_end=0.05)
    rec = traj.records[-1]
    source = "ROADMAP item 14's prototype; error mostly from polygon diagnostics (item 4)"
    return traj, [("area_total", f"{H1_AREA}, {source}", rec.area_total - H1_AREA),
                  ("length", f"{H1_LENGTH}, {source}", rec.length - H1_LENGTH)]


CASES = [
    ("circle N=256 to t = 0.375", lambda: circle(256)),
    ("circle N=512 to t = 0.375", lambda: circle(512)),
    ("Angenent oval N=256, t = -1 to -0.25", angenent),
    ("lemniscate N=256 to t = 0.1156", lemniscate),
    ("h1 lemniscate N=256 to t = 0.05", h1),
]


def main():
    scan, scans = crossings.find_self_intersections, 0

    def counted(curve):
        nonlocal scans
        scans += 1
        return scan(curve)

    crossings.find_self_intersections = counted
    table = [("case", "quantity", "reference", "error", "steps", "scans", "CPU s")]
    for case, measure in CASES:
        start, scans = time.process_time(), 0
        traj, rows = measure()
        steps, cpu = str(traj.states[-1].step), f"{time.process_time() - start:.2f}"
        count = str(scans)
        for quantity, reference, error in rows:
            table.append((case, quantity, reference, f"{error:.3e}", steps, count, cpu))
            steps = count = cpu = ""
    widths = [max(map(len, column)) for column in zip(*table)]
    for row in table:
        left = [cell.ljust(w) for cell, w in zip(row[:3], widths)]
        right = [cell.rjust(w) for cell, w in zip(row[3:], widths[3:])]
        print("  ".join(left + right).rstrip())


if __name__ == "__main__":
    main()

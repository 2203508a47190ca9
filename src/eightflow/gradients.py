"""Three length-gradient flows on balanced deformations of closed curves.

Deformations of a Legendrian curve are generated by a periodic scalar f via
the field (f_s) N + f xi, and the first variation of length is
dL(f) = -integral(kappa f_s ds).  Three inner products on the fields f give
three negative gradient flows, realized here by moving the planar curve with
the corresponding signed normal speed:

  diffusion:   <f, h> = int f h ds          -> speed -kappa_ss (fourth order)
  h1:          <f, h> = int (f h + f_s h_s) -> solve zeta - zeta_ss = kappa_s,
                                               speed -zeta_s
  indefinite:  <f, h> = int f_s h_s         -> speed kappa, i.e. exactly the
                                               curve shortening operator

Arclength derivatives are 2nd-order centered differences with nonuniform
spacing correction (exact on fields linear in s); the second derivative is
kept in divergence form, which makes the discrete integrals of kappa_ss and
the summation-by-parts energy identity of the h1 solve exact.
"""

from __future__ import annotations

import numpy as np

from . import curves as cv
from .errors import SolveFailed, ValidationError
from .flow import CSF, Flow, FlowConfig, Trajectory, run
from .tridiag import solve_cyclic

_H1_RESIDUAL_TOL = 1e-8


def _neighbours(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values[i-1], values[i+1]) for every i (mod N), as slices of one padded copy."""
    ext = np.concatenate((values[-1:], values, values[:1]))
    return ext[:-2], ext[2:]


def _ds_weights(spacing: np.ndarray) -> np.ndarray:
    """Centered quadrature weights against ds: (spacing[i-1] + spacing[i]) / 2."""
    return 0.5 * (spacing + _neighbours(spacing)[0])


def _d_ds(f: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Centered d/ds at nodes spaced b[i] = s_{i+1} - s_i."""
    a = _neighbours(b)[0]              # s_i - s_{i-1}
    fm, fp = _neighbours(f)
    return (a * a * fp - b * b * fm + (b * b - a * a) * f) / (a * b * (a + b))


def _d2_ds2(f: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Divergence-form d^2/ds^2 at the nodes of `_d_ds`."""
    a = _neighbours(b)[0]
    fm, fp = _neighbours(f)
    return ((fp - f) / b - (f - fm) / a) / (0.5 * (a + b))


def curve_diffusion_speed(curve: cv.PlaneCurve) -> np.ndarray:
    """Normal speed -kappa_ss of the L^2 gradient flow (curve diffusion).

    The divergence form makes the quadrature of the speed vanish exactly,
    the discrete face of signed-area conservation.
    """
    return -_d2_ds2(cv.curvature(curve), cv.segment_lengths(curve))


def _h1_solve(curve: cv.PlaneCurve) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(spacing, kappa_s, zeta) of the solve (I - d^2/ds^2) zeta = kappa_s.

    The cyclic tridiagonal system is solved directly; the solve residual must
    come out below 1e-8 (it cannot fail for positive spacing, checked
    defensively).
    """
    b = cv.segment_lengths(curve)
    a = _neighbours(b)[0]
    kappa_s = _d_ds(cv.curvature(curve), b)
    w = 0.5 * (a + b)
    lower = -1.0 / (a * w)
    upper = -1.0 / (b * w)
    diag = 1.0 + 1.0 / (a * w) + 1.0 / (b * w)
    zeta = solve_cyclic(lower, diag, upper, kappa_s)

    residual = np.abs(zeta - _d2_ds2(zeta, b) - kappa_s).max()
    if residual > _H1_RESIDUAL_TOL * max(1.0, np.abs(kappa_s).max()):
        raise SolveFailed(f"h1 solve residual {residual:.3e} above tolerance")
    return b, kappa_s, zeta


def h1_gradient(curve: cv.PlaneCurve) -> tuple[np.ndarray, np.ndarray]:
    """Solve (I - d^2/ds^2) zeta = kappa_s; return (zeta, normal speed -zeta_s)."""
    b, _, zeta = _h1_solve(curve)
    return zeta, -_d_ds(zeta, b)


def h1_weak_form_defect(curve: cv.PlaneCurve) -> float:
    """Defect of the energy identity int(zeta kappa_s ds) = int(zeta^2 + zeta_s^2) ds.

    The gradient energy uses the staggered per-segment differences, for which
    summation by parts against the divergence-form solve is exact; the defect
    is therefore at the level of the solve residual.
    """
    spacing, kappa_s, zeta = _h1_solve(curve)
    w = _ds_weights(spacing)
    lhs = float((zeta * kappa_s * w).sum())
    staggered = (cv.cyclic_next(zeta) - zeta) ** 2 / spacing
    rhs = float((zeta * zeta * w).sum() + staggered.sum())
    return abs(lhs - rhs)


# Every flow kind by name; the indefinite-metric flow moves with the curve
# shortening speed kappa.  The lambdas look the speeds up at call time, so a
# wrapper installed on `curve_diffusion_speed` or `h1_gradient` sees every call.
FLOWS = {
    "csf": CSF,
    "diffusion": Flow("diffusion", lambda c: curve_diffusion_speed(c), fourth_order=True),
    "h1": Flow("h1", lambda c: h1_gradient(c)[1]),
    "indefinite": Flow("indefinite", cv.curvature),
}


def evolve_gradient_flow(
    initial: cv.PlaneCurve,
    flow_kind: str,
    config: FlowConfig,
    output_times=(),
    *,
    t_end: float | None = None,
) -> Trajectory:
    """`flow.run` of `FLOWS[flow_kind]`; ValidationError for another name.

    Every flow takes stabilised steps, a count flat in N: dt = flow.CFL4 /
    max kappa^4 for the fourth-order diffusion flow, whose stage damps the
    squared symbol, and dt = cfl * min(|A| / 4 pi, 1 / max kappa^2) for the
    others.  The indefinite flow shares the curve-shortening speed
    operator, so its trajectories coincide bitwise with the csf engine under
    equal configs.
    """
    if flow_kind not in FLOWS:
        raise ValidationError(f"unknown flow kind {flow_kind!r}; pick from {tuple(FLOWS)}")
    return run(initial, config, output_times, flow=FLOWS[flow_kind], t_end=t_end)

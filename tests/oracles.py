"""Test oracles: functions that checks call and no command, monitor or flow does.

The contact-geometry oracles check the paper's statements about Legendrian
curves in (R^3, eta = dz - y dx), not code paths of the CLI: the
Reeb-direction angle function, the {T, N, xi} frame and its Gram matrix, and
the Legendrian variation (f_s) N + f xi.  They integrate with the
trapezoidal rule of the package's height transport
(`contact._height_transport`), so the discrete identities they witness are
the lift's.  `legendrian_residual_profile` is the per-segment form of the
package's residual, `h1_weak_form_defect` checks the package's own h1
solve, and the plane transforms build test curves.
"""

from __future__ import annotations

import numpy as np

from eightflow import contact
from eightflow import curves as cv
from eightflow.errors import InvalidCurve, NotBalanced
from eightflow.flow import csf_velocity
from eightflow.gradients import _d_ds, h1_gradient

BALANCE_TURNING_TOL = 1e-3   # |integral of kappa ds| < tol for angle functions


def transport(w: np.ndarray, du: float) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoidal transport of w du: (increment per segment, sum before each node)."""
    increments = 0.5 * du * (w + cv.cyclic_next(w))
    return increments, np.concatenate([[0.0], np.cumsum(increments[:-1])])


def legendrian_residual_profile(curve: contact.SpaceCurve) -> np.ndarray:
    """Per-segment violation of z_u = y x_u whose maximum is
    `contact.legendrian_residual`: entry i compares the height increment
    across segment i -> i+1 (mod N) with the transport of y x_u."""
    inc, _ = contact._height_transport(curve.plane)
    return np.abs(cv.cyclic_next(curve.z) - curve.z - inc) / curve.plane.du


def lift_defect(plane: cv.PlaneCurve) -> float:
    """Holonomy of the height transport around the curve: equals the
    discrete quadrature of integral(y x_u du) = -signed_area exactly."""
    return float(contact._height_transport(plane)[0].sum())


def legendrian_angle(curve: cv.PlaneCurve) -> np.ndarray:
    """Reeb-direction speed lambda of the lifted flow at each sample.

        lambda(u) = -y(0) x_t(0) + integral_0^u kappa g du,

    where x_t(0) is the horizontal flow velocity at node 0.  Single-valued
    only for balanced curves (total turning zero); the cumulative quadrature
    reuses the turning quadrature, so the periodicity defect of lambda is
    identically the discrete total curvature.
    """
    turning = cv.total_curvature(curve)
    if abs(turning) > BALANCE_TURNING_TOL:
        raise NotBalanced(f"total turning {turning:.6g} exceeds {BALANCE_TURNING_TOL:g}")
    jet = curve.jet
    _, cum = transport(jet.kappa * np.sqrt(jet.g2), curve.du)
    x_t0 = csf_velocity(curve)[0, 0]
    return -curve.y[0] * x_t0 + cum


def contact_frame(curve: contact.SpaceCurve) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(T, N, xi) along the curve, in coordinate components (N, 3) each.

    For a Legendrian curve the triple is g-orthonormal with eta(T) = 0; the
    z-components encode the contact twisting (X = d/dx + y d/dz).
    """
    d1, _, g2, _ = curve.plane.jet
    x_u, y_u = d1.T
    g = np.sqrt(g2)
    y = curve.plane.y
    tangent = np.column_stack([x_u / g, y_u / g, y * x_u / g])
    normal = np.column_stack([-y_u / g, x_u / g, -y * y_u / g])
    reeb = np.zeros_like(tangent)
    reeb[:, 2] = 1.0
    return tangent, normal, reeb


def contact_gram(curve: contact.SpaceCurve) -> np.ndarray:
    """(N, 3, 3) Gram matrices of {T, N, xi} under g = dx^2 + dy^2 + eta^2."""
    frame = np.stack(contact_frame(curve), axis=1)  # (N, 3 vectors, 3 comps)
    eta = frame[:, :, 2] - curve.plane.y[:, None] * frame[:, :, 0]
    return (np.einsum("nia,nja->nij", frame[:, :, :2], frame[:, :, :2])
            + np.einsum("ni,nj->nij", eta, eta))


def legendrian_variation(curve: contact.SpaceCurve, f: np.ndarray, dt: float) -> contact.SpaceCurve:
    """One explicit Euler step of the Legendrian deformation

        d(gamma)/dt = (f_u / g) N + f xi,

    whose normal coefficient f_u/g is exactly what keeps the motion tangent
    to the space of Legendrian curves: the residual after one step is
    O(dt^2).  Without the N term (a step along xi alone) the residual is
    O(dt), which quantifies why the coefficient is forced.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (curve.plane.n,):
        raise InvalidCurve(f"scalar field shape {f.shape} != ({curve.plane.n},)")
    _, normal, reeb = contact_frame(curve)
    # The 4th-order periodic difference of `curves.stencil`, on one column.
    f_u = (-np.roll(f, -2) + 8.0 * np.roll(f, -1) - 8.0 * np.roll(f, 1)
           + np.roll(f, 2)) / (12.0 * curve.plane.du)
    phi = f_u / np.sqrt(curve.plane.jet.g2)
    velocity = phi[:, None] * normal + f[:, None] * reeb
    xyz = curve.points + dt * velocity
    return contact.SpaceCurve(cv.PlaneCurve(xyz[:, :2]), xyz[:, 2])


def ds_weights(spacing: np.ndarray) -> np.ndarray:
    """Centered quadrature weights against ds: (spacing[i-1] + spacing[i]) / 2."""
    return 0.5 * (spacing + np.roll(spacing, 1))


def h1_weak_form_defect(curve: cv.PlaneCurve) -> float:
    """Defect of the energy identity int(zeta kappa_s ds) = int(zeta^2 + zeta_s^2) ds
    of the package's h1 solve (`gradients.h1_gradient`).

    The gradient energy uses the staggered per-segment differences, for which
    summation by parts against the divergence-form solve is exact; the defect
    is therefore at the level of the solve residual.
    """
    zeta, _ = h1_gradient(curve)
    spacing = cv.segment_lengths(curve)
    kappa_s = _d_ds(cv.curvature(curve), spacing)
    w = ds_weights(spacing)
    lhs = float((zeta * kappa_s * w).sum())
    staggered = (cv.cyclic_next(zeta) - zeta) ** 2 / spacing
    rhs = float((zeta * zeta * w).sum() + staggered.sum())
    return abs(lhs - rhs)


def reverse(curve: cv.PlaneCurve) -> cv.PlaneCurve:
    """Opposite orientation; sample 0 is kept first."""
    return cv.PlaneCurve(np.roll(curve.points[::-1], 1, axis=0))


def rotate(curve: cv.PlaneCurve, angle: float) -> cv.PlaneCurve:
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return cv.PlaneCurve(curve.points @ rot.T)


def scale(curve: cv.PlaneCurve, factor: float) -> cv.PlaneCurve:
    if factor <= 0:
        raise InvalidCurve("scale factor must be positive")
    return cv.PlaneCurve(curve.points * factor)


def translate(curve: cv.PlaneCurve, offset) -> cv.PlaneCurve:
    return cv.PlaneCurve(curve.points + np.asarray(offset, dtype=float))

"""Legendrian curves in contact R^3 and lifts of planar flows.

The ambient structure is the standard contact form eta = dz - y dx with
Reeb field xi = d/dz and metric g = dx^2 + dy^2 + eta^2.  The vector fields
X = d/dx + y d/dz, Y = d/dy, Z = d/dz are g-orthonormal.  A closed curve
(x(u), y(u), z(u)) is Legendrian when z_u - y x_u = 0, in which case
{T, N, xi} with

    T = (x_u X + y_u Y) / g_u,    N = (-y_u X + x_u Y) / g_u,

g_u = sqrt(x_u^2 + y_u^2), is an orthonormal frame along the curve.

Discretization convention: heights are transported by the trapezoidal rule,
z_{i+1} = z_i + du * (w_i + w_{i+1}) / 2 with w = y * x_u, and the
Legendrian residual is measured against exactly that transport,

    residual_i = (z_{i+1} - z_i) / du - (w_i + w_{i+1}) / 2,

so a lifted curve is Legendrian to round-off by construction, genuine
violations stand out at full size, and the periodicity defect of the lift
is identically the discrete signed area of the projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import curves as cv
from .errors import InvalidCurve, NotBalanced
from .flow import Trajectory, csf_velocity

_BALANCE_AREA_TOL = 1e-6      # |A_signed| < tol * L^2 for lifting
_BALANCE_TURNING_TOL = 1e-3   # |integral of kappa ds| < tol for angle functions


@dataclass(frozen=True, eq=False)
class SpaceCurve:
    """Closed curve in R^3: an immersed plane curve and a height per sample.

    Carries no Legendrian guarantee by itself: `legendrian_residual` measures
    the violation, `lift` constructs curves satisfying it to round-off.  The
    heights are frozen like the plane's samples: a float64 C-contiguous array
    is adopted without a copy, so the caller's array becomes read-only too.
    """

    plane: cv.PlaneCurve
    z: np.ndarray

    def __post_init__(self):
        z = np.ascontiguousarray(np.asarray(self.z, dtype=float))
        if z.shape != (self.plane.n,):
            raise InvalidCurve(f"expected {self.plane.n} heights, got shape {z.shape}")
        if not np.isfinite(z).all():
            raise InvalidCurve("heights must be finite")
        z.setflags(write=False)
        object.__setattr__(self, "z", z)

    @property
    def n(self) -> int:
        return self.plane.n

    @property
    def du(self) -> float:
        return self.plane.du

    @property
    def points(self) -> np.ndarray:
        """The (N, 3) samples (x, y, z)."""
        return np.column_stack([self.plane.points, self.z])


def _transport(w: np.ndarray, du: float) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoidal transport of w du: (increment per segment, sum before each node)."""
    increments = 0.5 * du * (w + cv.cyclic_next(w))
    return increments, np.concatenate([[0.0], np.cumsum(increments[:-1])])


def _height_transport(plane: cv.PlaneCurve) -> tuple[np.ndarray, np.ndarray]:
    """`_transport` of y x_u, the height a Legendrian lift gains."""
    return _transport(plane.y * plane.jet.d1[:, 0], plane.du)


def legendrian_residual_profile(curve: SpaceCurve) -> np.ndarray:
    """Per-segment violation of z_u = y x_u against the trapezoidal transport.

    Entry i compares the height increment across segment i -> i+1 (mod N)
    with the transport of y x_u; for a smooth non-Legendrian curve it
    approximates |z_u - y x_u| at the segment midpoint.  The wrap-around
    entry sees any overall non-periodicity of z.
    """
    inc, _ = _height_transport(curve.plane)
    dz = cv.cyclic_next(curve.z) - curve.z
    return np.abs(dz - inc) / curve.du


def legendrian_residual(curve: SpaceCurve) -> float:
    """Max violation of z_u = y x_u against the trapezoidal transport.

    Zero (to round-off) exactly for curves produced by `lift`; for a curve
    that is not Legendrian the value approximates max|z_u - y x_u|.
    """
    return float(legendrian_residual_profile(curve).max())


def lift_defect(plane: cv.PlaneCurve) -> float:
    """Holonomy of the height transport around the curve: equals the
    discrete quadrature of integral(y x_u du) = -signed_area exactly."""
    return float(_height_transport(plane)[0].sum())


def lift(plane: cv.PlaneCurve, z_base: float = 0.0) -> SpaceCurve:
    """Lift a balanced plane curve to a closed Legendrian curve.

    z is the cumulative trapezoidal transport of y x_u starting from z_base
    at node 0.  The wrap-around periodicity defect equals -signed_area, so
    the lift closes up only for balanced curves: any other curve raises
    NotBalanced.  The returned curve holds `plane` itself.
    """
    area = cv.signed_area(plane)
    length = cv.curve_length(plane)
    if abs(area) >= _BALANCE_AREA_TOL * length**2:
        raise NotBalanced(
            f"signed area {area:.6g} exceeds {_BALANCE_AREA_TOL:g} * L^2", area
        )
    _, z = _height_transport(plane)
    return SpaceCurve(plane, z_base + z)


def lift_trajectory(traj: Trajectory, z_base: float = 0.0) -> list[SpaceCurve]:
    """Lift every snapshot with the same base height z(t, 0) = z_base.

    At snapshot resolution this is the normalized Legendrian flow over the
    planar trajectory.  Raises NotBalanced naming the offending time if a
    snapshot fails the balance precondition.
    """
    lifted = []
    for state in traj.states:
        try:
            lifted.append(lift(state.curve, z_base))
        except NotBalanced as exc:
            raise NotBalanced(f"snapshot at t = {state.t:.6g}: {exc}", exc.value) from None
    return lifted


def legendrian_angle(curve: cv.PlaneCurve) -> np.ndarray:
    """Reeb-direction speed lambda of the lifted flow at each sample.

        lambda(u) = -y(0) x_t(0) + integral_0^u kappa g du,

    where x_t(0) is the horizontal flow velocity at node 0.  Single-valued
    only for balanced curves (total turning zero); the cumulative quadrature
    reuses the turning quadrature, so the periodicity defect of lambda is
    identically the discrete total curvature.
    """
    turning = cv.total_curvature(curve)
    if abs(turning) > _BALANCE_TURNING_TOL:
        raise NotBalanced(
            f"total turning {turning:.6g} exceeds {_BALANCE_TURNING_TOL:g}", turning
        )
    jet = curve.jet
    _, cum = _transport(jet.kappa * np.sqrt(jet.g2), curve.du)
    x_t0 = csf_velocity(curve)[0, 0]
    return -curve.y[0] * x_t0 + cum


def contact_frame(curve: SpaceCurve) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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


def contact_gram(curve: SpaceCurve) -> np.ndarray:
    """(N, 3, 3) Gram matrices of {T, N, xi} under g = dx^2 + dy^2 + eta^2."""
    frame = np.stack(contact_frame(curve), axis=1)  # (N, 3 vectors, 3 comps)
    eta = frame[:, :, 2] - curve.plane.y[:, None] * frame[:, :, 0]
    gram = (
        np.einsum("nia,nja->nij", frame[:, :, :2], frame[:, :, :2])
        + np.einsum("ni,nj->nij", eta, eta)
    )
    return gram


def legendrian_variation(curve: SpaceCurve, f: np.ndarray, dt: float) -> SpaceCurve:
    """One explicit Euler step of the Legendrian deformation

        d(gamma)/dt = (f_u / g) N + f xi,

    whose normal coefficient f_u/g is exactly what keeps the motion tangent
    to the space of Legendrian curves: the residual after one step is
    O(dt^2).  Without the N term (a step along xi alone) the residual is
    O(dt), which quantifies why the coefficient is forced.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (curve.n,):
        raise InvalidCurve(f"scalar field shape {f.shape} != ({curve.n},)")
    _, normal, reeb = contact_frame(curve)
    phi = cv.stencil(f, curve.du).d1 / np.sqrt(curve.plane.jet.g2)
    velocity = phi[:, None] * normal + f[:, None] * reeb
    xyz = curve.points + dt * velocity
    return SpaceCurve(cv.PlaneCurve(xyz[:, :2]), xyz[:, 2])

"""Legendrian curves in contact R^3 and lifts of planar flows.

The ambient structure is the standard contact form eta = dz - y dx with
Reeb field xi = d/dz and metric g = dx^2 + dy^2 + eta^2.  The vector fields
X = d/dx + y d/dz, Y = d/dy, Z = d/dz are g-orthonormal.  A closed curve
(x(u), y(u), z(u)) is Legendrian when z_u - y x_u = 0, in which case
{T, N, xi} with

    T = (x_u X + y_u Y) / g_u,    N = (-y_u X + x_u Y) / g_u,

g_u = sqrt(x_u^2 + y_u^2), is an orthonormal frame along the curve.  The
module lifts plane curves and measures the Legendrian residual; the frame,
the Reeb-direction angle function and the Legendrian variations are test
oracles of this geometry (tests/oracles.py), not code paths of a run.

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
from .flow import Trajectory

_BALANCE_AREA_TOL = 1e-6      # |A_signed| < tol * L^2 for lifting


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
    def points(self) -> np.ndarray:
        """The (N, 3) samples (x, y, z)."""
        return np.column_stack([self.plane.points, self.z])


def _height_transport(plane: cv.PlaneCurve) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoidal transport of y x_u du, the height a Legendrian lift gains:
    (increment per segment, sum before each node)."""
    w = plane.y * plane.jet.d1[:, 0]
    increments = 0.5 * plane.du * (w + cv.cyclic_next(w))
    return increments, np.concatenate([[0.0], np.cumsum(increments[:-1])])


def legendrian_residual(curve: SpaceCurve) -> float:
    """Max violation of z_u = y x_u against the trapezoidal transport.

    Segment i -> i+1 (mod N) compares its height increment with the
    transport of y x_u, and the wrap-around segment sees any overall
    non-periodicity of z.  Zero (to round-off) exactly for curves produced
    by `lift`; for a curve that is not Legendrian the value approximates
    max|z_u - y x_u|.
    """
    inc, _ = _height_transport(curve.plane)
    dz = cv.cyclic_next(curve.z) - curve.z
    return float((np.abs(dz - inc) / curve.plane.du).max())


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
        raise NotBalanced(f"signed area {area:.6g} exceeds {_BALANCE_AREA_TOL:g} * L^2")
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
            raise NotBalanced(f"snapshot at t = {state.t:.6g}: {exc}") from None
    return lifted

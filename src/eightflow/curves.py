"""Discrete closed plane curves and their pointwise/integral geometry.

A curve is a periodic sequence of N samples (x_i, y_i) of an immersed closed
curve parametrized over u in [0, 2*pi), with uniform parameter step
du = 2*pi/N and index arithmetic mod N (no duplicated endpoint).

Parameter derivatives use 4th-order periodic central differences: robust to
the mild nonuniformity that develops between arclength remeshes, while
frequent remeshing keeps the effective accuracy high.  Signed curvature is

    kappa = (x_u * y_uu - y_u * x_uu) / (x_u^2 + y_u^2)^(3/2),

positive where the curve bends toward the left normal (-y_u, x_u).

Periodic quadratures (signed area, total turning) are plain sums times du,
i.e. the trapezoidal rule on a uniform periodic grid.  This makes several
discrete identities exact by construction; see the contact module.

Curve files have one format, CSV (`curve_to_csv`, `curve_from_csv`).

Remeshing (`resample_arclength`) interpolates with a periodic cubic spline in
cumulative chord length.  The spline is the package's own, because importing
scipy.interpolate loads scipy.special too and adds about 23 MB to every
process.  Its second derivatives at the nodes solve one cyclic tridiagonal
system (`tridiag.solve_cyclic`, both coordinates as two columns of one
solve), and the uniform targets are evaluated in one vectorised pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import AllFlat, DegenerateTangent, InvalidCurve
from .tridiag import solve_cyclic

TWO_PI = 2.0 * np.pi

# Discrete tangents shorter than sqrt(1e-24) cannot be normalized reliably.
_TANGENT_FLOOR = 1e-24


@dataclass(frozen=True, eq=False)
class PlaneCurve:
    """Immersed closed plane curve sampled at N >= 16 points.

    The samples are frozen at construction.  A float64 C-contiguous array is
    adopted without a copy, so the caller's array becomes read-only too; any
    other input is converted to a new array first.  The `jet` is computed on
    first use and kept, read-only too.  Curve values are safe to share across
    threads: a concurrent first use of `jet` computes identical values twice.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise InvalidCurve(f"expected an (N, 2) point array, got shape {pts.shape}")
        n = pts.shape[0]
        if n < 16:
            raise InvalidCurve(f"need at least 16 samples, got {n}")
        if not np.isfinite(pts).all():
            raise InvalidCurve("curve samples must be finite")
        dx, dy = (cyclic_next(pts) - pts).T
        seg = np.sqrt(dx * dx + dy * dy)
        total = float(seg.sum())
        if total <= 0.0 or seg.min() <= 1e-12 * total:
            raise InvalidCurve(
                "immersion violated: shortest segment "
                f"{seg.min():.3e} vs length {total:.3e}"
            )
        pts.setflags(write=False)
        seg.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_seg_lengths", seg)
        object.__setattr__(self, "_jet", None)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def du(self) -> float:
        return TWO_PI / self.n

    @property
    def x(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.points[:, 1]

    @property
    def u(self) -> np.ndarray:
        return np.arange(self.n) * self.du

    @property
    def jet(self) -> Jet:
        """`stencil` of the samples, computed on first use and kept read-only."""
        if self._jet is None:
            jet = stencil(self.points, self.du)
            for values in jet:
                values.setflags(write=False)
            object.__setattr__(self, "_jet", jet)
        return self._jet


def cyclic_next(values: np.ndarray) -> np.ndarray:
    """values[i+1] for every i (mod N) along axis 0, like np.roll(values, -1, 0)."""
    return np.concatenate((values[1:], values[:1]))


class Jet(NamedTuple):
    """One `stencil` evaluation; g2 and kappa are None for 1-D values."""

    d1: np.ndarray
    d2: np.ndarray
    g2: np.ndarray | None
    kappa: np.ndarray | None


def stencil(values: np.ndarray, du: float) -> Jet:
    """4th-order periodic central differences along axis 0.

    `values` is 1-D or an (N, 2) point array.  It is padded once with two
    ghost rows at each end, so the four shifted copies are slices of one
    array.  For a point array the jet also carries g2 = x_u^2 + y_u^2 and
    the signed curvature; DegenerateTangent is raised where g2 falls below
    the floor.
    """
    ext = np.concatenate((values[-2:], values, values[:2]))
    m2, m1, p1, p2 = ext[:-4], ext[1:-3], ext[3:-1], ext[4:]
    d1 = (-p2 + 8.0 * p1 - 8.0 * m1 + m2) / (12.0 * du)
    d2 = (-p2 + 16.0 * p1 - 30.0 * values + 16.0 * m1 - m2) / (12.0 * du * du)
    g2 = kappa = None
    if values.ndim == 2:
        x_u, y_u = d1.T
        g2 = x_u * x_u + y_u * y_u
        g2_min = g2.min()
        if g2_min < _TANGENT_FLOOR:
            raise DegenerateTangent(f"parameter speed collapsed to {g2_min:.3e}")
        kappa = (x_u * d2[:, 1] - y_u * d2[:, 0]) / g2 ** 1.5
    return Jet(d1, d2, g2, kappa)


def derivatives(curve: PlaneCurve) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(x_u, y_u, x_uu, y_uu) at every sample; DegenerateTangent if the speed collapses."""
    d1, d2, _, _ = curve.jet
    return d1[:, 0], d1[:, 1], d2[:, 0], d2[:, 1]


def curvature(curve: PlaneCurve) -> np.ndarray:
    """Signed curvature at every sample; orientation-equivariant."""
    return curve.jet.kappa


def segment_lengths(curve: PlaneCurve) -> np.ndarray:
    """Length of segment i -> i+1 (mod N) for every i (cached at construction)."""
    return curve._seg_lengths


def curve_length(curve: PlaneCurve) -> float:
    """Polygonal length of the closed curve."""
    return float(segment_lengths(curve).sum())


def signed_area(curve: PlaneCurve) -> float:
    """Enclosed signed area as the periodic quadrature of -y * x_u du.

    Agrees with the shoelace sum over samples to quadrature accuracy; the
    quadrature form is kept because the contact lift integrates exactly the
    same sum, making its periodicity defect identically -signed_area.
    """
    x_u = curve.jet.d1[:, 0]
    return float(-(curve.y * x_u).sum() * curve.du)


def shoelace_area(points: np.ndarray) -> float:
    """Signed polygon area of an (N, 2) closed vertex loop."""
    nxt = cyclic_next(points)
    return float(0.5 * np.sum(points[:, 0] * nxt[:, 1] - nxt[:, 0] * points[:, 1]))


def total_curvature(curve: PlaneCurve) -> float:
    """Integral of kappa ds; equals 2*pi*(turning number) up to quadrature error."""
    jet = curve.jet
    return float((jet.kappa * np.sqrt(jet.g2)).sum() * curve.du)


def tangent_angle(curve: PlaneCurve) -> np.ndarray:
    """Unwrapped tangent angle at samples 0..N, inclusive of the wrap-around.

    Entry i is atan2(y_u, x_u) at sample i, continued so consecutive jumps
    stay below pi; entry N closes the loop, so theta[N] - theta[0] is the
    total discrete turning (2*pi times the turning number).
    """
    d1 = curve.jet.d1
    raw = np.arctan2(d1[:, 1], d1[:, 0])
    jumps = np.diff(np.concatenate([raw, raw[:1]]))
    jumps = (jumps + np.pi) % TWO_PI - np.pi
    theta = np.empty(curve.n + 1)
    theta[0] = raw[0]
    np.cumsum(jumps, out=theta[1:])
    theta[1:] += raw[0]
    return theta


def x_extent(curve: PlaneCurve) -> float:
    """Length of the projection onto the x-axis: max x - min x."""
    return float(curve.x.max() - curve.x.min())


def y_extent(curve: PlaneCurve) -> float:
    """Length of the projection onto the y-axis: max y - min y."""
    return float(curve.y.max() - curve.y.min())


def diameter(curve: PlaneCurve) -> float:
    """Maximum pairwise distance between samples, over blocks of 32 rows so
    the temporaries are O(N), not the (N, N, 2) array of all pairs."""
    pts = curve.points
    d2 = max(np.sum((pts[k:k + 32, None] - pts) ** 2, axis=-1).max()
             for k in range(0, len(pts), 32))
    return float(np.sqrt(d2))


def inflection_count(curve: PlaneCurve, tol: float | None = None) -> int:
    """Number of sign changes of kappa around the periodic sample sequence.

    Samples with |kappa| < tol are transparent: the sign is carried across
    them, so flat plateaus produced by the discretization do not create
    spurious inflections.  Default tol is 1e-6 * max|kappa|.
    """
    kappa = curvature(curve)
    if tol is None:
        tol = 1e-6 * float(np.abs(kappa).max())
    opaque = np.abs(kappa) >= tol
    if not np.any(opaque):
        raise AllFlat(f"all {curve.n} curvature samples below threshold {tol:.3e}")
    signs = np.sign(kappa[opaque])
    return int(np.count_nonzero(signs[1:] != signs[:-1])) + int(signs[0] != signs[-1])


def resample_arclength(curve: PlaneCurve) -> PlaneCurve:
    """Redistribute the curve's N samples uniformly in arclength; node 0 stays put bitwise.

    Tangential redistribution does not change the image of the curve, so the
    flow engines may remesh freely.  Interpolation is a periodic cubic spline
    in cumulative chord length (`_periodic_spline_samples`: one cyclic
    tridiagonal solve for both coordinates), giving O(h^4) placement error per
    call.  On coarse meshes one pass leaves an O((kappa h)^2) spread between
    chord and arc spacing, so the redistribution is repeated (at most three
    passes) until the segment-length spread falls below 0.5%.
    """
    out = curve
    for _ in range(3):
        out = PlaneCurve(_periodic_spline_samples(out))
        seg = segment_lengths(out)
        if (seg.max() - seg.min()) / seg.mean() <= 0.005:
            break
    return out


def _periodic_spline_samples(curve: PlaneCurve) -> np.ndarray:
    """N samples, uniform in chord length from node 0, of the periodic cubic spline.

    The spline interpolates the nodes P_i at the cumulative chord lengths s_i
    and is C^2 across the wrap.  In moment form, with h_i = s_{i+1} - s_i and
    M_i the second derivative at node i (indices mod N),

        h_{i-1} M_{i-1} + 2 (h_{i-1} + h_i) M_i + h_i M_{i+1} = 6 (d_i - d_{i-1}),

    where d_i = (P_{i+1} - P_i) / h_i; one cyclic solve serves both
    coordinates.  On [s_j, s_{j+1}], with b = (s - s_j) / h_j and a = 1 - b,

        S(s) = a P_j + b P_{j+1} + ((a^3 - a) M_j + (b^3 - b) M_{j+1}) h_j^2 / 6.
    """
    n = curve.n
    h = segment_lengths(curve)
    h_prev = np.concatenate((h[-1:], h[:-1]))
    # Rows x, y, M_x, M_y over nodes 0..N, node N repeating node 0: coordinate
    # rows keep numpy's inner loops N long.
    knots = np.empty((4, n + 1))
    knots[:2, :n] = curve.points.T
    knots[:2, n] = curve.points[0]
    slope = (knots[:2, 1:] - knots[:2, :n]) / h
    rhs = 6.0 * (slope - np.concatenate((slope[:, -1:], slope[:, :-1]), axis=1))
    knots[2:, :n] = solve_cyclic(h_prev, 2.0 * (h_prev + h), h, rhs.T).T
    knots[2:, n] = knots[2:, 0]
    s = np.concatenate(([0.0], np.cumsum(h)))
    targets = s[-1] * np.arange(n) / n
    j = np.searchsorted(s, targets, side="right") - 1
    hj = h[j]
    b = (targets - s[j]) / hj
    a = 1.0 - b
    lo, hi = knots.take(j, axis=1), knots.take(j + 1, axis=1)
    out = (a * lo[:2] + b * hi[:2]
           + ((a * a * a - a) * lo[2:] + (b * b * b - b) * hi[2:]) * (hj * hj / 6.0))
    out[:, 0] = knots[:2, 0]
    return out.T


def reverse(curve: PlaneCurve) -> PlaneCurve:
    """Opposite orientation; sample 0 is kept first."""
    return PlaneCurve(np.roll(curve.points[::-1], 1, axis=0))


def translate(curve: PlaneCurve, offset) -> PlaneCurve:
    return PlaneCurve(curve.points + np.asarray(offset, dtype=float))


def rotate(curve: PlaneCurve, angle: float) -> PlaneCurve:
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return PlaneCurve(curve.points @ rot.T)


def scale(curve: PlaneCurve, factor: float) -> PlaneCurve:
    if factor <= 0:
        raise InvalidCurve("scale factor must be positive")
    return PlaneCurve(curve.points * factor)


# ---------------------------------------------------------------------------
# Serialization: one format, CSV with header u,x,y (u,x,y,z for a space
# curve).  17 significant digits make a round trip return the same float64
# values; a file is written in one call and read back with numpy's C parser,
# which rounds exactly like float().

def curve_to_csv(curve, path: str | Path) -> None:
    """Write any curve with `points`, `n` and `du` as u,x,y[,z] rows."""
    table = np.column_stack((np.arange(curve.n) * curve.du, curve.points))
    names = ["u", "x", "y", "z"][:table.shape[1]]
    row = ",".join(["%.17g"] * len(names)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n" + row * curve.n % tuple(table.ravel().tolist()))


def read_curve_csv(path: str | Path, names: list[str]) -> np.ndarray:
    """The sample columns (all but u) of a curve CSV whose header starts with `names`.

    Raises InvalidCurve on a wrong header, on a header with no sample row
    after it and on a row that is short or not numeric.
    """
    with open(path) as fh:
        header = fh.readline().strip()
        if header.split(",")[:len(names)] != names:
            raise InvalidCurve(
                f"unexpected curve CSV header {header[:80]!r}, expected {','.join(names)}"
            )
        # Checked here, since np.loadtxt only warns on a file with no rows;
        # like np.loadtxt, this skips blank lines and text after a '#'.
        start = fh.tell()
        if not any(line.split("#", 1)[0].strip() for line in fh):
            raise InvalidCurve(f"no sample rows in {path}")
        fh.seek(start)
        try:
            return np.loadtxt(fh, delimiter=",", usecols=tuple(range(1, len(names))),
                              ndmin=2)
        except ValueError as exc:
            raise InvalidCurve(f"malformed row in {path}: {exc}") from None


def curve_from_csv(path: str | Path) -> PlaneCurve:
    return PlaneCurve(read_curve_csv(path, ["u", "x", "y"]))


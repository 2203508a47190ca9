"""Cyclic (periodic) tridiagonal direct solver.

Sherman-Morrison reduction of the two corner entries to a rank-one update
over a plain tridiagonal system, factored by LAPACK's dgttrf and solved by
dgttrs.  O(N) cost, exact up to round-off for diagonally dominant systems.
The right-hand side is one column (N,) or k columns (N, k); the columns
share the factorization.  The arclength remesh and the H1 flow each solve
one system.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import SolveFailed


def solve_cyclic(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve A x = rhs for the periodic tridiagonal A with

        A[i, i-1 mod N] = lower[i],  A[i, i] = diag[i],  A[i, i+1 mod N] = upper[i].

    lower[0] and upper[N-1] are the cyclic corner entries.  `rhs` is (N,) or
    (N, k), and x has the same shape.  Raises SolveFailed on a non-finite
    entry in the system, the right-hand side or the solution, or a singular
    system.
    """
    lower = np.asarray(lower, dtype=float)
    diag = np.asarray(diag, dtype=float)
    upper = np.asarray(upper, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = diag.size
    if n < 3:
        raise SolveFailed("cyclic tridiagonal system needs at least 3 unknowns")
    if not (np.isfinite(lower).all() and np.isfinite(diag).all() and np.isfinite(upper).all()
            and np.isfinite(rhs).all()):
        raise SolveFailed("non-finite entry in cyclic tridiagonal system")

    alpha = lower[0]      # A[0, n-1]
    beta = upper[-1]      # A[n-1, 0]
    gamma = -diag[0]

    d_mod = diag.copy()
    d_mod[0] -= gamma
    d_mod[-1] -= alpha * beta / gamma
    *lu, info = dgttrf(lower[1:], d_mod, upper[:-1])
    if info != 0:
        raise SolveFailed(f"tridiagonal factorization failed (LAPACK info {info})")

    u = np.zeros(n)
    u[0] = gamma
    u[-1] = beta
    q = dgttrs(*lu, u)[0]
    # v = (1, 0, ..., 0, alpha/gamma)
    ratio = alpha / gamma
    denom = 1.0 + q[0] + ratio * q[-1]
    if denom == 0.0 or not np.isfinite(denom):
        raise SolveFailed("singular rank-one correction in cyclic solve")

    x0 = dgttrs(*lu, rhs)[0]
    x = x0 - np.multiply.outer(q, (x0[0] + ratio * x0[-1]) / denom)
    if not np.isfinite(x).all():
        raise SolveFailed("non-finite solution of cyclic tridiagonal system")
    return x

"""Cyclic (periodic) tridiagonal direct solver.

Sherman-Morrison reduction of the two corner entries to a rank-one update
over a plain tridiagonal solve, done by LAPACK's dgtsv.  O(N) cost, exact up
to round-off for diagonally dominant systems.  The right-hand side is one
column (N,) or k columns (N, k); the columns share one tridiagonal solve,
with the Sherman-Morrison column appended last.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import SolveFailed


def solve_cyclic(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve A x = rhs for the periodic tridiagonal A with

        A[i, i-1 mod N] = lower[i],  A[i, i] = diag[i],  A[i, i+1 mod N] = upper[i].

    lower[0] and upper[N-1] are the cyclic corner entries.  `rhs` is (N,) or
    (N, k), and x has the same shape.  Raises SolveFailed on a non-finite
    entry in the system or the solution.
    """
    lower = np.asarray(lower, dtype=float)
    diag = np.asarray(diag, dtype=float)
    upper = np.asarray(upper, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = diag.size
    if n < 3:
        raise SolveFailed("cyclic tridiagonal system needs at least 3 unknowns")
    if not (np.isfinite(lower).all() and np.isfinite(diag).all()
            and np.isfinite(upper).all() and np.isfinite(rhs).all()):
        raise SolveFailed("non-finite entry in cyclic tridiagonal system")

    alpha = lower[0]      # A[0, n-1]
    beta = upper[-1]      # A[n-1, 0]
    gamma = -diag[0]

    d_mod = diag.copy()
    d_mod[0] -= gamma
    d_mod[-1] -= alpha * beta / gamma

    u = np.zeros(n)
    u[0] = gamma
    u[-1] = beta

    *_, y, info = dgtsv(lower[1:], d_mod, upper[:-1], np.column_stack([rhs, u]))
    if info != 0:
        raise SolveFailed(f"tridiagonal solve failed (LAPACK info {info})")
    x0, q = y[:, :-1], y[:, -1]
    # v = (1, 0, ..., 0, alpha/gamma)
    denom = 1.0 + q[0] + (alpha / gamma) * q[-1]
    if denom == 0.0 or not np.isfinite(denom):
        raise SolveFailed("singular rank-one correction in cyclic solve")
    factor = (x0[0] + (alpha / gamma) * x0[-1]) / denom
    x = x0 - factor * q[:, None]
    if not np.isfinite(x).all():
        raise SolveFailed("non-finite solution of cyclic tridiagonal system")
    return x[:, 0] if rhs.ndim == 1 else x

"""Cyclic (periodic) tridiagonal direct solver.

Sherman-Morrison reduction of the two corner entries to a rank-one update
over a plain tridiagonal solve, done in banded form via LAPACK.  O(N) cost,
exact up to round-off for diagonally dominant systems.  The right-hand side
is one column (N,) or k columns (N, k); the columns share one banded solve,
with the Sherman-Morrison column appended last.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_banded

from .errors import SolveFailed


def solve_cyclic(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve A x = rhs for the periodic tridiagonal A with

        A[i, i-1 mod N] = lower[i],  A[i, i] = diag[i],  A[i, i+1 mod N] = upper[i].

    lower[0] and upper[N-1] are the cyclic corner entries.  `rhs` is (N,) or
    (N, k), and x has the same shape.
    """
    lower = np.asarray(lower, dtype=float)
    diag = np.asarray(diag, dtype=float)
    upper = np.asarray(upper, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = diag.size
    if n < 3:
        raise SolveFailed("cyclic tridiagonal system needs at least 3 unknowns")

    alpha = lower[0]      # A[0, n-1]
    beta = upper[-1]      # A[n-1, 0]
    gamma = -diag[0]

    d_mod = diag.copy()
    d_mod[0] -= gamma
    d_mod[-1] -= alpha * beta / gamma

    ab = np.zeros((3, n))
    ab[0, 1:] = upper[:-1]
    ab[1, :] = d_mod
    ab[2, :-1] = lower[1:]

    u = np.zeros(n)
    u[0] = gamma
    u[-1] = beta

    try:
        y = solve_banded((1, 1), ab, np.column_stack([rhs, u]))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise SolveFailed(str(exc)) from exc
    x0, q = y[:, :-1], y[:, -1]
    # v = (1, 0, ..., 0, alpha/gamma)
    denom = 1.0 + q[0] + (alpha / gamma) * q[-1]
    if denom == 0.0 or not np.isfinite(denom):
        raise SolveFailed("singular rank-one correction in cyclic solve")
    factor = (x0[0] + (alpha / gamma) * x0[-1]) / denom
    x = x0 - factor * q[:, None]
    return x[:, 0] if rhs.ndim == 1 else x

"""Cyclic (periodic) tridiagonal direct solver.

Sherman-Morrison reduction of the two corner entries to a rank-one update
over a plain tridiagonal system, which the Thomas algorithm (LU without
pivoting) factors and solves.  Its recurrences are sequential, so they run
over Python floats: a numpy call per row would cost more.  O(N) cost, exact
up to round-off for diagonally dominant systems, which both callers
assemble.  The right-hand side is one column (N,) or k columns (N, k); the
columns share the factorization, and each column, the rank-one update's
among them, is solved on its own.  The arclength remesh and the H1 flow
each solve one system.
"""

from __future__ import annotations

import numpy as np

from .errors import SolveFailed


def _substitute(sub: list, pivots: list, ratios: list, column: list) -> list:
    """x with L U x = column: L has `pivots` on its diagonal and `sub` below
    it, U has ones on its diagonal and `ratios` above it."""
    y = 0.0
    forward = [y := (f - s * y) / p for s, p, f in zip(sub, pivots, column)]
    x = 0.0
    back = [x := y - r * x for r, y in zip(reversed(ratios), reversed(forward))]
    back.reverse()
    return back


def solve_cyclic(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve A x = rhs for the periodic tridiagonal A with

        A[i, i-1 mod N] = lower[i],  A[i, i] = diag[i],  A[i, i+1 mod N] = upper[i].

    lower[0] and upper[N-1] are the cyclic corner entries.  `rhs` is (N,) or
    (N, k), and x has the same shape.  Raises SolveFailed on a non-finite
    entry in the system, the right-hand side or the solution, a zero pivot
    or a singular rank-one correction.
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

    sub = lower.tolist()
    sup = upper.tolist()
    d_mod = diag.tolist()
    alpha = sub[0]        # A[0, n-1]
    beta = sup[-1]        # A[n-1, 0]
    gamma = -d_mod[0]
    sub[0] = sup[-1] = 0.0
    try:
        d_mod[0] -= gamma
        d_mod[-1] -= alpha * beta / gamma
        pivots = []
        ratios = []
        r = 0.0
        for s, d, c in zip(sub, d_mod, sup):
            p = d - s * r
            r = c / p
            pivots.append(p)
            ratios.append(r)
    except ZeroDivisionError:
        raise SolveFailed("zero pivot in cyclic tridiagonal solve") from None
    # u = (gamma, 0, ..., 0, beta) and v = (1, 0, ..., 0, alpha / gamma)
    u = [gamma] + [0.0] * (n - 2) + [beta]
    columns = np.array([_substitute(sub, pivots, ratios, column)
                        for column in [u, *rhs.reshape(n, -1).T.tolist()]], dtype=float).T
    q, x0 = columns[:, 0], columns[:, 1:]
    v_last = alpha / gamma
    denom = 1.0 + q[0] + v_last * q[-1]
    if denom == 0.0 or not np.isfinite(denom):
        raise SolveFailed("singular rank-one correction in cyclic solve")

    x = x0 - np.multiply.outer(q, (x0[0] + v_last * x0[-1]) / denom)
    if not np.isfinite(x).all():
        raise SolveFailed("non-finite solution of cyclic tridiagonal system")
    return x.reshape(rhs.shape)

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


def _forward(sub: list, pivots: list, column: list) -> list:
    """y with L y = column: L has `pivots` on its diagonal and `sub` below it."""
    y = 0.0
    return [y := (f - s * y) / p for s, p, f in zip(sub, pivots, column)]


def _back(ratios: list, forward: list) -> list:
    """x with U x = forward, last entry first: U has ones on its diagonal and
    `ratios` above it."""
    x = 0.0
    return [x := y - r * x for r, y in zip(reversed(ratios), reversed(forward))]


def solve_cyclic(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve A x = rhs for the periodic tridiagonal A with

        A[i, i-1 mod N] = lower[i],  A[i, i] = diag[i],  A[i, i+1 mod N] = upper[i].

    lower[0] and upper[N-1] are the cyclic corner entries.  `rhs` is (N,) or
    (N, k), and x has the same shape.  Raises SolveFailed on a non-finite
    entry in the system, the right-hand side or the solution, a zero pivot
    or a singular rank-one correction.  One conversion makes the system and
    `rhs` lists, one makes the solutions an array, and the rank-one
    column's forward sweep runs in the factorization loop.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = np.size(diag)
    if n < 3:
        raise SolveFailed("cyclic tridiagonal system needs at least 3 unknowns")
    rows = np.vstack((lower, diag, upper, rhs.reshape(n, -1).T), dtype=float)
    if not np.isfinite(rows).all():
        raise SolveFailed("non-finite entry in cyclic tridiagonal system")

    sub, d_mod, sup, *columns = rows.tolist()
    alpha = sub[0]        # A[0, n-1]
    beta = sup[-1]        # A[n-1, 0]
    gamma = -d_mod[0]
    sub[0] = sup[-1] = 0.0
    # u = (gamma, 0, ..., 0, beta) and v = (1, 0, ..., 0, alpha / gamma)
    u = [gamma] + [0.0] * (n - 2) + [beta]
    try:
        d_mod[0] -= gamma
        d_mod[-1] -= alpha * beta / gamma
        pivots = []
        ratios = []
        forward_u = []
        r = y = 0.0
        for s, d, c, f in zip(sub, d_mod, sup, u):
            p = d - s * r
            r = c / p
            y = (f - s * y) / p
            pivots.append(p)
            ratios.append(r)
            forward_u.append(y)
    except ZeroDivisionError:
        raise SolveFailed("zero pivot in cyclic tridiagonal solve") from None
    solved = [_back(ratios, forward_u)]
    solved += [_back(ratios, _forward(sub, pivots, column)) for column in columns]
    reversed_solutions = np.array(solved, dtype=float)
    q, x0 = reversed_solutions[0, ::-1], reversed_solutions[1:, ::-1].T
    v_last = alpha / gamma
    denom = 1.0 + q[0] + v_last * q[-1]
    if denom == 0.0 or not np.isfinite(denom):
        raise SolveFailed("singular rank-one correction in cyclic solve")

    x = x0 - np.multiply.outer(q, (x0[0] + v_last * x0[-1]) / denom)
    if not np.isfinite(x).all():
        raise SolveFailed("non-finite solution of cyclic tridiagonal system")
    return x.reshape(rhs.shape)

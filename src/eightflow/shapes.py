"""Initial-data generators: circles, ellipses, and balanced figure-eights.

The figure-eight generators produce curves with winding number zero, zero
signed area, and exactly one (transversal) self-intersection, sampled so
that node 0 sits on the positive x-axis and the sample set is symmetric
under reflection across the x-axis (samples i and N-i are mirror images).
That discrete symmetry is preserved exactly by the flow engines, which
several monitors rely on.
"""

from __future__ import annotations

import numpy as np

from .curves import PlaneCurve, signed_area
from .errors import InvalidCurve

_EIGHT_HEIGHT = 0.6       # base height scale of the Gerono-style eights
_BLEND_WIDTH = 0.55       # tanh transition width between the two loops


def make_circle(radius: float, n: int = 256) -> PlaneCurve:
    """Counterclockwise circle of the given radius, centered at the origin."""
    return make_ellipse(radius, radius, n)


def make_ellipse(a: float, b: float, n: int = 256) -> PlaneCurve:
    """Counterclockwise ellipse with semi-axes a (x) and b (y)."""
    for axis in (a, b):
        if not 0 < axis < np.inf:
            raise InvalidCurve(f"semi-axes must be positive and finite, not {axis}")
    if n < 16:
        raise InvalidCurve(f"need at least 16 samples, got {n}")
    u = 2.0 * np.pi * np.arange(n) / n
    return PlaneCurve(np.column_stack([a * np.cos(u), b * np.sin(u)]))


def make_bernoulli_lemniscate(a: float, n: int = 256) -> PlaneCurve:
    """Lemniscate of Bernoulli with half-width a:

        x(u) = a cos u / (1 + sin^2 u),   y(u) = a sin u cos u / (1 + sin^2 u).

    Doubly symmetric balanced figure-eight: zero signed area, one crossing at
    the origin, exactly two inflection points (at the crossing passages), and
    total enclosed loop area a^2.
    """
    if not 0 < a < np.inf:
        raise InvalidCurve(f"scale must be positive and finite, not {a}")
    if n < 64:
        raise InvalidCurve(f"need at least 64 samples for a figure-eight, got {n}")
    u = 2.0 * np.pi * np.arange(n) / n
    denom = 1.0 + np.sin(u) ** 2
    x = a * np.cos(u) / denom
    y = a * np.sin(u) * np.cos(u) / denom
    return PlaneCurve(np.column_stack([x, y]))


def _weighted_eight(ratio: float, height_factor: float, n: int) -> PlaneCurve:
    """Gerono-style eight with the left loop widened by `ratio` and its
    height scaled by `height_factor`; smooth tanh blend between the loops."""
    u = 2.0 * np.pi * np.arange(n) / n
    blend = 0.5 * (1.0 - np.tanh(np.cos(u) / _BLEND_WIDTH))
    width = 1.0 + (ratio - 1.0) * blend
    height = 1.0 + (height_factor - 1.0) * blend
    x = np.cos(u) * width
    y = _EIGHT_HEIGHT * np.sin(u) * np.cos(u) * height
    return PlaneCurve(np.column_stack([x, y]))


def make_asymmetric_eight(loop_scale_ratio: float, n: int = 256) -> PlaneCurve:
    """Balanced figure-eight whose left loop is wider by `loop_scale_ratio`.

    The left loop's height is solved for so that the signed area vanishes,
    so the curve is balanced by construction but (for ratio != 1) not
    mirror-symmetric about the y-axis.  Symmetry about the x-axis is
    retained.  Ratios outside [0.5, 2] distort the blend region too much and
    are rejected.
    """
    if not 0.5 <= loop_scale_ratio <= 2.0:
        raise InvalidCurve(f"loop scale ratio {loop_scale_ratio} outside [0.5, 2]")
    if n < 64:
        raise InvalidCurve(f"need at least 64 samples for a figure-eight, got {n}")
    # The eight's x does not depend on the height factor and its y is affine
    # in it, so the signed area -sum(y * x_u) du is affine in it too: the
    # line through the areas at factors 1 and 2 has the exact root.
    a1, a2 = (signed_area(_weighted_eight(loop_scale_ratio, h, n)) for h in (1.0, 2.0))
    return _weighted_eight(loop_scale_ratio, 1.0 - a1 / (a2 - a1), n)

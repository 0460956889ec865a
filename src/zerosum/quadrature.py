"""Composite Gauss-Legendre quadrature with self-computed nodes.

Nodes and weights come from Newton iteration on the Legendre three-term
recurrence, seeded with Chebyshev-angle guesses, and are cached per
(point count, digit count).  Panels subdivide [a, b] uniformly.
"""

from __future__ import annotations

import functools

from mpmath import mp, mpf

from .errors import AccuracyError, DomainError
from .precision import check_integer


def _legendre_pair(m, x):
    # returns (P_m(x), P_{m-1}(x))
    p0, p1 = mp.one, x
    for k in range(2, m + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, p0


@functools.lru_cache(maxsize=64)
def legendre_rule(points, dps):
    """Gauss-Legendre nodes and weights on [-1, 1], ascending tuple pairs."""
    check_integer(points, "point count", 2)
    with mp.workdps(dps + 20):
        tol = mpf(10) ** (-(dps + 10))
        half = []
        for k in range(1, points // 2 + points % 2 + 1):
            x = mp.cos(mp.pi * (4 * k - 1) / (4 * points + 2))
            for _ in range(120):
                pm, pm1 = _legendre_pair(points, x)
                dp = points * (x * pm - pm1) / (x * x - 1)
                dx = pm / dp
                x -= dx
                if abs(dx) < tol:
                    break
            else:
                raise AccuracyError(f"Legendre node {k}/{points} did not converge")
            pm, pm1 = _legendre_pair(points, x)
            dp = points * (x * pm - pm1) / (x * x - 1)
            w = 2 / ((1 - x * x) * dp * dp)
            half.append((+x, +w))
        rule = [(-x, w) for (x, w) in half if x > tol]
        if points % 2 == 1:
            x0, w0 = half[-1]
            rule.append((mp.zero, w0))
        rule.extend((x, w) for (x, w) in reversed(half) if x > tol)
        rule.sort(key=lambda xw: xw[0])
        return tuple(rule)


def panel_grid(a, b, panels, points, dps):
    """Scaled (node, weight) pairs for `panels` uniform panels over [a, b]."""
    check_integer(panels, "panel count", 1)
    with mp.workdps(dps + 20):
        av, bv = mpf(a), mpf(b)
        if not bv > av:
            raise DomainError("panel grid needs b > a")
        rule = legendre_rule(points, dps)
        width = (bv - av) / panels
        grid = []
        for p in range(panels):
            lo = av + p * width
            mid = lo + width / 2
            scale = width / 2
            for x, w in rule:
                grid.append((+(mid + scale * x), +(scale * w)))
        return tuple(grid)

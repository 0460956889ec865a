"""Shared helpers: independent reference computations the tests check against.

Everything here is deliberately written from scratch (exact rational
arithmetic where possible) so that agreement with the package is a real
cross-check rather than the same code run twice.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from mpmath import mp

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def rel_err(got, want):
    with mp.workdps(mp.dps + 15):
        w = mp.mpmathify(want)
        if w == 0:
            return abs(got)
        return abs((got - w) / w)


def bernoulli_reference(n):
    """B_n as an exact Fraction via the Akiyama-Tanigawa scheme (B_1 = +1/2)."""
    row = []
    for m in range(n + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
    return row[0]


def det_fraction(rows):
    """Exact determinant of a square Fraction matrix by Gaussian elimination."""
    a = [list(map(Fraction, row)) for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    return det


def esym_exact(values):
    """Elementary symmetric e_0..e_m of a finite list, exact for rational
    values: the coefficients of prod (1 + v w), one factor at a time."""
    e = [Fraction(1)]
    for v in values:
        e = [a + v * b for a, b in zip(e + [0], [0] + e)]
    return e


def random_rational(rng, lo_num, hi_num, den):
    return Fraction(rng.randint(lo_num, hi_num), den)


@pytest.fixture(scope="session")
def rng():
    return random.Random(20260819)

"""Extended-precision numeric kernel.

Every public routine takes a target precision ``prec`` counted in
significant decimal digits and evaluates with guard digits on top of it.
Real values are mpmath floats; Bernoulli numbers are exact rationals.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from mpmath import libmp, mp, mpf, mpmathify

from .errors import DomainError, LimitExceededError, PoleError

DEFAULT_PREC = 50
MIN_PREC = 30
GUARD_DIGITS = 10
GUARD_BITS = 32

BERNOULLI_MAX_INDEX = 64


def check_precision(prec):
    if not isinstance(prec, int) or prec < MIN_PREC:
        raise DomainError(
            f"precision must be an integer >= {MIN_PREC} decimal digits, got {prec!r}"
        )
    return prec


def check_order(order):
    if not isinstance(order, int) or order < 1:
        raise DomainError(f"order must be a positive integer, got {order!r}")


def fixed_point_bits(dps):
    """wp of the fixed-point engines' unit 2^-wp at dps digits: their
    working bits plus GUARD_BITS."""
    return libmp.dps_to_prec(dps) + GUARD_BITS


def working(prec, extra=GUARD_DIGITS):
    """Context manager switching mpmath to ``prec + extra`` decimal digits."""
    check_precision(prec)
    return mp.workdps(prec + extra)


def to_real(value, prec=DEFAULT_PREC):
    """Convert int/Fraction/str/float to an mpmath float at ``prec`` digits.

    Strings are parsed as exact decimal literals.  Floats are accepted but
    carry only their native 53-bit payload.
    """
    with working(prec):
        if isinstance(value, Fraction):
            return mpf(value.numerator) / value.denominator
        return +mpmathify(value)


def pi_value(prec=DEFAULT_PREC):
    with working(prec):
        return +mp.pi


def gamma(x, prec=DEFAULT_PREC):
    """Gamma function at a real point.

    Raises PoleError when ``x`` is within 10^(-prec/2) of a non-positive
    integer, where no meaningful value exists at the working precision.
    """
    with working(prec):
        xv = to_real(x, prec)
        nearest = mp.nint(xv)
        if nearest <= 0 and abs(xv - nearest) < mpf(10) ** (-(prec / 2)):
            raise PoleError(f"gamma pole at non-positive integer near x = {xv}")
        return +mp.gamma(xv)


@functools.lru_cache(maxsize=None)
def _bernoulli_table():
    # B_n from the convolution sum(C(n+1, j) * B_j, j=0..n) = 0, exact in Q.
    table = [Fraction(1)]
    for n in range(1, BERNOULLI_MAX_INDEX + 1):
        acc = Fraction(0)
        for j in range(n):
            acc += math.comb(n + 1, j) * table[j]
        table.append(-acc / (n + 1))
    return tuple(table)


def bernoulli(k):
    """Exact Bernoulli number B_k as a Fraction (B_1 = -1/2 convention)."""
    if not isinstance(k, int) or k < 0:
        raise DomainError(f"Bernoulli index must be a non-negative integer, got {k!r}")
    if k > BERNOULLI_MAX_INDEX:
        raise LimitExceededError(
            f"Bernoulli index {k} exceeds the supported maximum {BERNOULLI_MAX_INDEX}"
        )
    return _bernoulli_table()[k]


def pochhammer(a, n, prec=DEFAULT_PREC):
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1."""
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"pochhammer order must be a non-negative integer, got {n!r}")
    with working(prec):
        av = to_real(a, prec)
        out = mp.one
        for k in range(n):
            out *= av + k
        return +out


def _check_q(q):
    if not (0 < q < 1):
        raise DomainError(f"q must satisfy 0 < q < 1, got {q}")


def q_pochhammer_finite(z, q, n, prec=DEFAULT_PREC):
    """Finite q-shifted factorial (z; q)_n = prod_{k=0}^{n-1} (1 - z q^k)."""
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"q-pochhammer order must be a non-negative integer, got {n!r}")
    with working(prec):
        zv = to_real(z, prec)
        qv = to_real(q, prec)
        _check_q(qv)
        out = mp.one
        qk = mp.one
        for _ in range(n):
            out *= 1 - zv * qk
            qk *= qv
        return +out


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


def check_integer(value, name, low=0, high=None, cap=None):
    """value, if it is an int (a bool is not) in low..high, else DomainError;
    past a documented hard cap, LimitExceededError.  Orders, counts and
    indices are all checked here."""
    if (isinstance(value, bool) or not isinstance(value, int) or value < low
            or high is not None and value > high):
        if high is not None:
            span = f"an integer in {low}..{high}"
        else:
            span = {0: "a non-negative integer", 1: "a positive integer"}.get(low, f"an integer >= {low}")
        raise DomainError(f"{name} must be {span}, got {value!r}")
    if cap is not None and value > cap:
        raise LimitExceededError(f"{name} {value} exceeds the cap {cap}")
    return value


def check_order(order):
    """Every power sum and moment table has a positive order."""
    check_integer(order, "order", 1)


def check_nu(nu, prec, label="Bessel"):
    """nu as a real at prec digits; the (q-)Bessel families need nu > -1."""
    nuv = to_real(nu, prec)
    if not nuv > -1:
        raise DomainError(f"{label} order must satisfy nu > -1, got {nu}")
    return nuv


def check_q(q, prec, high=None):
    """q as a real at prec digits, with 0 < q < 1, or 0 < q <= high when
    the decimal string high is given (compared at the caller's precision)."""
    qv = to_real(q, prec)
    if not (0 < qv < 1 if high is None else 0 < qv <= mpf(high)):
        rule = "< 1" if high is None else f"<= {high}"
        raise DomainError(f"q must satisfy 0 < q {rule}, got {q}")
    return qv


def pole_floor(prec):
    """10^(-prec/2), at the caller's precision: how near a pole or a zero
    a value at prec digits may come before it has no meaningful value."""
    return mpf(10) ** (-(prec / 2))


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
        if nearest <= 0 and abs(xv - nearest) < pole_floor(prec):
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
    return _bernoulli_table()[check_integer(k, "Bernoulli index", cap=BERNOULLI_MAX_INDEX)]


def pochhammer(a, n, prec=DEFAULT_PREC):
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1."""
    check_integer(n, "pochhammer order")
    with working(prec):
        av = to_real(a, prec)
        out = mp.one
        for k in range(n):
            out *= av + k
        return +out


def q_pochhammer_finite(z, q, n, prec=DEFAULT_PREC):
    """Finite q-shifted factorial (z; q)_n = prod_{k=0}^{n-1} (1 - z q^k)."""
    check_integer(n, "q-pochhammer order")
    with working(prec):
        zv = to_real(z, prec)
        qv = check_q(q, prec)
        out = mp.one
        qk = mp.one
        for _ in range(n):
            out *= 1 - zv * qk
            qk *= qv
        return +out


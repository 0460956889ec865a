"""Taylor-coefficient providers for the supported entire functions.

Each provider returns a CoefficientSeries whose n-th entry is the n-th
elementary symmetric function of the reciprocal zeros (squared zeros for
the sinc, Bessel, Airy and q-Bessel families; plain zeros for the q-Airy
family).  Closed-form first power sums are provided alongside so the
Newton routes can be checked against independent expressions.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf

from .newton import CoefficientSeries
from .precision import (
    DEFAULT_PREC,
    check_integer,
    check_nu,
    check_order,
    check_q,
    gamma,
    pi_value,
    pochhammer,
    q_pochhammer_finite,
    to_real,
    working,
)


@dataclass(frozen=True)
class BesselParams:
    """Order parameter for the Bessel family; requires nu > -1."""

    nu: object

    def __post_init__(self):
        check_nu(self.nu, DEFAULT_PREC)


@dataclass(frozen=True)
class QBesselParams:
    """Order and base for the q-Bessel family; nu > -1, 0 < q < 1."""

    nu: object
    q: object

    def __post_init__(self):
        check_nu(self.nu, DEFAULT_PREC, "q-Bessel")
        check_q(self.q, DEFAULT_PREC)


def sinc_sigmas(order, prec=DEFAULT_PREC):
    """sigma_n = pi^(2n) / (2n+1)! for zeros k*pi of sin(pi*...)/..., squared."""
    check_order(order)
    with working(prec):
        pi2 = pi_value(prec) ** 2
        sig = [mp.one]
        for n in range(1, order + 1):
            sig.append(+(pi2**n / mp.factorial(2 * n + 1)))
    return CoefficientSeries(sigmas=tuple(sig), precision=prec)


def bessel_sigmas(params, order, prec=DEFAULT_PREC):
    """sigma_n = 1 / (n! 4^n (nu+1)_n) for squared Bessel zeros."""
    check_order(order)
    with working(prec):
        nu = to_real(params.nu, prec)
        sig = [mp.one]
        for n in range(1, order + 1):
            sig.append(+(1 / (mp.factorial(n) * mpf(4) ** n * pochhammer(nu + 1, n, prec))))
    return CoefficientSeries(sigmas=tuple(sig), precision=prec)


def airy_raw_coefficient(n, prec=DEFAULT_PREC):
    """Raw Taylor coefficient of the Airy-type product, before normalization."""
    check_integer(n, "coefficient index")
    with working(prec, 15):
        pi = pi_value(prec)
        front = mp.sqrt(3) * gamma(mpf(2) / 3, prec) ** 2 / (mp.cbrt(4) * pi)
        num = (
            mpf(16) ** (mpf(n) / 3)
            * gamma(mpf(n) / 3 + mpf(1) / 6, prec)
            * gamma(mpf(n) / 3 + mpf(1) / 2, prec)
        )
        return +(front * num / mp.factorial(2 * n))


def airy_sigmas(order, prec=DEFAULT_PREC):
    """Normalized coefficients alpha_n / alpha_0 for squared Airy-type zeros."""
    check_order(order)
    with working(prec, 15):
        alpha0 = airy_raw_coefficient(0, prec)
        sig = [mp.one]
        for n in range(1, order + 1):
            sig.append(+(airy_raw_coefficient(n, prec) / alpha0))
    return CoefficientSeries(sigmas=tuple(sig), precision=prec)


def qbessel_sigmas(params, order, prec=DEFAULT_PREC):
    """sigma_n = q^(n(n+nu)) / (4^n (q;q)_n (q^(nu+1);q)_n), squared q-Bessel zeros."""
    check_order(order)
    with working(prec):
        nu = to_real(params.nu, prec)
        q = to_real(params.q, prec)
        qnu1 = q ** (nu + 1)
        sig = [mp.one]
        for n in range(1, order + 1):
            num = q ** (n * (n + nu))
            den = (
                mpf(4) ** n
                * q_pochhammer_finite(q, q, n, prec)
                * q_pochhammer_finite(qnu1, q, n, prec)
            )
            sig.append(+(num / den))
    return CoefficientSeries(sigmas=tuple(sig), precision=prec)


def qairy_sigmas(q, order, prec=DEFAULT_PREC):
    """sigma_n = q^(n^2) / (q;q)_n for plain (not squared) q-Airy zeros."""
    check_order(order)
    with working(prec):
        qv = check_q(q, prec)
        sig = [mp.one]
        for n in range(1, order + 1):
            sig.append(+(qv ** (n * n) / q_pochhammer_finite(qv, qv, n, prec)))
    return CoefficientSeries(sigmas=tuple(sig), precision=prec)


def bessel_s_closed(params, k, prec=DEFAULT_PREC):
    """Closed-form s_k, k = 1..5, for squared Bessel zeros."""
    check_integer(k, "closed-form index k", 1, 5)
    with working(prec, 15):
        nu = to_real(params.nu, prec)

        def ph(a, n):
            return pochhammer(a, n, prec)

        def d(m):
            return mpf(4) ** m * _prod(ph(nu + 1, j) for j in range(1, m + 1))

        if k == 1:
            return +(1 / (4 * ph(nu + 1, 1)))
        if k == 2:
            return +(1 / d(2))
        if k == 3:
            return +(2 * ph(nu + 2, 1) / d(3))
        if k == 4:
            return +((5 * nu + 11) * ph(nu + 2, 2) / d(4))
        return +(2 * (7 * nu + 19) * ph(nu + 2, 2) * ph(nu + 2, 3) / d(5))


def qbessel_s_closed(params, k, prec=DEFAULT_PREC):
    """Closed-form s_k, k = 1..3, for squared q-Bessel zeros."""
    check_integer(k, "closed-form index k", 1, 3)
    with working(prec, 15):
        q = to_real(params.q, prec)
        nu = to_real(params.nu, prec)
        t = q**nu
        qt = q * t

        def qp(z, n):
            return q_pochhammer_finite(z, q, n, prec)

        if k == 1:
            return +(qt / (4 * (1 - q) * (1 - qt)))
        if k == 2:
            num = qt**2 * (1 + 2 * q - q**2 * t)
            den = 16 * (1 - q**2) * (1 - qt) * qp(qt, 2)
            return +(num / den)
        num = qt**3 * (
            1 + 3 * q + 3 * q**2 + 3 * q**3
            - q**2 * t - q**3 * t - 3 * q**4 * t
            + q**5 * t**2
        )
        den = 64 * (1 - q**3) * (1 - qt) ** 2 * qp(qt, 3)
        return +(num / den)


def qairy_s_closed(q, k, prec=DEFAULT_PREC):
    """Closed-form s_k, k = 1..5, for plain q-Airy zeros."""
    with working(prec, 15):
        qv = check_q(q, prec)
        check_integer(k, "closed-form index k", 1, 5)
        if k == 1:
            return +(qv / (1 - qv))
        if k == 2:
            return +(qv**2 * (1 + 2 * qv) / (1 - qv**2))
        if k == 3:
            return +(qv**3 * (1 + 3 * qv + 3 * qv**2 + 3 * qv**3) / (1 - qv**3))
        if k == 4:
            num = (1 + 2 * qv + 2 * qv**3) * (1 + 2 * qv + 2 * qv**2 + 2 * qv**3)
            return +(qv**4 * num / (1 - qv**4))
        num = (
            1 + 5 * qv + 10 * qv**2 + 15 * qv**3 + 20 * qv**4 + 20 * qv**5
            + 20 * qv**6 + 15 * qv**7 + 10 * qv**8 + 5 * qv**9 + 5 * qv**10
        )
        return +(qv**5 * num / (1 - qv**5))


def _prod(items):
    out = mp.one
    for x in items:
        out *= x
    return out

"""Coefficient providers and their closed-form power-sum references."""

from __future__ import annotations

from fractions import Fraction

import pytest
from mpmath import mp

from zerosum import (
    BesselParams,
    DomainError,
    QBesselParams,
    airy_raw_coefficient,
    airy_sigmas,
    bessel_s_closed,
    bessel_sigmas,
    bernoulli,
    power_sums_recurrence,
    q_pochhammer_finite,
    qairy_s_closed,
    qairy_sigmas,
    qbessel_s_closed,
    qbessel_sigmas,
    sinc_sigmas,
    to_real,
)

from conftest import rel_err

Q_GRID = ("0.1", "0.3", "0.5", "0.9")
NU_GRID = (Fraction(-1, 2), 0, Fraction(1, 2), 1, 5)


@pytest.fixture(autouse=True)
def _ambient_dps():
    with mp.workdps(90):
        yield


def test_sinc_sigma_values():
    series = sinc_sigmas(8, 60)
    assert series.sigmas[0] == 1
    for n in range(1, 9):
        want = mp.pi ** (2 * n) / mp.factorial(2 * n + 1)
        assert rel_err(series.sigmas[n], want) < mp.mpf("1e-57")


def test_sinc_power_sums_are_even_zeta_values():
    # s_n must equal sum_k (k pi)^(-2n) * pi^(2n) = zeta(2n), pinned by the
    # exact Bernoulli formula zeta(2n) = (-1)^(n+1) B_2n (2 pi)^(2n) / (2 (2n)!)
    rep = power_sums_recurrence(sinc_sigmas(10, 60))
    for n in range(1, 11):
        b = bernoulli(2 * n)
        zeta = (
            (-1) ** (n + 1)
            * (mp.mpf(b.numerator) / b.denominator)
            * (2 * mp.pi) ** (2 * n)
            / (2 * mp.factorial(2 * n))
        )
        assert rel_err(rep.value(n), zeta) < mp.mpf("1e-55")


def test_bessel_sigma_formula_and_params():
    for nu in NU_GRID:
        series = bessel_sigmas(BesselParams(nu=nu), 6, 60)
        nv = to_real(nu, 60)
        for n in range(1, 7):
            rising = mp.one
            for k in range(n):
                rising *= nv + 1 + k
            want = 1 / (mp.factorial(n) * mp.mpf(4) ** n * rising)
            assert rel_err(series.sigmas[n], want) < mp.mpf("1e-56")
    with pytest.raises(DomainError):
        BesselParams(nu=-1)
    with pytest.raises(DomainError):
        BesselParams(nu="-1.5")


def test_bessel_closed_forms_match_recurrence():
    for nu in (0, Fraction(1, 2)):
        params = BesselParams(nu=nu)
        rep = power_sums_recurrence(bessel_sigmas(params, 5, 60))
        for k in range(1, 6):
            closed = bessel_s_closed(params, k, 60)
            assert rel_err(rep.value(k), closed) < mp.mpf("1e-50")
        # first sum has the simple form 1/(4(nu+1))
        want = 1 / (4 * (to_real(nu, 60) + 1))
        assert rel_err(rep.value(1), want) < mp.mpf("1e-55")
    with pytest.raises(DomainError):
        bessel_s_closed(BesselParams(nu=0), 6, 60)


def test_bessel_power_sums_positive_decreasing():
    rep = power_sums_recurrence(bessel_sigmas(BesselParams(nu=0), 12, 50))
    vals = [rep.value(n) for n in range(1, 13)]
    assert all(v > 0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert rep.value(2) < rep.value(1) ** 2


def test_airy_normalization_is_two_pi():
    assert rel_err(airy_raw_coefficient(0, 60), 2 * mp.pi) < mp.mpf("1e-55")


def test_airy_raw_coefficients_reference():
    # alpha_n = sqrt(3) G(2/3)^2 16^(n/3) G(n/3 + 1/6) G(n/3 + 1/2)
    #           / (4^(1/3) pi (2n)!)
    for n in (0, 1, 2, 5, 9):
        got = airy_raw_coefficient(n, 60)
        want = (
            mp.sqrt(3)
            * mp.gamma(mp.mpf(2) / 3) ** 2
            * mp.mpf(16) ** (mp.mpf(n) / 3)
            * mp.gamma(mp.mpf(n) / 3 + mp.mpf(1) / 6)
            * mp.gamma(mp.mpf(n) / 3 + mp.mpf(1) / 2)
            / (mp.cbrt(4) * mp.pi * mp.factorial(2 * n))
        )
        assert rel_err(got, want) < mp.mpf("1e-56")
    with pytest.raises(DomainError):
        airy_raw_coefficient(-1, 60)


def test_airy_first_power_sum_closed_form():
    rep = power_sums_recurrence(airy_sigmas(4, 60))
    want = 3 * mp.gamma(mp.mpf(2) / 3) ** 4 / (4 * mp.pi ** 2)
    assert rel_err(rep.value(1), want) < mp.mpf("1e-50")
    assert rep.value(2) < rep.value(1) ** 2


def test_qbessel_sigma_formula():
    params = QBesselParams(nu=Fraction(1, 2), q="0.3")
    series = qbessel_sigmas(params, 5, 60)
    q = to_real("0.3", 60)
    nv = to_real(Fraction(1, 2), 60)
    for n in range(1, 6):
        want = q ** (n * (n + nv)) / (
            mp.mpf(4) ** n
            * q_pochhammer_finite(q, q, n, 60)
            * q_pochhammer_finite(q ** (nv + 1), q, n, 60)
        )
        assert rel_err(series.sigmas[n], want) < mp.mpf("1e-55")
    with pytest.raises(DomainError):
        QBesselParams(nu=0, q="1.5")
    with pytest.raises(DomainError):
        QBesselParams(nu=-2, q="0.5")


def test_qbessel_closed_forms_match_recurrence():
    for q in Q_GRID:
        for nu in (0, Fraction(1, 2), 2):
            params = QBesselParams(nu=nu, q=q)
            rep = power_sums_recurrence(qbessel_sigmas(params, 3, 60))
            for k in range(1, 4):
                closed = qbessel_s_closed(params, k, 60)
                assert rel_err(rep.value(k), closed) < mp.mpf("1e-50")
    with pytest.raises(DomainError):
        qbessel_s_closed(QBesselParams(nu=0, q="0.5"), 4, 60)


def test_qairy_sigma_formula():
    series = qairy_sigmas("0.5", 6, 60)
    q = to_real("0.5", 60)
    for n in range(1, 7):
        want = q ** (n * n) / q_pochhammer_finite(q, q, n, 60)
        assert rel_err(series.sigmas[n], want) < mp.mpf("1e-55")
    with pytest.raises(DomainError):
        qairy_sigmas("0", 3, 60)
    with pytest.raises(DomainError):
        qairy_sigmas("1", 3, 60)


def test_qairy_closed_forms_match_recurrence():
    for q in Q_GRID:
        rep = power_sums_recurrence(qairy_sigmas(q, 5, 60))
        for k in range(1, 6):
            closed = qairy_s_closed(q, k, 60)
            assert rel_err(rep.value(k), closed) < mp.mpf("1e-50")
    # q = 1/2 has rational sums; the first two are 1 and 2/3
    rep = power_sums_recurrence(qairy_sigmas("0.5", 2, 60))
    assert rel_err(rep.value(1), mp.one) < mp.mpf("1e-55")
    assert rel_err(rep.value(2), mp.mpf(2) / 3) < mp.mpf("1e-55")
    with pytest.raises(DomainError):
        qairy_s_closed("0.5", 6, 60)


def test_provider_order_validation():
    for call in (
        lambda: sinc_sigmas(0, 50),
        lambda: bessel_sigmas(BesselParams(nu=0), -1, 50),
        lambda: airy_sigmas(0, 50),
        lambda: qairy_sigmas("0.5", 0, 50),
        lambda: qbessel_sigmas(QBesselParams(nu=0, q="0.5"), 0, 50),
    ):
        with pytest.raises(DomainError):
            call()

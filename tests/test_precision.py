"""Numeric kernel: precision plumbing, gamma, Bernoulli, q-products."""

from __future__ import annotations

from fractions import Fraction

import pytest
from mpmath import mp

from zerosum import (
    DomainError,
    LimitExceededError,
    PoleError,
    bernoulli,
    check_precision,
    gamma,
    pi_value,
    pochhammer,
    q_pochhammer_finite,
    to_real,
    working,
)

from conftest import bernoulli_reference, rel_err

# well-known constants, quoted to 40 digits
GAMMA_THIRD = "2.678938534707747633655692940974677644129"


@pytest.fixture(autouse=True)
def _ambient_dps():
    # reference values in these tests are computed at the ambient precision
    with mp.workdps(80):
        yield


def test_check_precision_accepts_and_rejects():
    assert check_precision(30) == 30
    assert check_precision(200) == 200
    for bad in (29, 0, -5, 50.0, "50", None):
        with pytest.raises(DomainError):
            check_precision(bad)


def test_working_context_sets_digits():
    before = mp.dps
    with working(40):
        assert mp.dps == 50
    with working(40, extra=0):
        assert mp.dps == 40
    assert mp.dps == before
    with pytest.raises(DomainError):
        with working(10):
            pass


def test_to_real_conversions():
    assert to_real(7, 50) == 7
    assert to_real(Fraction(1, 4), 50) == mp.mpf(1) / 4
    third = to_real(Fraction(1, 3), 50)
    assert rel_err(third, mp.mpf(1) / 3) < mp.mpf("1e-55")
    assert to_real("0.125", 50) == mp.mpf(1) / 8
    # strings are parsed as exact decimals, not float round-trips
    tenth = to_real("0.1", 50)
    assert abs(tenth - mp.mpf(1) / 10) < mp.mpf("1e-55")


def test_pi_value_against_machin():
    # Machin's arctan formula, summed from scratch
    def arctan_inv(k):
        term = mp.mpf(1) / k
        total = mp.zero
        sign = 1
        n = 1
        while abs(term) > mp.mpf(10) ** (-78):
            total += sign * term / n
            term /= k * k
            sign = -sign
            n += 2
        return total

    machin = 16 * arctan_inv(5) - 4 * arctan_inv(239)
    assert rel_err(pi_value(60), machin) < mp.mpf("1e-58")


def test_gamma_at_integers():
    for n in range(1, 12):
        assert rel_err(gamma(n, 50), mp.factorial(n - 1)) < mp.mpf("1e-47")


def test_gamma_functional_identities():
    for x in ("0.25", "0.5", "1.75", "3.2", "7.9"):
        xv = to_real(x, 60)
        assert rel_err(gamma(xv + 1, 60), xv * gamma(xv, 60)) < mp.mpf("1e-57")
    # reflection on (0, 1)
    for x in ("0.1", "0.3", "0.5", "0.8"):
        xv = to_real(x, 60)
        prod = gamma(xv, 60) * gamma(1 - xv, 60)
        assert rel_err(prod, mp.pi / mp.sin(mp.pi * xv)) < mp.mpf("1e-57")
    # Legendre duplication at x = 1/3
    xv = to_real(Fraction(1, 3), 60)
    lhs = gamma(2 * xv, 60)
    rhs = gamma(xv, 60) * gamma(xv + mp.mpf(1) / 2, 60)
    rhs *= 2 ** (2 * xv - 1) / mp.sqrt(mp.pi)
    assert rel_err(lhs, rhs) < mp.mpf("1e-57")


def test_gamma_known_value_and_poles():
    assert rel_err(gamma(Fraction(1, 3), 50), mp.mpf(GAMMA_THIRD)) < mp.mpf("1e-39")
    assert rel_err(gamma(Fraction(1, 2), 50) ** 2, pi_value(50)) < mp.mpf("1e-48")
    for bad in (0, -1, -7):
        with pytest.raises(PoleError):
            gamma(bad, 50)
    # points inside the near-pole guard window are rejected too
    with pytest.raises(PoleError):
        gamma(mp.mpf(-2) + mp.mpf("1e-30"), 50)


def test_bernoulli_against_akiyama_tanigawa():
    ours = [bernoulli(k) for k in range(31)]
    for k in range(31):
        ref = bernoulli_reference(k)
        if k == 1:
            assert ours[k] == Fraction(-1, 2)
            assert ref == Fraction(1, 2)
        else:
            assert ours[k] == ref
    assert bernoulli(12) == Fraction(-691, 2730)
    assert all(ours[k] == 0 for k in range(3, 31, 2))


def test_bernoulli_bounds():
    with pytest.raises(DomainError):
        bernoulli(-1)
    with pytest.raises(DomainError):
        bernoulli(2.0)
    with pytest.raises(LimitExceededError):
        bernoulli(65)


def test_pochhammer_matches_gamma_ratio():
    for a in ("0.5", "1.5", "3"):
        for n in (0, 1, 2, 5, 9):
            want = gamma(to_real(a, 60) + n, 60) / gamma(a, 60)
            assert rel_err(pochhammer(a, n, 60), want) < mp.mpf("1e-56")
    with pytest.raises(DomainError):
        pochhammer(1, -1)


def test_q_pochhammer_finite_exact_rational_case():
    # (0.3; 0.7)_5 has a terminating decimal expansion; pin it exactly
    z, q = Fraction(3, 10), Fraction(7, 10)
    want = Fraction(1)
    qk = Fraction(1)
    for _ in range(5):
        want *= 1 - z * qk
        qk *= q
    assert want == Fraction(392689198434883, 10 ** 15)
    got = q_pochhammer_finite("0.3", "0.7", 5, 50)
    assert rel_err(got, mp.mpf(want.numerator) / want.denominator) < mp.mpf("1e-48")
    assert q_pochhammer_finite("0.3", "0.7", 0, 50) == 1


def test_q_domain_rejected():
    for q in (0, 1, "1.2", -0.3):
        with pytest.raises(DomainError):
            q_pochhammer_finite("0.5", q, 3, 50)

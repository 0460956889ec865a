"""Numeric kernel: precision plumbing, argument checks, gamma, Bernoulli, q-products."""

from __future__ import annotations

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from zerosum import (
    BesselParams,
    DirichletCharacter,
    DomainError,
    LimitExceededError,
    PoleError,
    PowerSumReport,
    QBesselParams,
    XiEvaluator,
    ZeroList,
    airy_raw_coefficient,
    airy_zeros,
    bernoulli,
    bessel_s_closed,
    bessel_zeros,
    check_precision,
    derivative_ratio_check,
    elementary_symmetric_finite,
    gamma,
    lower_triangular_system_matrix,
    pi_value,
    pochhammer,
    q_pochhammer_finite,
    qairy_s_closed,
    qairy_sigmas,
    qairy_zeros,
    qbessel_s_closed,
    qbessel_zeros,
    riemann_moments,
    riemann_s_closed,
    sinc_sigmas,
    tail_estimate,
    to_real,
    working,
)
from zerosum import oracle as oracle_module
from zerosum.quadrature import legendre_rule, panel_grid

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


def _bessel_list(tol=mp.mpf("1e-15"), modulus=1):
    return ZeroList(
        zeros=(mp.mpf(2), mp.mpf(5)), residuals=(0, 0), family="bessel", precision=30, tol=tol,
        modulus=modulus,
    )


NON_NEGATIVE = "must be a non-negative integer, got "
POSITIVE = "must be a positive integer, got "


@pytest.mark.parametrize(
    "call, error, message",
    [
        # isinstance(True, int) holds: without its explicit exclusion a
        # bool would pass as 0 or 1
        (lambda: airy_zeros(True, 30), DomainError, "count " + POSITIVE + "True"),
        (lambda: sinc_sigmas(True, 30), DomainError, "order " + POSITIVE + "True"),
        (lambda: riemann_moments(True, 30), DomainError, "moment order " + POSITIVE + "True"),
        (lambda: bernoulli(True), DomainError, "Bernoulli index " + NON_NEGATIVE + "True"),
        (lambda: tail_estimate(_bessel_list(), True), DomainError, "order " + POSITIVE + "True"),
        (lambda: XiEvaluator(prec=30).moment(True), DomainError,
         "moment order " + NON_NEGATIVE + "True"),
        (lambda: bessel_s_closed(BesselParams(0), True), DomainError,
         "closed-form index k must be an integer in 1..5, got True"),
        (lambda: _bessel_list(tol=True), DomainError,
         "tol must be a positive finite real, got True"),
        (lambda: _bessel_list(modulus=True), DomainError, "modulus " + POSITIVE + "True"),
        (lambda: pochhammer(1, False), DomainError, "pochhammer order " + NON_NEGATIVE + "False"),
        (lambda: q_pochhammer_finite(1, "0.5", True), DomainError,
         "q-pochhammer order " + NON_NEGATIVE + "True"),
        (lambda: PowerSumReport((1, 2), "recurrence", 30).value(True), DomainError,
         "power sum index must be an integer in 1..2, got True"),
        (lambda: panel_grid(0, 1, True, 8, 40), DomainError, "panel count " + POSITIVE + "True"),
        (lambda: lower_triangular_system_matrix((1, 2), -1, True), DomainError,
         "matrix order must be an integer in 1..1, got True"),
        # library messages that took the shared wording
        (lambda: airy_raw_coefficient(-1), DomainError, "coefficient index " + NON_NEGATIVE + "-1"),
        (lambda: elementary_symmetric_finite((1, 2), -1), DomainError,
         "elementary symmetric index " + NON_NEGATIVE + "-1"),
        (lambda: derivative_ratio_check((1, 2), 0, 3), DomainError,
         "derivative order must be an integer in 0..2, got 3"),
        (lambda: XiEvaluator(prec=30).moment(-1), DomainError, "moment order " + NON_NEGATIVE + "-1"),
        (lambda: riemann_moments(0, 30), DomainError, "moment order " + POSITIVE + "0"),
        (lambda: riemann_s_closed((1,) * 6, 5), DomainError,
         "closed-form index k must be an integer in 1..4, got 5"),
        (lambda: bessel_s_closed(BesselParams(0), 6), DomainError,
         "closed-form index k must be an integer in 1..5, got 6"),
        (lambda: qbessel_s_closed(QBesselParams(0, "0.5"), 4), DomainError,
         "closed-form index k must be an integer in 1..3, got 4"),
        (lambda: qairy_s_closed("0.5", 0), DomainError,
         "closed-form index k must be an integer in 1..5, got 0"),
        (lambda: PowerSumReport((1, 2), "recurrence", 30).value(3), DomainError,
         "power sum index must be an integer in 1..2, got 3"),
        (lambda: legendre_rule(1, 30), DomainError, "point count must be an integer >= 2, got 1"),
        (lambda: DirichletCharacter(1, (0,)), DomainError, "modulus must be an integer >= 2, got 1"),
        (lambda: q_pochhammer_finite(1, Fraction(3, 2), 2), DomainError,
         "q must satisfy 0 < q < 1, got 3/2"),
        # the documented caps
        (lambda: bernoulli(65), LimitExceededError, "Bernoulli index 65 exceeds the cap 64"),
        (lambda: XiEvaluator(prec=30).moment(13), LimitExceededError,
         "moment order 13 exceeds the cap 12"),
        (lambda: riemann_moments(13, 30), LimitExceededError, "moment order 13 exceeds the cap 12"),
    ],
    ids=[
        "airy_zeros-bool",
        "sinc_sigmas-bool",
        "riemann_moments-bool",
        "bernoulli-bool",
        "tail_estimate-bool",
        "moment-bool",
        "bessel_s_closed-bool",
        "zero_list_tol-bool",
        "zero_list_modulus-bool",
        "pochhammer-bool",
        "q_pochhammer-bool",
        "power_sum_value-bool",
        "panel_grid-bool",
        "system_matrix-bool",
        "airy_raw_coefficient",
        "elementary_symmetric",
        "derivative_ratio_check",
        "moment-negative",
        "riemann_moments-zero",
        "riemann_s_closed",
        "bessel_s_closed",
        "qbessel_s_closed",
        "qairy_s_closed",
        "power_sum_value",
        "legendre_rule",
        "character_modulus",
        "q_pochhammer-q",
        "bernoulli-cap",
        "moment-cap",
        "riemann_moments-cap",
    ],
)
def test_integer_arguments_share_one_check(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


class _Located(Exception):
    """Raised in place of a zero scan: the locator accepted its arguments."""


@settings(max_examples=40, deadline=None)
@given(
    nu=st.fractions(min_value=-3, max_value=3, max_denominator=20),
    q=st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(3, 2), max_denominator=20),
)
@example(nu=Fraction(-1), q=Fraction(-1))
@example(nu=Fraction(0), q=Fraction(0))
@example(nu=Fraction(9, 10), q=Fraction(9, 10))
@example(nu=Fraction(1), q=Fraction(1))
def test_nu_and_q_domains_have_one_check(nu, q):
    # the coefficient layer takes nu > -1 and 0 < q < 1; the locators take
    # nu > -1 and 0 < q <= 9/10; each rejection carries the one message
    def outcome(call):
        try:
            call()
        except DomainError as exc:
            return str(exc)
        except _Located:
            pass
        return None

    nu_ok, q_ok = nu > -1, 0 < q < 1
    bessel = None if nu_ok else f"Bessel order must satisfy nu > -1, got {nu}"
    qbessel = None if nu_ok else f"q-Bessel order must satisfy nu > -1, got {nu}"
    coeff_q = None if q_ok else f"q must satisfy 0 < q < 1, got {q}"
    oracle_q = None if 0 < q <= Fraction(9, 10) else f"q must satisfy 0 < q <= 0.9, got {q}"

    assert outcome(lambda: BesselParams(nu)) == bessel
    # the q-Bessel parameters check nu before q, the locator q before nu
    assert outcome(lambda: QBesselParams(nu, q)) == (qbessel or coeff_q)
    assert outcome(lambda: qairy_sigmas(q, 1, 30)) == coeff_q
    assert outcome(lambda: qairy_s_closed(q, 1, 30)) == coeff_q
    assert outcome(lambda: q_pochhammer_finite(1, q, 1, 30)) == coeff_q
    with mock.patch.object(oracle_module, "_locate", side_effect=_Located):
        assert outcome(lambda: bessel_zeros(nu, 1, 30)) == bessel
        assert outcome(lambda: qairy_zeros(q, 1, 30)) == oracle_q
        assert outcome(lambda: qbessel_zeros(nu, q, 1, 30)) == (oracle_q or qbessel)

"""Zero location by scan plus bracketed refinement, tails, truncated sums."""

from __future__ import annotations

import dataclasses
import functools
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from mpmath import mp

import zerosum.oracle as oracle_module

from zerosum import (
    AccuracyError,
    BesselParams,
    BracketFailureError,
    DomainError,
    LimitExceededError,
    QBesselParams,
    ScanExhaustedError,
    bessel_s_closed,
    kronecker_character,
    qairy_s_closed,
    qbessel_s_closed,
    to_real,
    zero_oracle,
)
from zerosum.oracle import (
    MODE_PLAIN,
    MODE_SQUARED,
    TailEstimate,
    ZeroList,
    airy_zeros,
    bessel_zeros,
    qairy_zeros,
    qbessel_zeros,
    tail_estimate,
    truncated_power_sum,
    xi_zeros,
)
from zerosum.zeta import XiEvaluator

from conftest import rel_err

# reference ordinates from widely tabulated sources, 30+ digits
J01 = "2.404825557695772768621631879326"
J02 = "5.520078110286310649596604112814"
AIRY_A1 = "2.338107410459767038489197252446"  # |first Airy zero|
GAMMA1 = "14.13472514173469379045725198356"
GAMMA2 = "21.02203963877155499262847959389"
GAMMA3 = "25.01085758014568876321379099257"
DIRICHLET3_Z1 = "8.0397371556814666817136233"


@pytest.fixture(autouse=True)
def _ambient_dps():
    with mp.workdps(80):
        yield


@pytest.fixture(scope="module")
def bessel0():
    return bessel_zeros(0, 40, 50)


@pytest.fixture(scope="module")
def qairy_half():
    return qairy_zeros("0.5", 25, 50)


def test_zero_list_validation(bessel0):
    def make(zeros, residuals, family="bessel", tol=mp.mpf("1e-25")):
        return ZeroList(zeros=zeros, residuals=residuals, family=family, precision=50, tol=tol)

    with pytest.raises(DomainError):
        make((1, 2), (0,))
    with pytest.raises(DomainError):
        make((2, 1), (0, 0))
    with pytest.raises(DomainError):
        make((), ())
    # a family without a record is refused when the list is built, not
    # when it is first summed
    with pytest.raises(DomainError, match="^unknown zero-list family 'x'$"):
        make((1, 2), (0, 0), family="x")
    # a tol that is not a positive finite real would turn every bound
    # summed from the list into a wrong bracket or a TypeError
    for tol in (-1, 0, mp.mpf(-1), mp.inf, mp.nan, float("inf"), None, "1e-25"):
        with pytest.raises(DomainError, match="^tol must be a positive finite real, got "):
            make((1, 2), (0, 0), tol=tol)
    zl = make((2, 4), (0, 0))
    assert zl.count == 2
    assert (zl.lambda_mode, zl.tol_kind) == (MODE_SQUARED, "absolute")
    assert rel_err(zl.lambdas()[0], mp.mpf(1) / 4) < mp.mpf("1e-14")
    zl2 = make((2, 4), (0, 0), family="qairy")
    assert (zl2.lambda_mode, zl2.tol_kind) == (MODE_PLAIN, "relative")
    assert rel_err(zl2.lambdas()[1], mp.mpf(1) / 4) < mp.mpf("1e-14")
    # the CLI's sinc list is a Bessel list with its zeros rescaled; its
    # family still fixes how it is summed
    sinc = dataclasses.replace(
        bessel0, zeros=tuple(z / mp.pi for z in bessel0.zeros), tol=bessel0.tol / mp.pi, note=""
    )
    assert (sinc.lambda_mode, sinc.tol_kind) == (MODE_SQUARED, "absolute")


def test_bessel_zeros_match_reference(bessel0):
    assert bessel0.family == "bessel"
    assert bessel0.lambda_mode == MODE_SQUARED
    assert bessel0.tol_kind == "absolute"
    assert abs(bessel0.zeros[0] - mp.mpf(J01)) < mp.mpf("1e-25")
    assert abs(bessel0.zeros[1] - mp.mpf(J02)) < mp.mpf("1e-25")
    assert all(r < mp.mpf("1e-20") for r in bessel0.residuals)


def test_bessel_half_order_zeros_are_k_pi():
    zl = bessel_zeros("0.5", 20, 50)
    for k, z in enumerate(zl.zeros, 1):
        assert abs(z - k * mp.pi) < mp.mpf("1e-24")


def test_bessel_zero_interlacing():
    # classical interlacing of consecutive-order zeros
    z0 = bessel_zeros(0, 11, 40).zeros
    z1 = bessel_zeros(1, 10, 40).zeros
    for k in range(10):
        assert z0[k] < z1[k] < z0[k + 1]


COUNT_0 = (DomainError, "count must be a positive integer, got 0")
Q_RANGE = "q must satisfy 0 < q <= 0.9, got "


@pytest.mark.parametrize(
    "locate, args, error, message",
    [
        (bessel_zeros, (0, 0, 50), *COUNT_0),
        (bessel_zeros, (0, 501, 50), LimitExceededError, "count 501 exceeds the cap 500"),
        (bessel_zeros, (-1, 3, 50), DomainError, "Bessel order must satisfy nu > -1, got -1"),
        (airy_zeros, (0, 50), *COUNT_0),
        (airy_zeros, (201, 50), LimitExceededError, "count 201 exceeds the cap 200"),
        (qairy_zeros, ("0.5", 0, 50), *COUNT_0),
        (qairy_zeros, ("0.5", 201, 50), LimitExceededError, "count 201 exceeds the cap 200"),
        (qairy_zeros, ("0", 3, 50), DomainError, Q_RANGE + "0"),
        (qairy_zeros, ("0.95", 3, 50), DomainError, Q_RANGE + "0.95"),
        (qbessel_zeros, (0, "0.5", 0, 50), *COUNT_0),
        (qbessel_zeros, (0, "0.5", 201, 50), LimitExceededError, "count 201 exceeds the cap 200"),
        (qbessel_zeros, (0, "0", 3, 50), DomainError, Q_RANGE + "0"),
        (qbessel_zeros, (0, "0.95", 3, 50), DomainError, Q_RANGE + "0.95"),
        (qbessel_zeros, (-1, "0.5", 3, 50), DomainError,
         "q-Bessel order must satisfy nu > -1, got -1"),
        (xi_zeros, (0, 50), *COUNT_0),
        (xi_zeros, (51, 50), LimitExceededError, "count 51 exceeds the cap 50"),
        (xi_zeros, (51, 50, kronecker_character(-3)), LimitExceededError,
         "count 51 exceeds the cap 50"),
    ],
)
def test_bessel_count_and_order_validation(locate, args, error, message):
    # every locator reads its cap from its own family's record
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        locate(*args)


@pytest.fixture
def series_calls(monkeypatch):
    """Record the z of every Bessel Taylor-series evaluation."""
    calls = []
    real = oracle_module._bessel_series

    def spy(nu, z, prec):
        calls.append(z)
        return real(nu, z, prec)

    monkeypatch.setattr(oracle_module, "_bessel_series", spy)
    return calls


@pytest.mark.parametrize("prec", (30, 50))
@pytest.mark.parametrize(
    "nu", (Fraction(-1, 2), 0, Fraction(1, 3), Fraction(1, 2), 1, Fraction(5, 2)), ids=str
)
def test_bessel_evaluator_matches_mpmath_across_hankel_switch(nu, prec, series_calls):
    # from near the origin, densely through the switch to Hankel's
    # expansion, out to the largest zeros criterion 3 locates
    nuv = to_real(nu, prec)
    f = oracle_module._make_bessel_eval(nuv, prec)
    points = [0.5, 7.25, 31.0] + [40.37 + 5 * i for i in range(21)] + [250.5, 611.3]
    series_z, hankel_z = [], []
    for zf in points:
        z = mp.mpf(zf)
        before = len(series_calls)
        got = f(z)
        (series_z if len(series_calls) > before else hankel_z).append(zf)
        with mp.workdps(prec + 40):
            want = mp.gamma(nuv + 1) * (2 / z) ** nuv * mp.besselj(nuv, z)
            assert abs(got - want) <= mp.mpf(10) ** (-(prec // 2)) * abs(want), zf
    if Fraction(nu).denominator == 2:
        # half-odd-integer order: the expansion terminates, its remainder
        # is zero and it is exact at every z > 0
        assert not series_z
    else:
        assert series_z and hankel_z
        assert max(series_z) < min(hankel_z)


@pytest.mark.parametrize("nu, count", [(Fraction(1, 3), 40), (Fraction(5, 2), 30)], ids=str)
def test_bessel_zeros_past_hankel_switch_match_mpmath(nu, count, series_calls):
    prec = 50
    zl = bessel_zeros(nu, count, prec)
    assert zl.count == count
    # the last zeros were located on Hankel's expansion alone
    assert all(z < zl.zeros[-5] for z in series_calls)
    nuv = to_real(nu, prec + 20)
    with mp.workdps(prec + 20):
        for k, z in enumerate(zl.zeros, 1):
            assert abs(z - mp.besseljzero(nuv, k)) < mp.mpf(10) ** (-(prec // 2)), k


def _sum_from_scratch(first, ratio, count=None):
    """first + t_1 + t_2 + ..., t_k = t_(k-1) ratio(k), at the ambient precision.

    With `count` it sums exactly t_0 .. t_count; otherwise it stops once the
    terms have fallen below the working epsilon of the largest one.
    """
    t = total = first
    peak = abs(t)
    for k in range(1, 100_000):
        if count is not None and k > count:
            return total
        t *= ratio(k)
        total += t
        peak = max(peak, abs(t))
        if count is None and abs(t) < mp.eps * peak:
            return total
    raise AssertionError("reference series did not converge")


def _qairy_ratio(q, z):
    return lambda k: -z * q ** (2 * k - 1) / (1 - q**k)


def _qbessel_ratio(nu, q, x):
    return lambda k: -x * q ** (nu + 2 * k - 1) / (4 * (1 - q**k) * (1 - q ** (nu + k)))


def _peak_digits(ratio):
    # log10 of the largest term over the first, in floating point
    peak = mag = 0.0
    with mp.workdps(20):
        for k in range(1, 100_000):
            step = float(mp.log10(abs(ratio(k))))
            mag += step
            peak = max(peak, mag)
            if step < 0 and mag < peak - 40:
                return peak
    raise AssertionError("series terms did not decay")


@pytest.mark.parametrize("prec", (30, 50))
def test_airy_evaluator_matches_mpmath_out_to_the_count_cap(prec):
    # f(z) = (pi/3^(1/3)) Ai(-z/3^(1/3)), from near the origin out to the
    # zero at the count cap, where one value loses about 270 digits
    f = oracle_module._make_airy_eval(prec)
    last = _scaled_airy_zero(oracle_module.AIRY_COUNT_CAP)
    points = [mp.mpf(z) for z in (0.5, 3.37, 7.25, 19.6, 31.0, 55.5, 87.3, 112.9, 131.1)]
    for z in points + [last - mp.mpf("0.3"), last]:
        got = f(z)
        with mp.workdps(prec + 40):
            want = mp.pi / mp.cbrt(3) * mp.airyai(-z / mp.cbrt(3))
            assert abs(got - want) <= mp.mpf(10) ** (-(prec // 2)) * abs(want), z


@pytest.mark.parametrize("prec", (30, 50))
@pytest.mark.parametrize("q", (Fraction(1, 2), Fraction(9, 10)), ids=str)
@pytest.mark.parametrize("family", ("qairy", "qbessel"))
def test_q_evaluators_match_their_defining_series(family, q, prec):
    # x = q^-j: the q-Airy zeros sit near q^-(2k - 1) and the q-Bessel
    # x-zeros near q^-2k, so j = 2 Q_COUNT_CAP is the count cap's reach.
    # At q = 1/2 the points stop at the 100th zero (x near 1e60): one
    # value at the cap's reach (x near 1e120, 12000 digits of
    # cancellation) takes 2-4 s.
    qv = to_real(q, prec)
    nu = mp.mpf(3) / 4
    if family == "qairy":
        f = oracle_module._make_qairy_eval(qv, prec)
    else:
        f = oracle_module._make_qbessel_eval(nu, qv, prec)
    top = 2 * oracle_module.Q_COUNT_CAP if q > Fraction(1, 2) else oracle_module.Q_COUNT_CAP
    for j in (0, 3, 17, 60, top // 2, top):
        x = mp.mpf("1.37") * qv ** -j
        got = f(x)
        ratio = _qairy_ratio(qv, x) if family == "qairy" else _qbessel_ratio(nu, qv, x)
        # prec + 40 digits beyond the series' own cancellation
        lost = _peak_digits(ratio) - float(mp.log10(abs(got)))
        with mp.workdps(prec + 40 + int(lost) + 1):
            want = _sum_from_scratch(mp.one, ratio)
            assert abs(got - want) <= mp.mpf(10) ** (-(prec // 2)) * abs(want), j


def _recording(real, log):
    def record(*args, **kwargs):
        log.append(real(*args, **kwargs))
        return log[-1]

    return record


@settings(
    max_examples=30,
    deadline=None,
    # the autouse ambient-precision fixture holds for every example alike
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    family=st.sampled_from(["bessel", "airy", "qairy", "qbessel"]),
    nu=st.fractions(min_value=Fraction(-9, 10), max_value=12, max_denominator=12),
    q=st.fractions(min_value=Fraction(1, 20), max_value=Fraction(9, 10), max_denominator=50),
    size=st.floats(min_value=-1, max_value=1),
    negative=st.booleans(),
    dps=st.integers(min_value=30, max_value=160),
)
def test_series_pass_stays_within_its_rounding_bound(family, nu, q, size, negative, dps):
    # the engine sums on integers scaled by 2^wp; its reported bound must
    # cover the distance to the same terms summed in mpf at dps + 40
    nuv, qv = to_real(nu, dps + 40), to_real(q, dps + 40)
    # |z| up to 63 for Bessel and Airy, |x| up to 1e14 for the q-families
    z = mp.mpf(10) ** (size * (0.9 if family in ("bessel", "airy") else 7.5) + 0.9)
    z = -z if negative else z
    lanes = []
    with mock.patch.object(
        oracle_module, "_fixed_pass", _recording(oracle_module._fixed_pass, lanes)
    ):
        if family == "bessel":
            total, maxmag, n, err = oracle_module._bessel_pass(nuv, z, dps)
        elif family == "airy":
            total, maxmag, n, err = oracle_module._airy_pass(z, dps, oracle_module._airy_heads)
        elif family == "qairy":
            total, maxmag, n, err = oracle_module._qairy_pass(qv, z, dps)
        else:
            qn = oracle_module._q_power(qv, nuv, dps)
            total, maxmag, n, err = oracle_module._qbessel_pass(qv, qn, z, dps)
    with mp.workdps(dps + 40):
        if family == "bessel":
            want = _sum_from_scratch(mp.one, lambda k: -(z / 2) ** 2 / (k * (nuv + k)), n)
        elif family == "airy":
            (_, _, _, n1, _, _), (_, _, _, n2, _, _) = lanes
            c1 = mp.pi / (3 * mp.gamma(mp.mpf(2) / 3))
            c2 = mp.pi / (9 * mp.gamma(mp.mpf(4) / 3))
            want = _sum_from_scratch(c1, lambda k: -(z**3) / (9 * k * (3 * k - 1)), n1)
            want += z * _sum_from_scratch(c2, lambda k: -(z**3) / (9 * k * (3 * k + 1)), n2)
        elif family == "qairy":
            want = _sum_from_scratch(mp.one, _qairy_ratio(qv, z), n)
        else:
            want = _sum_from_scratch(mp.one, _qbessel_ratio(nuv, qv, z), n)
        assert abs(total - want) <= err
        # and the bound costs none of the digits the cancellation check
        # certifies, dps less log10(maxmag / |total|) where that is positive
        assert err <= max(maxmag, abs(total)) * mp.mpf(10) ** -dps


def test_bessel_zeros_through_stepping_fallback_match_mpmath(monkeypatch):
    # at nu = 40 McMahon's expansion offers no seed for zeros 3 and 4 (its
    # error term is still too wide), so the scan brackets them as it does
    # the first two zeros
    brackets = []
    real = oracle_module._scan

    def spy(*args):
        for bracket in real(*args):
            brackets.append(bracket)
            yield bracket

    monkeypatch.setattr(oracle_module, "_scan", spy)
    zl = bessel_zeros(40, 8, 30)
    assert len(brackets) == 4
    with mp.workdps(50):
        for k, z in enumerate(zl.zeros, 1):
            assert abs(z - mp.besseljzero(40, k)) < mp.mpf("1e-15"), k


# family -> (locator, arguments, seed rule, spacing check, scan variable)
SEEDED = {
    "bessel": (bessel_zeros, (0, 12, 30), "_bessel_seed", "_bessel_spaced", False),
    "airy": (airy_zeros, (12, 30), "_airy_seed", "_airy_spaced", False),
    "qairy": (qairy_zeros, (Fraction(14, 25), 12, 30), "_ratio_seed", "_ratio_spaced", False),
    "qbessel": (qbessel_zeros, (1, Fraction(31, 50), 12, 30), "_ratio_seed", "_ratio_spaced",
                True),
}


def _within_tol(got, want):
    for k, (a, b) in enumerate(zip(got.zeros, want), 1):
        b = mp.mpf(b)
        gap = abs(a - b) / b if got.tol_kind == "relative" else abs(a - b)
        assert gap < got.tol, k


def _scan_only(monkeypatch, family):
    locate, args, seed, _, _ = SEEDED[family]
    with monkeypatch.context() as m:
        m.setattr(oracle_module, seed, lambda *_: None)
        return locate(*args)


@pytest.mark.parametrize("family", sorted(SEEDED))
def test_scan_only_zeros_match_seeded_zeros(monkeypatch, family):
    locate, args, _, spaced, _ = SEEDED[family]
    accepted = []
    real = getattr(oracle_module, spaced)

    def spy(*a):
        accepted.append(real(*a))
        return accepted[-1]

    monkeypatch.setattr(oracle_module, spaced, spy)
    seeded = locate(*args)
    # every zero from the third on came from an accepted seed
    assert accepted == [True] * (seeded.count - 2)
    scanned = _scan_only(monkeypatch, family)
    _within_tol(seeded, scanned.zeros)


def _reference_zeros(monkeypatch, family, count):
    if family == "bessel":
        return [mp.besseljzero(0, k) for k in range(1, count + 1)]
    if family == "airy":
        return [_scaled_airy_zero(k) for k in range(1, count + 1)]
    return _scan_only(monkeypatch, family).zeros


@pytest.mark.parametrize("skip", (1, 2), ids=("next-zero", "zero-after-next"))
@pytest.mark.parametrize("family", sorted(SEEDED))
def test_seed_landing_on_a_later_zero_is_rejected(monkeypatch, family, skip):
    locate, args, seed, spaced, squared = SEEDED[family]
    target = 5
    with mp.workdps(50):
        ref = _reference_zeros(monkeypatch, family, 12)
    real_seed = getattr(oracle_module, seed)
    real_spaced = getattr(oracle_module, spaced)
    verdicts = {}

    def landing(*a):
        zs = a[-2]
        if len(zs) + 1 != target:
            return real_seed(*a)
        # a narrow bracket about zero target + skip in the scan variable
        z = ref[target - 1 + skip]
        x = z * z if squared else z
        return x * (1 - mp.mpf("1e-6")), x * (1 + mp.mpf("1e-6"))

    def spy(*a):
        verdicts[len(a[-2]) + 1] = real_spaced(*a)
        return verdicts[len(a[-2]) + 1]

    monkeypatch.setattr(oracle_module, seed, landing)
    monkeypatch.setattr(oracle_module, spaced, spy)
    zl = locate(*args)
    if skip == 1:
        # zero target + 1 sits where f has the other sign: the sign check fails
        assert target not in verdicts
    else:
        # the ends carry the right signs, but the refined zero is spaced
        # like zero target + 2
        assert verdicts[target] is False
    assert all(verdicts[k] for k in verdicts if k != target)
    _within_tol(zl, ref)


@settings(
    max_examples=20,
    deadline=None,
    # the autouse ambient-precision fixture holds for every example alike
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    nu=st.fractions(min_value=0, max_value=5, max_denominator=12),
    count=st.integers(min_value=1, max_value=12),
    airy_count=st.integers(min_value=1, max_value=25),
)
def test_seeded_zeros_match_mpmath_references(nu, count, airy_count):
    zl = bessel_zeros(nu, count, 30)
    nuv = to_real(nu, 50)
    with mp.workdps(50):
        for k, z in enumerate(zl.zeros, 1):
            assert abs(z - mp.besseljzero(nuv, k)) < zl.tol, (nu, k)
    zl = airy_zeros(airy_count, 30)
    for k, z in enumerate(zl.zeros, 1):
        assert abs(z - _scaled_airy_zero(k)) < zl.tol, k


@functools.lru_cache(maxsize=None)
def _scaled_airy_zero(k):
    with mp.workdps(50):
        return mp.cbrt(3) * abs(mp.airyaizero(k))


@settings(
    max_examples=30,
    deadline=None,
    # the autouse ambient-precision fixture holds for every example alike
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    root=st.floats(min_value=0.5, max_value=200),
    left=st.floats(min_value=0.01, max_value=0.99),
    right=st.floats(min_value=0.01, max_value=50),
    cubic=st.floats(min_value=0, max_value=10),
    sign=st.sampled_from([-1, 1]),
    digits=st.integers(min_value=5, max_value=30),
    relative=st.booleans(),
)
def test_refine_lands_within_tol_of_the_bracketed_root(
    root, left, right, cubic, sign, digits, relative
):
    r = mp.mpf(root)

    def f(x):
        # strictly monotone, so r is the only zero anywhere
        return sign * ((x - r) + cubic * (x - r) ** 3)

    tol = mp.mpf(10) ** -digits
    lo, hi = r * (1 - mp.mpf(left)), r + mp.mpf(right)
    z, res = oracle_module._refine(f, lo, hi, f(lo), f(hi), tol, relative)
    assert lo < z < hi
    assert abs(z - r) <= (tol * r if relative else tol)
    assert res == abs(f(z))
    # a bracket wholly above the root holds no sign change
    with pytest.raises(BracketFailureError):
        oracle_module._refine(f, hi, 2 * hi, f(hi), f(2 * hi), tol, relative)


@pytest.mark.parametrize(
    "locate, args, cap",
    [
        (bessel_zeros, (0, 64, 30), 10),
        (airy_zeros, (20, 30), 10),
        (qairy_zeros, (Fraction(14, 25), 25, 30), 10),
        (qbessel_zeros, (1, Fraction(31, 50), 20, 30), 10),
    ],
    ids=["bessel", "airy", "qairy", "qbessel"],
)
def test_refiner_evaluations_per_zero(monkeypatch, locate, args, cap):
    # every evaluation the refiner makes, its closing residual included
    evaluations = []
    real = oracle_module._refine

    def counting(f, *rest):
        def counted(x):
            evaluations.append(x)
            return f(x)

        return real(counted, *rest)

    monkeypatch.setattr(oracle_module, "_refine", counting)
    zl = locate(*args)
    assert len(evaluations) <= cap * zl.count


@pytest.mark.parametrize(
    "locate, args, cap",
    [
        (bessel_zeros, (0, 64, 30), 6),
        (airy_zeros, (20, 30), 6),
        (qairy_zeros, (Fraction(14, 25), 25, 30), 10),
        (qairy_zeros, (Fraction(29, 50), 25, 30), 10),
        (qbessel_zeros, (1, Fraction(31, 50), 20, 30), 10),
        (qbessel_zeros, (1, Fraction(14, 25), 20, 30), 10),
        (qbessel_zeros, (1, Fraction(29, 50), 20, 30), 10),
    ],
    ids=["bessel", "airy", "qairy-14/25", "qairy-29/50", "qbessel-31/50", "qbessel-14/25",
         "qbessel-29/50"],
)
def test_evaluator_calls_per_zero(monkeypatch, locate, args, cap):
    # bracket ends, scan steps, refiner steps and residuals alike
    calls = []
    for factory in ("_make_bessel_eval", "_make_airy_eval", "_make_qairy_eval",
                    "_make_qbessel_eval"):
        real = getattr(oracle_module, factory)

        def counting(*params, _real=real):
            f = _real(*params)

            def counted(x):
                calls.append(x)
                return f(x)

            return counted

        monkeypatch.setattr(oracle_module, factory, counting)
    zl = locate(*args)
    assert len(calls) <= cap * zl.count


@pytest.mark.parametrize("dps, tol", [(140, "1e-120"), (50, "1e-25")])
def test_refine_raises_when_the_budget_ends_short_of_the_goal(dps, tol):
    # a jump from -1 to +1e-3000 at r: the secant hugs the right end, and
    # the scaled left value needs about 10^4 halvings to pull it off
    with mp.workdps(dps):
        r = mp.mpf(1) / 3

        def f(x):
            return -mp.one if x < r else mp.mpf("1e-3000")

        lo, hi = mp.zero, mp.one
        with pytest.raises(AccuracyError):
            oracle_module._refine(f, lo, hi, f(lo), f(hi), mp.mpf(tol))


@pytest.mark.parametrize(
    "locate, factory, args",
    [
        (airy_zeros, "_make_airy_eval", (3, 30)),
        (qairy_zeros, "_make_qairy_eval", ("0.5", 3, 30)),
        (qbessel_zeros, "_make_qbessel_eval", (0, "0.5", 3, 30)),
    ],
    ids=["airy", "qairy", "qbessel"],
)
def test_scan_out_of_budget_raises_scan_exhausted(monkeypatch, locate, factory, args):
    # a series with no sign change anywhere runs every scan to its budget
    monkeypatch.setattr(oracle_module, factory, lambda *_: lambda z: mp.one)
    with pytest.raises(ScanExhaustedError):
        locate(*args)


def test_airy_zeros_match_scaled_airy_reference():
    zl = airy_zeros(6, 50)
    scale = 3 ** (mp.mpf(1) / 3)
    assert abs(zl.zeros[0] - scale * mp.mpf(AIRY_A1)) < mp.mpf("1e-24")
    for k in range(1, 7):
        want = scale * abs(mp.airyaizero(k))
        assert abs(zl.zeros[k - 1] - want) < mp.mpf("1e-23")
    gaps = [b - a for a, b in zip(zl.zeros, zl.zeros[1:])]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))


def _qairy_series(q, z):
    # direct summation of the defining series at the ambient precision
    total = mp.one
    term = mp.one
    qq = mp.one
    for n in range(1, 200):
        qq *= 1 - q ** n
        term = q ** (n * n) * (-z) ** n / qq
        total += term
        if abs(term) < mp.mpf("1e-70") * max(1, abs(total)):
            break
    return total


def _qbessel_series(nu, q, x):
    # series in x = z^2 with q-shifted factorial denominators
    total = mp.one
    num = mp.one
    d1 = mp.one
    d2 = mp.one
    for n in range(1, 300):
        d1 *= 1 - q ** n
        d2 *= 1 - q ** (nu + n)
        num *= -x / 4 * q ** (nu + 2 * n - 1)
        total += num / (d1 * d2)
        if abs(num / (d1 * d2)) < mp.mpf("1e-70") * max(1, abs(total)):
            break
    return total


def test_qairy_zeros_by_independent_series_sign_change(qairy_half):
    q = mp.mpf(1) / 2
    with mp.workdps(120):
        for z in qairy_half.zeros[:6]:
            eps = z * mp.mpf("1e-22")
            assert _qairy_series(q, z - eps) * _qairy_series(q, z + eps) < 0


def test_qairy_zero_ratios_approach_inverse_q_squared(qairy_half):
    zs = qairy_half.zeros
    ratios = [zs[k + 1] / zs[k] for k in range(len(zs) - 1)]
    # ratios decrease toward q^(-2) = 4 from above
    assert all(a > b > 4 for a, b in zip(ratios, ratios[1:]))
    assert abs(ratios[-1] - 4) < mp.mpf("1e-6")


def test_qbessel_zeros_by_independent_series_sign_change():
    nu = mp.mpf(0)
    q = mp.mpf(1) / 2
    zl = qbessel_zeros(0, "0.5", 12, 50)
    assert zl.lambda_mode == MODE_SQUARED
    with mp.workdps(120):
        for z in zl.zeros[:6]:
            x = z * z
            eps = x * mp.mpf("1e-20")
            assert _qbessel_series(nu, q, x - eps) * _qbessel_series(nu, q, x + eps) < 0


# reference(k, z): mpmath's zero k, or the root near the located zero z of
# the defining series summed directly
@pytest.mark.parametrize(
    "locate, args, reference",
    [
        (bessel_zeros, (0, 12), lambda k, z: mp.besseljzero(0, k)),
        (airy_zeros, (12,), lambda k, z: _scaled_airy_zero(k)),
        (qairy_zeros, ("0.5", 10),
         lambda k, z: mp.findroot(lambda t: _qairy_series(mp.mpf(1) / 2, t), z)),
        (qbessel_zeros, (0, "0.5", 10),
         lambda k, z: mp.sqrt(mp.findroot(lambda x: _qbessel_series(0, mp.mpf(1) / 2, x), z * z))),
        (xi_zeros, (3,), lambda k, z: mp.zetazero(k).imag),
    ],
    ids=["bessel", "airy", "qairy", "qbessel", "zeta"],
)
def test_zeros_at_odd_precision_lie_within_tol_of_references(locate, args, reference):
    # at the odd prec = 31 the width goal 10^-(prec // 2) floors prec / 2,
    # while the surviving digits prec / 2 + 8 = 23.5 keep the half
    zl = locate(*args, 31)
    assert rel_err(zl.tol, mp.mpf("1e-15")) < mp.mpf("1e-40")
    _within_tol(zl, [reference(k, z) for k, z in enumerate(zl.zeros, 1)])


def test_truncated_sum_brackets_bessel_closed_forms(bessel0):
    params = BesselParams(nu=0)
    for n in (1, 2, 3):
        closed = bessel_s_closed(params, n, 50)
        tps = truncated_power_sum(bessel0, n, prec=50)
        assert tps.order == n
        assert tps.family == "bessel"
        lo = tps.estimate - tps.error_bound
        hi = tps.estimate + tps.error_bound
        assert lo < closed < hi
        assert tps.estimate < closed  # the estimate omits a positive tail


# each family's own power p of the order-n sum of zero^-p, written out here
# rather than read from the oracle's family records
@pytest.mark.parametrize(
    "locate, args, power_per_order",
    [
        (bessel_zeros, (0, 40, 50), 2),
        (airy_zeros, (20, 40), 2),
        (qairy_zeros, ("0.5", 12, 30), 1),
        (qbessel_zeros, (0, "0.5", 12, 30), 2),
        (xi_zeros, (5, 30), 2),
    ],
    ids=["bessel", "airy", "qairy", "qbessel", "xi"],
)
def test_truncated_sum_arithmetic_against_direct_sum(locate, args, power_per_order):
    zl = locate(*args)
    prec = zl.precision
    relative = zl.tol_kind == "relative"
    assert relative == (zl.family in ("qairy", "qbessel"))
    for n in (1, 2, 3):
        power = power_per_order * n
        tps = truncated_power_sum(zl, n, prec=prec)
        direct = mp.zero
        location = mp.zero
        for z in reversed(zl.zeros):
            zv = to_real(z, prec)
            term = 1 / zv**power
            direct += term
            location += power * (zl.tol if relative else zl.tol / zv) * term
        tail = tail_estimate(zl, n, prec)
        assert tps.tail == tail
        assert rel_err(tps.estimate, direct) < mp.mpf(10) ** (10 - prec)
        assert rel_err(tps.error_bound, tail.value + 2 * location) < mp.mpf(10) ** (20 - prec)
        if relative:
            # a geometric tail lies below the last term it follows
            assert 0 < tail.value < 1 / zl.zeros[-1] ** power


def test_truncated_sum_brackets_qairy_closed_forms(qairy_half):
    for n in (1, 2, 3):
        closed = qairy_s_closed("0.5", n, 50)
        tps = truncated_power_sum(qairy_half, n, prec=50)
        lo = tps.estimate - tps.error_bound
        hi = tps.estimate + tps.error_bound
        assert lo < closed < hi


def test_truncated_sum_brackets_qairy_low_q_regression():
    # denser zero sets once stressed the tail model; keep this pinned
    zl = qairy_zeros("0.3", 12, 50)
    for n in (1, 2, 3):
        closed = qairy_s_closed("0.3", n, 50)
        tps = truncated_power_sum(zl, n, prec=50)
        assert tps.estimate - tps.error_bound < closed < tps.estimate + tps.error_bound


def test_truncated_sum_brackets_qbessel_closed_forms():
    zl = qbessel_zeros(0, "0.5", 12, 50)
    params = QBesselParams(nu=0, q="0.5")
    for n in (1, 2, 3):
        closed = qbessel_s_closed(params, n, 50)
        tps = truncated_power_sum(zl, n, prec=50)
        assert tps.estimate - tps.error_bound < closed < tps.estimate + tps.error_bound


def test_tail_estimate_kinds_and_decay(bessel0, qairy_half):
    t1 = tail_estimate(bessel0, 1, 50)
    t2 = tail_estimate(bessel0, 2, 50)
    assert isinstance(t1, TailEstimate)
    assert t1.bound_kind == "asymptotic-density"
    assert t1.value > t2.value > 0
    g1 = tail_estimate(qairy_half, 1, 50)
    assert g1.bound_kind == "geometric-ratio"
    assert g1.confidence_note
    with pytest.raises(DomainError):
        tail_estimate(bessel0, 0, 50)
    one = dataclasses.replace(bessel0, zeros=bessel0.zeros[:1], residuals=bessel0.residuals[:1])
    with pytest.raises(DomainError, match="^bessel tail needs at least two zeros$"):
        tail_estimate(one, 1, 50)
    two = dataclasses.replace(
        qairy_half, zeros=qairy_half.zeros[:2], residuals=qairy_half.residuals[:2]
    )
    with pytest.raises(DomainError, match="^geometric tail needs at least three zeros$"):
        tail_estimate(two, 1, 50)


def test_xi_zeros_match_zetazero_ordinates():
    zl = xi_zeros(3, 50)
    assert zl.family == "xi"
    assert zl.modulus == 1
    assert "transform error bound" in zl.note
    for got, want in zip(zl.zeros, (GAMMA1, GAMMA2, GAMMA3)):
        assert abs(got - mp.mpf(want)) < mp.mpf("1e-24")


def test_dirichlet_xi_zeros_first_ordinate():
    chi = kronecker_character(-3)
    zl = xi_zeros(2, 50, chi=chi)
    assert zl.family == "xi"
    assert zl.modulus == 3
    assert abs(zl.zeros[0] - mp.mpf(DIRICHLET3_Z1)) < mp.mpf("1e-22")


@pytest.mark.parametrize(
    "d, want",
    # first ordinates below 1/4, by mpmath.findroot on the completed
    # L(1/2 + it, chi) built from mpmath.dirichlet
    [(-163, "0.20290133749879861298"), (-427, "0.24992497656935574437")],
)
def test_dirichlet_scan_finds_ordinates_near_zero(d, want):
    zl = xi_zeros(4, 30, chi=kronecker_character(d))
    assert abs(zl.zeros[0] - mp.mpf(want)) < zl.tol


def test_dirichlet_scan_keeps_a_close_pair():
    # ordinates 12 and 13 of L(s, chi_173) lie 0.26 apart; references by
    # mpmath.findroot on the completed L(1/2 + it, chi) from mpmath.dirichlet
    zl = xi_zeros(14, 30, chi=kronecker_character(173))
    want = ("15.477691219167410127", "15.739229071003357223", "16.65741803360815727")
    for got, ref in zip(zl.zeros[11:], want):
        assert abs(got - mp.mpf(ref)) < zl.tol


@pytest.mark.parametrize("d", [24, -287, -311, 305])
def test_dirichlet_scan_misses_no_sign_change(d):
    # every sign change of the scanned transform on a 0.02 grid is listed
    made = []

    def build(*args, **kwargs):
        made.append(XiEvaluator(*args, **kwargs))
        return made[-1]

    with mock.patch.object(oracle_module, "XiEvaluator", build):
        zl = xi_zeros(20, 30, chi=kronecker_character(d))
    (ev,) = made
    grid = [mp.mpf(k) / 50 for k in range(int((zl.zeros[-1] + mp.mpf("0.05")) * 50) + 1)]
    signs = [mp.sign(ev.transform_at(z)[0]) for z in grid]
    assert 0 not in signs
    assert len(zl.zeros) == sum(a != b for a, b in zip(signs, signs[1:]))


def test_xi_count_cap():
    with pytest.raises(LimitExceededError):
        xi_zeros(51, 50)


def test_module_alias_exposed():
    assert zero_oracle.bessel_zeros is bessel_zeros

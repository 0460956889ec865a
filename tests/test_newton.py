"""Power-sum engine: the recurrence and the determinant route."""

from __future__ import annotations

from fractions import Fraction

import pytest
from mpmath import mp

from zerosum import (
    METHOD_DETERMINANT,
    METHOD_RECURRENCE,
    CoefficientSeries,
    DomainError,
    PowerSumReport,
    ZeroScaleError,
    determinant,
    lower_triangular_system_matrix,
    newton,
    power_sums_determinant,
    power_sums_recurrence,
    to_real,
    working,
)

from conftest import det_fraction, esym_exact, rel_err


def power_sums_finite(lambdas, order, prec):
    """Brute-force power sums s_1..s_order of a finite list, for cross-checks."""
    if not isinstance(order, int) or order < 1:
        raise DomainError(f"order must be a positive integer, got {order!r}")
    with working(prec):
        vals = [to_real(v, prec) for v in lambdas]
        return tuple(+sum((x**n for x in vals), mp.zero) for n in range(1, order + 1))


def series_from_finite(lambdas, order, prec=50):
    """Exact CoefficientSeries of a finite rational zero list: sigma_n = e_n,
    which is 0 past the list's length."""
    sigmas = (esym_exact(lambdas) + [0] * order)[: order + 1]
    return CoefficientSeries(sigmas=tuple(sigmas), precision=prec)


SCALES = ("1", "-1", "-0.25", None)  # None stands in for -pi^2, filled at runtime


@pytest.fixture(autouse=True)
def _ambient_dps():
    with mp.workdps(80):
        yield


def test_series_validation():
    with pytest.raises(DomainError):
        CoefficientSeries(sigmas=(1,))
    with pytest.raises(DomainError):
        CoefficientSeries(sigmas=(2, 1))
    with pytest.raises(DomainError):
        CoefficientSeries(sigmas=(1, 1), precision=10)
    s = CoefficientSeries(sigmas=(1, Fraction(1, 2), Fraction(1, 8)))
    assert s.order == 2


def test_report_validation():
    with pytest.raises(DomainError):
        PowerSumReport(values=(1,), method="guess", precision=50)
    rep = PowerSumReport(values=[1, 2], method=METHOD_RECURRENCE, precision=50)
    assert rep.values == (1, 2)
    assert rep.order == 2
    assert rep.value(2) == 2
    with pytest.raises(DomainError):
        rep.value(0)
    with pytest.raises(DomainError):
        rep.value(3)


def test_recurrence_on_handworked_example():
    # lambdas {1, 1/2, 1/4}: sigma and s computable by hand
    lam = [Fraction(1), Fraction(1, 2), Fraction(1, 4)]
    series = series_from_finite(lam, 3)
    assert series.sigmas[1] == Fraction(7, 4)
    assert series.sigmas[2] == Fraction(7, 8)
    assert series.sigmas[3] == Fraction(1, 8)
    rep = power_sums_recurrence(series)
    assert rep.method == METHOD_RECURRENCE
    for n in range(1, 4):
        want = sum(x ** n for x in lam)
        assert rel_err(rep.value(n), mp.mpf(want.numerator) / want.denominator) < mp.mpf("1e-45")


def test_recurrence_matches_brute_force_random(rng):
    for _ in range(25):
        size = rng.randint(2, 6)
        lam = [Fraction(rng.randint(1, 400), 100) for _ in range(size)]
        order = rng.randint(1, size)
        series = series_from_finite(lam, order)
        rep = power_sums_recurrence(series)
        direct = power_sums_finite(lam, order, 50)
        for n in range(1, order + 1):
            assert rel_err(rep.value(n), direct[n - 1]) < mp.mpf("1e-44")


def test_determinant_known_cases():
    assert determinant([[2]], 50) == 2
    got = determinant([[1, 2], [3, 4]], 50)
    assert rel_err(got, mp.mpf(-2)) < mp.mpf("1e-45")
    # row swap needed: leading zero pivot
    got = determinant([[0, 1], [1, 0]], 50)
    assert rel_err(got, mp.mpf(-1)) < mp.mpf("1e-45")
    assert determinant([[1, 2], [2, 4]], 50) == 0
    with pytest.raises(DomainError):
        determinant([[1, 2], [3]], 50)


def test_determinant_against_exact_elimination(rng):
    for _ in range(8):
        n = rng.randint(2, 6)
        rows = [[Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(n)]
                for _ in range(n)]
        want = det_fraction(rows)
        got = determinant(rows, 50)
        if want == 0:
            assert abs(got) < mp.mpf("1e-40")
        else:
            assert rel_err(got, mp.mpf(want.numerator) / want.denominator) < mp.mpf("1e-40")


def test_system_matrix_layout():
    sig = (1, Fraction(1, 2), Fraction(3, 8), Fraction(5, 16))
    rows = lower_triangular_system_matrix(sig, Fraction(-1, 4), 3, 50)
    assert len(rows) == 3 and all(len(r) == 3 for r in rows)
    c = Fraction(-1, 4)
    for i in range(1, 4):
        for j in range(1, 3):
            want = Fraction(0)
            if i >= j:
                k = i - j
                want = (-1) ** k * (sig[k] if k else Fraction(1)) / c ** k
            got = rows[i - 1][j - 1]
            assert rel_err(got, mp.mpf(want.numerator) / want.denominator) < mp.mpf("1e-44") \
                if want else abs(got) == 0
        last = (-1) ** (i - 1) * i * sig[i] / c ** i
        assert rel_err(rows[i - 1][2], mp.mpf(last.numerator) / last.denominator) < mp.mpf("1e-44")
    with pytest.raises(ZeroScaleError):
        lower_triangular_system_matrix(sig, 0, 3, 50)


def test_determinant_route_matches_recurrence_and_scales(rng):
    pi2 = -(to_real("3.14159265358979323846264338327950288419716939937510", 60) ** 2)
    for _ in range(6):
        size = rng.randint(2, 6)
        lam = [Fraction(rng.randint(1, 150), 100) for _ in range(size)]
        series = series_from_finite(lam, size, prec=60)
        rec = power_sums_recurrence(series)
        for scale in SCALES:
            c = pi2 if scale is None else scale
            det = power_sums_determinant(series, scale=c)
            assert det.method == METHOD_DETERMINANT
            for n in range(1, size + 1):
                assert rel_err(det.value(n), rec.value(n)) < mp.mpf("1e-45")
    with pytest.raises(ZeroScaleError):
        power_sums_determinant(series_from_finite([Fraction(1)], 1), scale=0)


def test_determinant_route_builds_one_matrix(monkeypatch):
    # every M_n is cut from the order-N matrix: one build per call, not N
    builds = []
    real = newton.lower_triangular_system_matrix

    def counted(*args):
        builds.append(args[2])
        return real(*args)

    monkeypatch.setattr(newton, "lower_triangular_system_matrix", counted)
    series = series_from_finite([Fraction(k, 23) for k in range(1, 21)], 20, 50)
    report = power_sums_determinant(series, scale="-0.25")
    assert builds == [20]
    want = power_sums_recurrence(series)
    for n in range(1, 21):
        assert rel_err(report.value(n), want.value(n)) < mp.mpf("1e-40")


def test_order_handling():
    # both routes give s_1..s_N for a series of order N, whatever the
    # length of the zero list it came from
    lam = [Fraction(1, 2), Fraction(1, 3)]
    for order in (1, 2, 3):
        series = series_from_finite(lam, order)
        direct = power_sums_finite(lam, order, 50)
        for rep in (power_sums_recurrence(series), power_sums_determinant(series)):
            assert rep.order == order
            assert rel_err(rep.value(order), direct[-1]) < mp.mpf("1e-45")
    with pytest.raises(DomainError):
        power_sums_finite([1, 2], 0, 50)


def test_series_from_finite_round_trip(rng):
    lam = [Fraction(rng.randint(1, 99), 50) for _ in range(5)]
    series = series_from_finite(lam, 5, 60)
    assert series.sigmas[0] == 1
    rec = power_sums_recurrence(series)
    direct = power_sums_finite(lam, 5, 60)
    for n in range(1, 6):
        assert rel_err(rec.value(n), direct[n - 1]) < mp.mpf("1e-50")

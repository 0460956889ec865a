"""End-to-end acceptance gate.

Each test runs one headline claim at its stated tolerance and runtime
cap, appends a one-line PASS/FAIL verdict to the terminal summary, and
only then asserts, so the full scoreboard prints even on failure.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import pytest
from mpmath import mp

from zerosum import (
    BesselParams,
    CoefficientSeries,
    QBesselParams,
    airy_raw_coefficient,
    airy_sigmas,
    airy_zeros,
    bessel_s_closed,
    bessel_sigmas,
    bessel_zeros,
    determinant,
    dirichlet_moments,
    gamma,
    kronecker_character,
    lower_triangular_system_matrix,
    power_sums_determinant,
    power_sums_recurrence,
    qairy_s_closed,
    qairy_sigmas,
    qairy_zeros,
    qbessel_s_closed,
    qbessel_sigmas,
    riemann_moments,
    riemann_s_closed,
    sinc_sigmas,
    theta_selfcheck,
    to_real,
    truncated_power_sum,
    xi_zeros,
)

from conftest import ACCEPTANCE_LINES, bernoulli_reference, det_fraction, esym_exact, rel_err


@pytest.fixture(autouse=True)
def _ambient_dps():
    with mp.workdps(80):
        yield


def _run(number, cap_seconds, body):
    """Execute a criterion body, record its verdict line, then assert."""
    t0 = time.perf_counter()
    failures = []
    notes = []
    try:
        body(failures, notes)
    except BaseException as exc:
        elapsed = time.perf_counter() - t0
        ACCEPTANCE_LINES.append(
            f"criterion {number}: FAIL ({elapsed:.2f}s / cap {cap_seconds}s) "
            f"aborted: {type(exc).__name__}: {exc}"
        )
        raise
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < cap_seconds
    detail = "; ".join(notes + failures)
    ACCEPTANCE_LINES.append(
        f"criterion {number}: {'PASS' if ok else 'FAIL'} "
        f"({elapsed:.2f}s / cap {cap_seconds}s) {detail}"
    )
    assert not failures, "; ".join(failures)
    assert elapsed < cap_seconds, f"runtime {elapsed:.2f}s exceeds {cap_seconds}s"


def test_criterion_1_sinc_determinants_hit_bernoulli_targets():
    def body(failures, notes):
        tol = mp.mpf("1e-30")
        series = sinc_sigmas(10, 50)
        scale = -(mp.pi**2)
        worst = mp.zero
        for n in range(1, 11):
            target = (
                Fraction(2) ** (2 * n - 1)
                * bernoulli_reference(2 * n)
                / math.factorial(2 * n)
            )
            # independent route: the same matrix in exact arithmetic, with
            # factorial-band columns and k/(2k+1)! in the last column
            rows = []
            for i in range(1, n + 1):
                row = [
                    Fraction(1, math.factorial(2 * (i - j) + 1)) if i >= j else Fraction(0)
                    for j in range(1, n)
                ]
                row.append(Fraction(i, math.factorial(2 * i + 1)))
                rows.append(row)
            if det_fraction(rows) != target:
                failures.append(f"exact determinant mismatch at n = {n}")
            # package route at fifty digits; its last column carries the
            # opposite sign, so the determinant is negated
            m = lower_triangular_system_matrix(series.sigmas, scale, n, 50)
            err = rel_err(-determinant(m, 50), target)
            worst = max(worst, err)
            if err > tol:
                failures.append(f"numeric determinant off at n = {n}: {mp.nstr(err, 3)}")
        notes.append(
            "n = 1..10 exact-rational and 50-digit determinants match the "
            f"Bernoulli targets (worst relative error {mp.nstr(worst, 3)})"
        )

    _run(1, 1, body)


def test_criterion_2_bessel_closed_forms_match_recurrence():
    def body(failures, notes):
        tol = mp.mpf("1e-30")
        worst = mp.zero
        for nu in (Fraction(-1, 2), 0, Fraction(1, 2), 1, 5):
            params = BesselParams(nu=nu)
            rec = power_sums_recurrence(bessel_sigmas(params, 5, 50))
            for k in range(1, 6):
                err = rel_err(rec.value(k), bessel_s_closed(params, k, 50))
                worst = max(worst, err)
                if err > tol:
                    failures.append(f"nu = {nu}, order {k}: {mp.nstr(err, 3)}")
            first = 1 / (4 * (1 + to_real(nu, 60)))
            err = rel_err(rec.value(1), first)
            if err > tol:
                failures.append(f"nu = {nu}: s_1 is not 1/(4(nu+1)): {mp.nstr(err, 3)}")
        notes.append(
            "s_1..s_5 match the rational closed forms at five orders "
            f"(worst relative error {mp.nstr(worst, 3)})"
        )

    _run(2, 1, body)


def test_criterion_3_bessel_oracle_brackets_and_half_order_zeros():
    def body(failures, notes):
        zl = bessel_zeros(0, 200, 50)
        tps = truncated_power_sum(zl, 1, prec=50)
        with mp.workdps(70):
            lo = tps.estimate - tps.error_bound
            hi = tps.estimate + tps.error_bound
            quarter = mp.mpf(1) / 4
            if not lo < quarter < hi:
                failures.append(
                    f"s_1 interval [{mp.nstr(lo, 12)}, {mp.nstr(hi, 12)}] misses 1/4"
                )
        half = bessel_zeros(Fraction(1, 2), 200, 50)
        with mp.workdps(70):
            worst = mp.zero
            for k, z in enumerate(half.zeros, 1):
                worst = max(worst, abs(z - k * mp.pi))
            if worst > mp.mpf("1e-20"):
                failures.append(f"half-order zeros stray from k*pi by {mp.nstr(worst, 3)}")
        notes.append(
            "200-zero bracket contains 1/4 and half-order zeros sit on k*pi "
            f"(worst deviation {mp.nstr(worst, 3)})"
        )

    _run(3, 60, body)


def test_criterion_4_airy_first_sum_and_oracle_brackets():
    def body(failures, notes):
        rec = power_sums_recurrence(airy_sigmas(4, 50))
        with mp.workdps(70):
            closed = 3 * gamma(Fraction(2, 3), 60) ** 4 / (4 * mp.pi**2)
            if abs(rec.value(1) - closed) > mp.mpf("1e-20"):
                failures.append("s_1 misses 3*Gamma(2/3)^4/(4*pi^2)")
            alpha0 = airy_raw_coefficient(0, 50)
            norm_err = rel_err(alpha0, 2 * mp.pi)
            if norm_err > mp.mpf("1e-30"):
                failures.append(f"leading raw coefficient is not 2*pi: {mp.nstr(norm_err, 3)}")
        zl = airy_zeros(100, 50)
        with mp.workdps(70):
            for n in (1, 2, 3):
                tps = truncated_power_sum(zl, n, prec=50)
                got = rec.value(n)
                if not abs(got - tps.estimate) <= tps.error_bound:
                    failures.append(f"100-zero bracket misses s_{n}")
        notes.append(
            "s_1 = 3*Gamma(2/3)^4/(4*pi^2) to 1e-20, the raw leading "
            "coefficient equals 2*pi to 1e-30 (the series is normalized by "
            "it), and 100 zeros bracket s_1..s_3"
        )

    _run(4, 120, body)


def test_criterion_5_qbessel_closed_forms_across_grid():
    def body(failures, notes):
        tol = mp.mpf("1e-30")
        worst12 = mp.zero
        worst3 = mp.zero
        for nu in (0, Fraction(1, 2), 2):
            for q in ("0.1", "0.3", "0.5", "0.9"):
                params = QBesselParams(nu=nu, q=q)
                rec = power_sums_recurrence(qbessel_sigmas(params, 3, 50))
                for k in (1, 2):
                    err = rel_err(rec.value(k), qbessel_s_closed(params, k, 50))
                    worst12 = max(worst12, err)
                    if err > tol:
                        failures.append(f"nu = {nu}, q = {q}, s_{k}: {mp.nstr(err, 3)}")
                worst3 = max(worst3, rel_err(rec.value(3), qbessel_s_closed(params, 3, 50)))
        if worst3 > tol:
            # documented escape hatch: report, keep the recurrence value
            notes.append(
                f"s_3 closed form disagrees by {mp.nstr(worst3, 3)}; the "
                "recurrence value is authoritative"
            )
        else:
            notes.append(
                "s_1..s_3 match the closed forms on all 12 (nu, q) pairs "
                f"(worst relative error {mp.nstr(max(worst12, worst3), 3)})"
            )

    _run(5, 5, body)


def test_criterion_6_qairy_closed_forms_and_oracle():
    def body(failures, notes):
        tol = mp.mpf("1e-30")
        worst = mp.zero
        for q in ("0.1", "0.3", "0.5", "0.9"):
            rec = power_sums_recurrence(qairy_sigmas(q, 5, 50))
            for k in range(1, 6):
                err = rel_err(rec.value(k), qairy_s_closed(q, k, 50))
                worst = max(worst, err)
                if err > tol:
                    failures.append(f"q = {q}, s_{k}: {mp.nstr(err, 3)}")
        zl = qairy_zeros("0.5", 40, 50)
        with mp.workdps(70):
            for n, target in ((1, mp.one), (2, mp.mpf(2) / 3)):
                tps = truncated_power_sum(zl, n, prec=50)
                if not abs(target - tps.estimate) <= tps.error_bound:
                    failures.append(f"40-zero bracket misses s_{n} at q = 1/2")
        notes.append(
            "all five closed forms match on the q grid (worst relative "
            f"error {mp.nstr(worst, 3)}) and 40 zeros bracket s_1 = 1, "
            "s_2 = 2/3 at q = 1/2"
        )

    _run(6, 30, body)


def test_criterion_7_riemann_moments_and_ordinates():
    def body(failures, notes):
        table = riemann_moments(4, 50)
        with mp.workdps(70):
            worst_q = max(table.quadrature_error)
            if not worst_q < mp.mpf("1e-20"):
                failures.append(f"quadrature error bound {mp.nstr(worst_q, 3)}")
        rec = power_sums_recurrence(table.series())
        with mp.workdps(70):
            worst = mp.zero
            for k in range(1, 5):
                err = rel_err(rec.value(k), riemann_s_closed(table.b, k, 50))
                worst = max(worst, err)
                if err > mp.mpf("1e-15"):
                    failures.append(f"s_{k} vs moment closed form: {mp.nstr(err, 3)}")
            s1 = rec.value(1)
            if not abs(s1 - mp.mpf("0.0231")) < mp.mpf("5e-5"):
                failures.append(f"s_1 = {mp.nstr(s1, 8)} is not 0.0231 to 3 digits")
        zl = xi_zeros(30, 50)
        tps = truncated_power_sum(zl, 1, prec=50)
        with mp.workdps(70):
            if not abs(s1 - tps.estimate) <= tps.error_bound:
                failures.append("30-ordinate bracket misses the recurrence s_1")
        notes.append(
            f"moment errors below 1e-20, four closed forms match to 1e-15 "
            f"(worst {mp.nstr(worst, 3)}), and the 30-ordinate bracket "
            f"contains s_1 = {mp.nstr(s1, 6)}"
        )

    _run(7, 600, body)


def test_criterion_8_dirichlet_kernels_and_first_sums():
    def body(failures, notes):
        for d in (-3, -4, 5):
            chi = kronecker_character(d)
            with mp.workdps(70):
                worst_r = mp.zero
                for x in ("0.5", "0.7", "1", "1.3", "2"):
                    worst_r = max(worst_r, theta_selfcheck(chi, x, 50))
                if not worst_r < mp.mpf("1e-40"):
                    failures.append(f"d = {d}: theta residual {mp.nstr(worst_r, 3)}")
            table = dirichlet_moments(chi, 2, 50)
            rec = power_sums_recurrence(table.series())
            det = power_sums_determinant(table.series(), scale=-1)
            with mp.workdps(70):
                if not abs(table.b[0]) > 10 * table.quadrature_error[0]:
                    failures.append(f"d = {d}: b_0 is not resolved away from zero")
                closed = table.b[1] / (2 * table.b[0])
                err_c = rel_err(rec.value(1), closed)
                err_d = rel_err(rec.value(1), det.value(1))
                if err_c > mp.mpf("1e-15"):
                    failures.append(f"d = {d}: s_1 vs b_1/(2 b_0): {mp.nstr(err_c, 3)}")
                if err_d > mp.mpf("1e-15"):
                    failures.append(f"d = {d}: recurrence vs determinant: {mp.nstr(err_d, 3)}")
        notes.append(
            "d in {-3, -4, 5}: theta residuals below 1e-40 at five points, "
            "b_0 resolved nonzero, and s_1 = b_1/(2 b_0) with both routes "
            "agreeing to 1e-15"
        )

    _run(8, 600, body)


def test_criterion_9_derivative_identity_and_scale_invariance(rng):
    # f = prod (1 - lambda_k w) has Taylor coefficients a_j = f^(j)(z) / j!
    # at z, and f(z + u) / f(z) = prod (1 - mu_k u) with mu_k the shifted
    # values lambda_k / (1 - lambda_k z): (-1)^j a_j / a_0 is e_j(mu), so
    # the recurrence on those coefficients must return sum mu_k^j
    def body(failures, notes):
        tol_d = mp.mpf("1e-30")
        for trial in range(100):
            m = rng.randint(1, 6)
            lams = [Fraction(rng.randint(-40, 40), 16) for _ in range(m)]
            while True:
                z = Fraction(rng.randint(-80, 80), 10)
                if all(lam * z != 1 for lam in lams):
                    break
            n = rng.randint(1, min(4, m))
            coef = [(-1) ** j * e for j, e in enumerate(esym_exact(lams))]
            taylor = [
                sum(c * math.comb(j, i) * z ** (j - i) for j, c in enumerate(coef[i:], i))
                for i in range(n + 1)
            ]
            sigmas = [(-1) ** i * a / taylor[0] for i, a in enumerate(taylor)]
            rec = power_sums_recurrence(CoefficientSeries(sigmas=tuple(sigmas), precision=50))
            shifted = [lam / (1 - lam * z) for lam in lams]
            for k in range(1, n + 1):
                err = rel_err(rec.value(k), to_real(sum(mu**k for mu in shifted), 70))
                if err > tol_d:
                    failures.append(
                        f"trial {trial}, order {k}: derivative identity off by {mp.nstr(err, 3)}"
                    )
        providers = (
            ("sinc", sinc_sigmas(20, 50)),
            ("bessel nu=0", bessel_sigmas(BesselParams(nu=0), 20, 50)),
            ("bessel nu=1/2", bessel_sigmas(BesselParams(nu=Fraction(1, 2)), 20, 50)),
            ("airy", airy_sigmas(20, 50)),
            ("qbessel", qbessel_sigmas(QBesselParams(nu=0, q="0.5"), 20, 50)),
            ("qairy", qairy_sigmas("0.5", 20, 50)),
        )
        scales = (1, -1, Fraction(-1, 4), -(mp.pi**2))
        tol_s = mp.mpf("1e-35")
        worst = mp.zero
        for label, series in providers:
            rec = power_sums_recurrence(series)
            for c in scales:
                det = power_sums_determinant(series, scale=c)
                for k in range(1, 21):
                    err = rel_err(det.value(k), rec.value(k))
                    worst = max(worst, err)
                    if err > tol_s:
                        failures.append(
                            f"{label}, c = {c}, order {k}: {mp.nstr(err, 3)}"
                        )
        notes.append(
            "100 random derivative-identity trials agree to 1e-30 and the "
            "determinant route is scale-invariant across four constants and "
            f"six providers to 1e-35 (worst {mp.nstr(worst, 3)})"
        )

    _run(9, 30, body)

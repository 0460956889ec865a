"""Completed-zeta kernels: moments, transforms, theta self-check.

Independent references used here:
  * the kernel series re-summed directly from its printed form,
  * completed zeta/L values computed from mpmath's zeta and Hurwitz zeta,
  * frozen regression values produced once at higher precision.
"""

from __future__ import annotations

import collections
import functools
import importlib.util
import itertools
import json
import math
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from mpmath import libmp, mp

from zerosum import (
    DirichletCharacter,
    DomainError,
    LimitExceededError,
    MomentTable,
    XiEvaluator,
    dirichlet_moments,
    is_fundamental_discriminant,
    kronecker_character,
    phi_chi,
    phi_riemann,
    power_sums_recurrence,
    riemann_moments,
    riemann_s_closed,
    theta_selfcheck,
    xi_zeros,
)

import zerosum
import zerosum.cli
from zerosum import oracle, zeta
from zerosum.precision import GUARD_BITS, to_real

from conftest import rel_err

PHI0 = "1.78678760186849377634793866821883645288169747"

RIEMANN_B = (
    "0.49712077818831410991277373968539771980729361",
    "0.0229719443151454375352498764976321702645930138",
    "0.00296284843368763216536829899587642731526384392",
    "0.000599295946597579491843426282608126906610908976",
    "0.000160966574550195610884922897005445160054659885",
)

RIEMANN_S = (
    "0.02310499311541897078893381043033901400338",
    "0.00003717259928526968616486626247174057845365",
    "0.0000001441739314009732796953815560948209070369",
    "0.0000000006630316802529908698732720819613572484737",
)

DIRICHLET_B01 = {
    -3: ("0.5692300384422751311538687546662410391426",
         "0.06455191410473267594495961857855705073783"),
    -4: ("0.9807136140577135040713719492032827073226",
         "0.1530204018434333537943738241587951003933"),
    5: ("0.9437514379866872134219801652329083901863",
        "0.1480880183448903194527928188650060523517"),
}

DIRICHLET_S1 = {
    -3: "0.0567010784263792858290572369054",
    -4: "0.0780148249448224423038411416945",
    5: "0.078457108717528271962517913306",
}


@pytest.fixture(autouse=True)
def _ambient_dps():
    with mp.workdps(90):
        yield


@pytest.fixture(scope="module")
def riemann_table():
    return riemann_moments(4, 50)


def _raw_riemann_kernel(t, terms=90):
    total = mp.zero
    x = mp.exp(-2 * t)
    for n in range(1, terms + 1):
        shrink = mp.exp(-mp.pi * n * n * x)
        total += (
            8 * mp.pi ** 2 * n ** 4 * mp.exp(-mp.mpf(9) / 2 * t)
            - 12 * mp.pi * n * n * mp.exp(-mp.mpf(5) / 2 * t)
        ) * shrink
    return total


def _raw_dirichlet_kernel(chi, t, terms=400):
    a = chi.parity
    total = mp.zero
    x = mp.exp(-2 * t)
    for n in range(1, terms + 1):
        cv = chi(n)
        if not cv:
            continue
        weight = n if a else 1
        total += cv * weight * mp.exp(-mp.pi * n * n * x / chi.modulus)
    return 4 * mp.exp(-(1 + 2 * a) * t / 2) * total


def _completed_zeta(s):
    return s * (s - 1) / 2 * mp.pi ** (-s / 2) * mp.gamma(s / 2) * mp.zeta(s)


def _completed_l(chi, s):
    m = chi.modulus
    a = chi.parity
    L = mp.mpf(m) ** (-s) * sum(
        chi(r) * mp.zeta(s, mp.mpf(r) / m) for r in range(1, m + 1)
    )
    return (mp.mpf(m) / mp.pi) ** ((s + a) / 2) * mp.gamma((s + a) / 2) * L


def _transform(z, chi=None):
    # the path xi_zeros runs: one level calibrated at z
    ev = XiEvaluator(chi=chi, prec=40)
    ev.calibrate_transform([z])
    value, err = ev.transform_at(z)
    assert err <= mp.mpf(10) ** (-(ev.target_digits - 5))
    return value


def test_phi_riemann_against_raw_kernel_sum():
    for t in ("0", "0.3", "1"):
        tv = mp.mpf(t)
        assert rel_err(phi_riemann(t, 50), _raw_riemann_kernel(tv)) < mp.mpf("1e-45")
    assert rel_err(phi_riemann(0, 50), mp.mpf(PHI0)) < mp.mpf("1e-44")


def test_phi_riemann_positive_and_decaying():
    grid = [phi_riemann(t, 40) for t in ("0", "0.5", "1", "1.5", "2")]
    assert all(v > 0 for v in grid)
    assert all(a > b for a, b in zip(grid, grid[1:]))
    # superexponential decay: phi(2) is already below 1e-30
    assert grid[-1] < mp.mpf("1e-30")


def test_phi_chi_against_raw_kernel_sum():
    for d in (-3, 5):
        chi = kronecker_character(d)
        for t in ("0.1", "0.6"):
            tv = mp.mpf(t)
            got = phi_chi(t, chi, 50)
            assert rel_err(got, _raw_dirichlet_kernel(chi, tv)) < mp.mpf("1e-44")


@settings(
    max_examples=25,
    deadline=None,
    # the autouse 90-digit ambient fixture holds for every example alike
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    t=st.floats(min_value=0, max_value=1.5),
    d=st.sampled_from([-3, -4, 5, 8, -7, 12]),
    prec=st.sampled_from([30, 40, 50]),
)
def test_kernels_match_printed_form_sums(t, d, prec):
    # the package sums at -|t|; the raw references sum the printed form at t
    tv = mp.mpf(t)
    chi = kronecker_character(d)
    tol = mp.mpf(10) ** (-(prec - 6))
    raw_riemann = _raw_riemann_kernel(tv)
    raw_chi = _raw_dirichlet_kernel(chi, tv)
    assert rel_err(phi_riemann(t, prec), raw_riemann) < tol
    assert rel_err(phi_chi(t, chi, prec), raw_chi) < tol
    abs_tol = mp.mpf(10) ** (-prec)
    assert abs(phi_riemann(t, prec, abs_tol=abs_tol) - raw_riemann) <= abs_tol
    assert abs(phi_chi(t, chi, prec, abs_tol=abs_tol) - raw_chi) <= abs_tol


def _raw_theta_kernel(chi, t):
    # the series the package sums, at -|t|, one mp.exp per term at the
    # ambient precision, until a term falls below its epsilon of the total
    tv = abs(t)
    x = mp.exp(2 * tv)
    total = mp.zero
    for n in range(1, 1000):
        if chi is None:
            sign = 1
            weight = 8 * mp.pi**2 * n**4 * mp.exp(9 * tv / 2) - 12 * mp.pi * n**2 * mp.exp(5 * tv / 2)
            term = weight * mp.exp(-mp.pi * n * n * x)
        else:
            sign = chi(n)
            weight = 4 * n**chi.parity * mp.exp((1 + 2 * chi.parity) * tv / 2)
            term = weight * mp.exp(-mp.pi * n * n * x / chi.modulus)
        total += sign * term
        if n > 2 and term < mp.eps * abs(total):
            return total
    raise AssertionError("raw theta sum did not settle")


@pytest.mark.parametrize("d", [None, -3, -4, 5])
def test_kernel_values_match_a_raw_theta_sum(d):
    # both modes at the 40-digit table's nodes: t = 2 is below 1e-30, and
    # at t_cutoff the kernel is below the table's whole error budget
    prec = 40
    chi = None if d is None else kronecker_character(d)
    ev = XiEvaluator(chi=chi, prec=prec)
    ts = [mp.mpf(t) for t in ("0", "0.5", "1", "1.5", "2")] + [ev.t_cutoff]
    nodes = zeta._phi_nodes(chi, ts, ev._node_tol)
    for t, (value, round_err) in zip(ts, nodes):
        with mp.workdps(prec + 40):
            want = _raw_theta_kernel(chi, t)
        relative = phi_riemann(t, prec) if chi is None else phi_chi(t, chi, prec)
        assert rel_err(relative, want) < mp.mpf(10) ** -prec, t
        assert abs(value - want) <= round_err <= ev._node_tol, t
        public = (
            phi_riemann(t, prec, abs_tol=ev._node_tol)
            if chi is None
            else phi_chi(t, chi, prec, abs_tol=ev._node_tol)
        )
        assert public == value


def _recording(real, log):
    def record(*args):
        log.append((args, real(*args)))
        return log[-1][1]

    return record


@settings(
    max_examples=30,
    deadline=None,
    # the autouse 90-digit ambient fixture holds for every example alike
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    d=st.sampled_from([None, -3, -4, 5]),
    u=st.floats(min_value=0, max_value=1),
    relative=st.booleans(),
    dps=st.integers(min_value=40, max_value=120),
)
def test_theta_pass_stays_within_its_rounding_bound(d, u, relative, dps):
    # the pass sums on integers in units of 2^(e - wp); its reported bound
    # must cover the distance to the same terms summed in mpf at dps + 40
    chi = None if d is None else kronecker_character(d)
    t_cut = zeta._solve_t_cutoff(*zeta._kernel_shape(chi), dps, zeta.MOMENT_ORDER_CAP)
    # the stop threshold _phi_nodes sets for the tolerance 10^(20 - dps)
    stop = None if relative else (mp.mpf(10) ** (20 - dps) / 8)._mpf_
    calls = []
    with mock.patch.object(zeta, "_theta_sum", _recording(zeta._theta_sum, calls)):
        total, maxmag, n, err = zeta._phi_pass(chi, u * t_cut, dps, stop)
    ((base, consts, coef, *_), _), = calls
    # the pass runs on raw mpfs: make mpfs of what it took and returned
    total, maxmag, err, base = (mp.make_mpf(v) for v in (total, maxmag, err, base))
    consts = [mp.make_mpf(c) for c in consts]
    with mp.workdps(dps + 40):
        want = mp.fsum(coef(k, *consts) * base ** (k * k) for k in range(1, n + 1))
        assert abs(total - want) <= err
        # so round_err, and the error bounds printed from it, keep their size
        assert err <= maxmag * mp.mpf(10) ** (1 - dps)


def test_riemann_moment_table(riemann_table):
    tab = riemann_table
    assert isinstance(tab, MomentTable)
    assert tab.modulus == 1
    assert tab.parity == 0
    for n in range(5):
        assert rel_err(tab.b[n], mp.mpf(RIEMANN_B[n])) < mp.mpf("1e-42")
        assert tab.quadrature_error[n] < mp.mpf("1e-60")
        want_beta = tab.b[n] / (mp.factorial(2 * n) * tab.b[0])
        assert rel_err(tab.beta[n], want_beta) < mp.mpf("1e-55")
    series = tab.series()
    assert series.sigmas[0] == 1
    assert series.order == 4


def test_riemann_b0_is_completed_zeta_at_half(riemann_table):
    assert rel_err(riemann_table.b[0], _completed_zeta(mp.mpf(1) / 2)) < mp.mpf("1e-45")


def test_riemann_transform_matches_complex_completed_zeta():
    got0 = _transform(0)
    assert rel_err(got0, _completed_zeta(mp.mpf(1) / 2)) < mp.mpf("1e-38")
    got2 = _transform(2)
    want = _completed_zeta(mp.mpc(mp.mpf(1) / 2, 2))
    assert abs(mp.im(want)) < mp.mpf("1e-55")
    assert rel_err(got2, mp.re(want)) < mp.mpf("1e-36")


def test_riemann_closed_power_sums(riemann_table):
    rec = power_sums_recurrence(riemann_table.series())
    for k in range(1, 5):
        closed = riemann_s_closed(riemann_table.b, k, 50)
        assert rel_err(closed, mp.mpf(RIEMANN_S[k - 1])) < mp.mpf("1e-38")
        assert rel_err(rec.value(k), closed) < mp.mpf("1e-40")
    with pytest.raises(DomainError):
        riemann_s_closed(riemann_table.b, 5, 50)
    with pytest.raises(DomainError):
        riemann_s_closed(riemann_table.b[:2], 3, 50)


def test_xi_sign_change_at_first_zero_ordinate():
    # the first zero ordinate 14.134725... sits between the probe points
    assert _transform(14) > 0
    assert _transform("14.2") < 0


def test_dirichlet_moment_tables_frozen_and_independent():
    for d, (b0s, b1s) in DIRICHLET_B01.items():
        chi = kronecker_character(d)
        tab = dirichlet_moments(chi, 2, 50)
        assert tab.modulus == abs(d)
        assert tab.parity == chi.parity
        assert rel_err(tab.b[0], mp.mpf(b0s)) < mp.mpf("1e-36")
        assert rel_err(tab.b[1], mp.mpf(b1s)) < mp.mpf("1e-36")
        assert rel_err(tab.b[0], _completed_l(chi, mp.mpf(1) / 2)) < mp.mpf("1e-40")
        assert tab.b[0] > 10 * tab.quadrature_error[0]
        s1 = riemann_s_closed(tab.b, 1, 50)
        assert rel_err(s1, mp.mpf(DIRICHLET_S1[d])) < mp.mpf("1e-28")


def test_dirichlet_transform_matches_hurwitz_value():
    chi = kronecker_character(-3)
    got = _transform(1, chi=chi)
    want = _completed_l(chi, mp.mpc(mp.mpf(1) / 2, 1))
    assert abs(mp.im(want)) < mp.mpf("1e-50")
    assert rel_err(got, mp.re(want)) < mp.mpf("1e-34")


def test_theta_selfcheck_residuals():
    for d in (-3, -4, 5):
        chi = kronecker_character(d)
        for x in ("0.5", "1", "2", "0.7", "1.3"):
            assert theta_selfcheck(chi, x, 50) < mp.mpf("1e-55")
    with pytest.raises(DomainError):
        theta_selfcheck(kronecker_character(-3), 0, 50)


class _Impostor:
    """Duck-typed character table that is not a real primitive character."""

    modulus = 5
    parity = 0

    def __call__(self, n):
        return (0, 1, 1, -1, -1)[n % 5]


def test_theta_selfcheck_flags_impostor_tables():
    # x = 1 would be vacuous (both sides coincide there), so probe at x = 2
    fake = _Impostor()
    assert theta_selfcheck(fake, 2, 40) > mp.mpf("1e-6")
    with pytest.raises(DomainError):
        dirichlet_moments(fake, 2, 40)


class _ZeroTable(_Impostor):
    """All-zero table: its theta residual vanishes, but chi(1) is 0."""

    def __call__(self, n):
        return 0


def test_every_character_kernel_path_rejects_impostor_tables():
    for fake in (_Impostor(), _ZeroTable()):
        with pytest.raises(DomainError):
            phi_chi("0.5", fake, 40)
        with pytest.raises(DomainError):
            phi_chi("0.5", fake, 40, abs_tol="1e-40")
        with pytest.raises(DomainError):
            XiEvaluator(chi=fake, prec=40)
        with pytest.raises(DomainError):
            xi_zeros(2, 40, chi=fake)


def test_character_paths_take_the_type_as_their_only_check(monkeypatch):
    # no path sums a theta self-check: the DirichletCharacter type is the gate
    calls = []
    real = zeta.theta_selfcheck

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(zeta, "theta_selfcheck", spy)
    chi = kronecker_character(-3)
    assert phi_chi("0.5", chi, 40) > 0
    assert phi_chi("0.7", chi, 40, abs_tol="1e-40") > 0
    XiEvaluator(chi=chi, prec=30)
    dirichlet_moments(chi, 2, 30)
    assert len(xi_zeros(2, 30, chi=chi).zeros) == 2
    for fake in (_Impostor(), _ZeroTable()):
        with pytest.raises(DomainError):
            dirichlet_moments(fake, 2, 40)
    assert not calls


def _unit_tables(m):
    # every table with values +-1 on the units mod m and 0 elsewhere
    units = [k for k in range(m) if math.gcd(k, m) == 1]
    for signs in itertools.product((1, -1), repeat=len(units)):
        values = [0] * m
        for k, sign in zip(units, signs):
            values[k] = sign
        yield tuple(values)


def test_accepted_tables_are_exactly_the_kronecker_characters():
    # the constructor alone proves a table real and primitive, which the
    # kernel's evenness needs: for 3 <= m <= 16 it accepts the tables of
    # the fundamental d in {m, -m} and nothing else
    accepted = []
    for m in range(3, 17):
        got = []
        for values in _unit_tables(m):
            try:
                got.append(DirichletCharacter(modulus=m, values=values))
            except DomainError:
                pass
        want = {kronecker_character(d).values for d in (m, -m) if is_fundamental_discriminant(d)}
        assert {chi.values for chi in got} == want, m
        accepted += got
    assert sorted(chi.modulus for chi in accepted) == [3, 4, 5, 7, 8, 8, 11, 12, 13, 15]
    for chi in accepted:
        assert theta_selfcheck(chi, 2, 30) < mp.mpf("1e-20")


@functools.lru_cache(maxsize=None)
def _evaluator(d, points):
    chi = None if d is None else kronecker_character(d)
    ev = XiEvaluator(chi=chi, prec=30)
    ev.points = points
    return ev


@settings(
    max_examples=25,
    deadline=None,
    # the autouse 90-digit ambient fixture holds for every example alike
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    z=st.floats(min_value=0, max_value=150),
    d=st.sampled_from([None, -3, -4, 5]),
    k=st.integers(min_value=0, max_value=3),
)
def test_clenshaw_sweep_within_its_rounding_bound(z, d, k):
    # the same integer coefficients summed term by term at 60 more digits
    ev = _evaluator(d, 24)
    zv = mp.mpf(z)
    got = ev._sweep(k, zv)
    h, a, _, sweep_err = ev._trapezoid(k)
    assert len(a) == zeta._TRAPEZOID_INTERVALS * 2**k + 1
    with mp.workdps(ev._dps + 60):
        theta = zv * mp.make_mpf(h)
        direct = mp.fsum(aj * mp.cos(j * theta) for j, aj in enumerate(a))
        direct *= mp.make_mpf(h) / mp.mpf(2) ** ev._wp
        assert abs(got - direct) <= sweep_err
    assert sweep_err <= mp.mpf(10) ** (-(ev.target_digits + 20))


def test_nested_levels_compute_each_node_once():
    # level k sends only its new midpoints through the kernel
    ev = XiEvaluator(prec=30)
    real = zeta._phi_pass
    seen = []

    def counted(chi, t, dps, stop_abs=None):
        seen.append(mp.mpf(t))
        return real(chi, t, dps, stop_abs)

    with mock.patch.object(zeta, "_phi_pass", counted):
        level, _ = ev.calibrate_transform([40, 20, 12])
        for k in range(level + 1):
            ev._trapezoid(k)
    n = zeta._TRAPEZOID_INTERVALS * 2**level
    assert len(seen) == n + 1 == len(set(seen))
    h = mp.make_mpf(ev._trapezoid(level)[0])
    nodes = [j * h for j in range(n + 1)]
    assert sorted(seen) == nodes
    # the nested node error is h (err_0/2 + sum_j err_j) over the whole level
    errs = [err for _, err in zeta._phi_nodes(None, nodes, ev._node_tol)]
    with mp.workdps(30):
        direct = h * (mp.fsum(errs) - errs[0] / 2)
        assert abs(ev._trapezoid(level)[2] - direct) <= mp.mpf(10) ** -25 * direct


@functools.lru_cache(maxsize=None)
def _calibrated(d):
    # as xi_zeros builds and calibrates its evaluator
    chi = None if d is None else kronecker_character(d)
    ev = XiEvaluator(chi=chi, prec=30)
    ev.calibrate_transform([40, 20, 12])
    return ev


@settings(
    max_examples=20,
    deadline=None,
    # the autouse 90-digit ambient fixture holds for every example alike
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(z=st.floats(min_value=0, max_value=40), d=st.sampled_from([None, -3, 5]))
def test_calibrated_transform_within_its_printed_bound(z, d):
    # err is the bound xi_zeros prints as its transform error bound
    ev = _calibrated(d)
    s = mp.mpc(mp.mpf(1) / 2, z)
    want = _completed_zeta(s) if d is None else _completed_l(ev.chi, s)
    got, err = ev.transform_at(z)
    assert abs(got - mp.re(want)) <= err


class _RecordingEvaluator(XiEvaluator):
    # keeps the probes, the locked level and the swept range of one xi_zeros run
    def calibrate_transform(self, z_probes):
        self.probes = tuple(z_probes)
        self.locked = super().calibrate_transform(self.probes)
        self.swept = []
        return self.locked

    def transform_at(self, z):
        self.swept.append(z)
        return super().transform_at(z)


@functools.lru_cache(maxsize=None)
def _xi_zeros_evaluator(d, count, prec=30):
    # the evaluator an xi_zeros run built, calibrated and swept
    chi = None if d is None else kronecker_character(d)
    made = []

    def build(*args, **kwargs):
        made.append(_RecordingEvaluator(*args, **kwargs))
        return made[-1]

    with mock.patch.object(oracle, "XiEvaluator", build):
        zero_list = xi_zeros(count, prec, chi)
    (ev,) = made
    ev.zero_list = zero_list
    return ev


def _untruncated_trapezoid_sums(ev, z, top):
    # h_j (Phi(0)/2 + sum_i Phi(i h_j) cos(i z h_j)) for j <= top at 30 more
    # digits, from kernel values at 10^-(dps + 20) and past 2 t_cutoff: free
    # of the sweep's node errors and rounding and of the tail the package
    # leaves past t_cutoff, so two levels differ by their discretization only
    n = zeta._TRAPEZOID_INTERVALS << (top + 1)
    with mp.workdps(ev._dps + 30):
        h = mp.make_mpf(ev._h0) / 2**top
        nodes = [i * h for i in range(n + 1)]
        vals = [v for v, _ in zeta._phi_nodes(ev.chi, nodes, mp.mpf(10) ** -(ev._dps + 20))]
        sums = []
        for j in range(top + 1):
            stride = 2 ** (top - j)
            terms = (vals[i] * mp.cos(z * nodes[i]) for i in range(stride, n + 1, stride))
            sums.append(h * stride * (vals[0] / 2 + mp.fsum(terms)))
    return sums


@pytest.mark.parametrize("d, count", [(None, 16), (-3, 2), (-4, 2), (None, 50), (5, 20)])
def test_calibration_locks_the_lowest_level_the_strip_bound_allows(d, count):
    ev = _xi_zeros_evaluator(d, count)
    level, _ = ev.locked
    z_max = max(ev.probes)
    # log of the target 10^-target_digits e^(-pi z_max / 4)
    target = -ev.target_digits * math.log(10) - math.pi * z_max / 4
    assert ev._log_strip_bound(level, z_max) <= target
    assert level == 0 or ev._log_strip_bound(level - 1, z_max) > target
    # only levels 0..k were built, and the scan swept none above
    assert sorted(ev._trapezoids) == list(range(level + 1))
    # each level's bound holds where it is far above the rounding floor
    # (level k - 1) and at the locked level
    sums = _untruncated_trapezoid_sums(ev, mp.mpf(z_max), level + 2)
    for j in range(max(level - 1, 0), level + 1):
        with mp.workdps(30):
            term = sum(mp.exp(ev._log_strip_bound(i, z_max)) for i in (j, j + 2))
            assert abs(sums[j] - sums[j + 2]) <= term + mp.mpf(10) ** -(ev._dps + 15)


def _locked_level(d, count, prec):
    # the level xi_zeros calibrates, without its scan
    chi = None if d is None else kronecker_character(d)
    locked = []

    class Calibrated(Exception):
        pass

    class Stop(XiEvaluator):
        def calibrate_transform(self, z_probes):
            locked.append(super().calibrate_transform(z_probes)[0])
            raise Calibrated

    with mock.patch.object(oracle, "XiEvaluator", Stop), pytest.raises(Calibrated):
        xi_zeros(count, prec, chi)
    return locked[0]


# (discriminant, count, digits): (level the strip bound locks, level the
# earlier two-levels-agree ladder locked at three probes)
LOCKED_LEVELS = {
    (None, 3, 30): (2, 3),
    (None, 16, 30): (2, 3),
    (None, 50, 30): (3, 3),
    (None, 3, 50): (2, 3),
    (None, 16, 50): (3, 3),
    (None, 30, 50): (3, 4),
    (None, 50, 50): (3, 4),
    (-3, 2, 30): (2, 3),
    (-4, 2, 30): (2, 3),
    (-163, 3, 30): (3, 4),
    (-163, 10, 30): (3, 4),
    (5, 20, 30): (3, 3),
    (-4, 20, 30): (3, 3),
}


@pytest.mark.parametrize("d, count, prec", list(LOCKED_LEVELS))
def test_locked_levels_stay_at_or_below_the_agreement_ladder(d, count, prec):
    level, ladder = LOCKED_LEVELS[d, count, prec]
    assert level <= ladder
    assert _locked_level(d, count, prec) == level


def _theta_kernel_at(chi, w, terms):
    # the raw theta series at complex w with Re w >= 0, q^(n^2) by the
    # recurrence q^((n + 1)^2) = q^(n^2) q^(2n + 1)
    m = 1 if chi is None else chi.modulus
    x = mp.exp(2 * w)
    q = mp.exp(-mp.pi * x / m)
    qn, step, total = q, q**3, 0
    for n in range(1, terms + 1):
        if chi is None:
            total += (8 * mp.pi**2 * n**4 * x - 12 * mp.pi * n**2) * qn
        elif chi(n):
            total += chi(n) * n**chi.parity * qn
        qn, step = qn * step, step * q * q
    if chi is None:
        return total * mp.exp(5 * w / 2)
    return 4 * mp.exp((1 + 2 * chi.parity) * w / 2) * total


@pytest.mark.parametrize("d", [None, -3, 5])
@pytest.mark.parametrize("i", [0, 2, 4])
def test_strip_majorant_bounds_the_kernel_integral_on_the_strip_edge(d, i):
    # Phi is even and real on the real line, so |Phi(-t + ia)| = |Phi(t + ia)|
    # and the line integral is twice the one over t >= 0; past t = 3 the
    # kernel is below 10^-100 for every a used here
    chi = None if d is None else kronecker_character(d)
    a = zeta._STRIP_WIDTHS[i]
    with mp.workdps(10):
        half, err = mp.quad(
            lambda t: abs(_theta_kernel_at(chi, mp.mpc(t, a), 32)),
            [0, 0.25, 0.5, 1, 2, 3], method="gauss-legendre", maxdegree=3, error=True,
        )
        integral = 2 * half
        majorant = zeta._strip_majorant(chi, a)
        assert integral + 2 * err <= majorant <= 4 * integral


@settings(
    max_examples=20,
    deadline=None,
    # the autouse 90-digit ambient fixture holds for every example alike
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    u=st.floats(min_value=0, max_value=1),
    # (30, 50) scans the largest z the package sweeps at 50 digits
    # (None, 50) and (5, 20) reach z where the transform has decayed far below 1
    case=st.sampled_from([(None, 16), (-3, 2), (None, 30, 50), (None, 50), (5, 20)]),
)
def test_transform_at_xi_zeros_probes_within_its_printed_bound(u, case):
    # z runs from the scan start to t_end, the largest probe xi_zeros uses
    ev = _xi_zeros_evaluator(*case)
    lo, hi = min(ev.swept), max(ev.probes)
    assert hi == ev.probes[0]
    z = lo + u * (hi - lo)
    s = mp.mpc(mp.mpf(1) / 2, z)
    want = _completed_zeta(s) if ev.chi is None else _completed_l(ev.chi, s)
    got, err = ev.transform_at(z)
    assert abs(got - mp.re(want)) <= err


# Zeta's kernel pass, level weights and moment pass in plain mpf
# arithmetic: the reference their raw libmp code must match bit for bit.


def _mpf_fix(s, *xs):
    man = 1
    for x in xs:
        m, e = x.man_exp
        man, s = man * m, s + e
    return man << s if s >= 0 else man >> -s


def _mpf_theta_sum(base, consts, coef, bound, dps, stop_abs=None):
    wp = libmp.dps_to_prec(dps) + GUARD_BITS
    e = mp.mag(bound(1, *consts) * base)
    ints = [_mpf_fix(wp - e, c, base) for c in consts]
    e_pow, g_pow, b_sq = 1 << wp, _mpf_fix(wp, base, base, base), _mpf_fix(wp, base, base)
    half = 1 << (wp - 1)
    stop = None
    if stop_abs is not None:
        stop = _mpf_fix(wp - e, stop_abs) if mp.mag(stop_abs) - e < wp else 1 << 2 * wp
    cut = 10 ** (dps - 3)
    total = maxmag = err = 0
    n = 1
    while True:
        term = coef(n, *ints) * e_pow >> wp
        total += term
        maxmag = max(maxmag, abs(term))
        bnd = bound(n, *ints)
        err += (bnd * (n * n + n) >> wp) + 2
        if g_pow <= half:
            tail = 32 * bnd * e_pow >> wp
            if (tail < stop) if stop is not None else (tail * cut < maxmag):
                break
        e_pow = e_pow * g_pow >> wp
        g_pow = g_pow * b_sq >> wp
        n += 1
    err += n * bound(n, *[1] * len(ints))
    total, maxmag, err = (mp.make_mpf(libmp.from_man_exp(v, e - wp)) for v in (total, maxmag, err))
    return total, maxmag, n, err


def _mpf_phi_pass(chi, t, dps, stop_abs=None):
    with mp.workdps(dps):
        tv = abs(to_real(t, max(dps - 15, 30)))
        h = mp.exp(tv / 2)
        x = h**4
        if chi is None:
            base = mp.exp(-mp.pi * x)
            consts = (8 * mp.pi**2 * x * x * h, 12 * mp.pi * x * h)
            coef = lambda n, a, b: (a * n * n - b) * n * n
            bound = lambda n, a, b: (a * n * n + b) * n * n
        else:
            base = mp.exp(-mp.pi * x / chi.modulus)
            consts = (4 * h ** (1 + 2 * chi.parity),)
            coef, bound = zeta._character_coef(chi)
        return _mpf_theta_sum(base, consts, coef, bound, dps, stop_abs)


@functools.lru_cache(maxsize=None)
def _mpf_level(ev, k):
    # (wPhi, summed node error) of Gauss-Legendre level k, as _level built them
    grid = zeta.panel_grid(0, ev.t_cutoff, 2**k, ev.points, ev._dps)
    pairs = zeta._phi_nodes(ev.chi, [t for t, _ in grid], ev._node_tol)
    with mp.workdps(ev._dps):
        wphi = [w_node * val for (_, w_node), (val, _) in zip(grid, pairs)]
        err_sum = mp.zero
        for (_, w_node), (_, err) in zip(grid, pairs):
            err_sum += w_node * err
        return wphi, +err_sum


def _mpf_moment(ev, n):
    with mp.workdps(ev._dps):
        wmax = max(mp.one, ev.t_cutoff ** (2 * n))
        tol = mp.mpf(10) ** (-ev.target_digits)
        prev = None
        for k in range(1, zeta._MAX_DOUBLINGS + 1):
            nodes, wphi, err_sum = ev._level(k)
            cur = mp.zero
            for t_node, wv in zip(nodes, wphi):
                cur += wv * t_node ** (2 * n)
            if prev is not None:
                gap = abs(cur - prev)
                if gap <= tol * max(abs(cur), mp.one):
                    tail = zeta._tail_bound(ev.modulus, ev._alpha, ev._const, float(ev.t_cutoff), n)
                    return cur, +(gap + err_sum * wmax + tail)
            prev = cur


def _raw(values):
    return [v._mpf_ for v in values]


def _phi_with_error_per_node(chi, t, abs_tol):
    # the kernel node with its own set-up in mpf: the reference for the
    # batched loop on raw values
    with mp.workdps(40):
        tol = abs(to_real(abs_tol, 30))
        need = -mp.log10(tol)
    dps = int(need) + 20
    total, maxmag, nterms, err = _mpf_phi_pass(chi, t, dps, stop_abs=tol / 8)
    with mp.workdps(30):
        round_err = (nterms + 5) * maxmag * mp.mpf(10) ** (1 - dps) + tol / 4 + err
        return total, +round_err


@settings(
    max_examples=40,
    deadline=None,
    # the autouse 90-digit ambient fixture holds for every example alike
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    d=st.sampled_from([None, -3, -4, 5]),
    u=st.floats(min_value=0, max_value=1),
    relative=st.booleans(),
    dps=st.integers(min_value=40, max_value=120),
)
def test_raw_kernel_pass_bit_identical_to_mpf(d, u, relative, dps):
    chi = None if d is None else kronecker_character(d)
    t = u * zeta._solve_t_cutoff(*zeta._kernel_shape(chi), dps, zeta.MOMENT_ORDER_CAP)
    tol = mp.mpf(10) ** (20 - dps)
    stop = None if relative else tol / 8
    total, maxmag, n, err = _mpf_phi_pass(chi, t, dps, stop)
    got = zeta._phi_pass(chi, t, dps, None if stop is None else stop._mpf_)
    assert got == (total._mpf_, maxmag._mpf_, n, err._mpf_)
    if not relative:
        assert _raw(zeta._phi_nodes(chi, [t], tol)[0]) == _raw(_phi_with_error_per_node(chi, t, tol))


@pytest.mark.parametrize("d", [None, -3, -4, 5])
@pytest.mark.parametrize("points", [7, 24, 48])
def test_raw_level_weights_bit_identical_to_mpf(d, points):
    ev = _evaluator(d, points)
    for k in range(1, 4):
        _, wphi, err_sum = ev._level(k)
        ref_wphi, ref_err = _mpf_level(ev, k)
        assert _raw(wphi) == _raw(ref_wphi)
        assert err_sum._mpf_ == ref_err._mpf_


@pytest.mark.parametrize("d", [None, -3, -4, 5])
def test_raw_moment_pass_bit_identical_to_mpf(d):
    ev = _evaluator(d, 24)
    for n in (0, 1, 7, 12):
        assert _raw(ev.moment(n)) == _raw(_mpf_moment(ev, n))
    for k in ev._levels:
        wphi, err_sum = _mpf_level(ev, k)
        assert _raw(ev._level(k)[1]) == _raw(wphi)
        assert ev._level(k)[2]._mpf_ == err_sum._mpf_


FROZEN = json.loads(Path(__file__).with_name("zeta_frozen.json").read_text())


def test_tables_and_zeros_equal_values_frozen_from_the_mpf_code(riemann_table):
    # exact mpf tuples recorded from the plain mpf arithmetic of the xi layer;
    # the zeros were recorded from a Gauss-Legendre transform, so they hold
    # to the list's tol
    tables = {
        "riemann_moments(4, 50)": riemann_table,
        "riemann_moments(12, 50)": riemann_moments(12, 50),
        "dirichlet_moments(chi_-3, 2, 50)": dirichlet_moments(kronecker_character(-3), 2, 50),
    }
    for name, tab in tables.items():
        for field in ("b", "beta", "quadrature_error"):
            assert [list(v) for v in _raw(getattr(tab, field))] == FROZEN[name][field], (name, field)
    zl = _xi_zeros_evaluator(None, 16).zero_list
    assert [list(zl.tol._mpf_)] == FROZEN["xi_zeros(16, 30)"]["tol"]
    frozen = [mp.make_mpf(tuple(v)) for v in FROZEN["xi_zeros(16, 30)"]["zeros"]]
    assert len(zl.zeros) == len(frozen) == 16
    for n, (z, old) in enumerate(zip(zl.zeros, frozen), 1):
        assert abs(z - old) <= zl.tol, n


def test_perfbench_hook_points_stay_on_the_call_path(monkeypatch):
    # perfbench/tracing.py replaces these names to count quadrature nodes,
    # the locked level and the sweeps per zero; the transform's trapezoid
    # levels need no panel grid
    calls = collections.Counter()

    def wrap(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    wrap(zeta, "panel_grid")
    wrap(zeta.XiEvaluator, "calibrate_transform")
    wrap(zeta.XiEvaluator, "transform_at")
    riemann_moments(2, 30)
    assert calls["panel_grid"] >= 2
    calls.clear()
    zl = xi_zeros(2, 30)
    assert calls["calibrate_transform"] == 1
    assert calls["transform_at"] >= zl.count

    # the tracer itself: it wraps names in zerosum, zerosum.cli and zeta and
    # reads XiEvaluator.points, so a rename fails only its traced runs
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, zerosum)
        ev = XiEvaluator(prec=30)
        ev.calibrate_transform([20])
        ev.transform_at(20)
    finally:
        tracer.restore()
    assert {"zeta.calibrate", "zeta.sweep"} <= {span["name"] for span in tracer.spans}


def test_xi_zeros_50_at_30_digits_match_zetazero():
    zl = xi_zeros(50, 30)
    assert zl.count == 50
    with mp.workdps(25):
        for n, z in enumerate(zl.zeros, 1):
            assert abs(z - mp.zetazero(n).imag) <= zl.tol, n


@pytest.mark.parametrize("d", [None, -3, 5])
def test_batched_kernel_nodes_bit_identical_to_single_nodes(d):
    chi = None if d is None else kronecker_character(d)
    ts = [mp.mpf(t) for t in ("0", "0.3", "1", "2")]
    tol = "1e-52"  # a node tolerance of the precision-30 moment tables
    batched = zeta._phi_nodes(chi, ts, tol)
    for t, pair in zip(ts, batched):
        want = _phi_with_error_per_node(chi, t, tol)
        assert [v._mpf_ for v in pair] == [v._mpf_ for v in want]
        public = phi_riemann(t, 30, abs_tol=tol) if d is None else phi_chi(t, chi, 30, abs_tol=tol)
        assert public._mpf_ == want[0]._mpf_


def test_moment_order_cap():
    with pytest.raises(LimitExceededError):
        riemann_moments(13, 50)
    with pytest.raises(DomainError):
        riemann_moments(0, 50)


def test_quadrature_config_override_converges():
    ev = XiEvaluator(prec=35)
    ev.points = 16
    tab = ev.moment_table(1)
    assert rel_err(tab.b[0], mp.mpf(RIEMANN_B[0])) < mp.mpf("1e-25")
    assert rel_err(tab.b[1], mp.mpf(RIEMANN_B[1])) < mp.mpf("1e-25")

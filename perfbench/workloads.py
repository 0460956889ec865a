"""The three workloads: seeded rounds of requests and the checks on their output.

A round is a fixed list of requests; only the parameters drawn from the
grids change from round to round.  Each request is one operation: it
fails when it raises, exits non-zero or fails its check, and the run
goes on.  Checks compare against the stored independent references, or
against properties the method must have (the two Newton routes agree at
every scale, half-order Bessel zeros sit on k*pi, the number of located
ordinates matches mp.nzeros, each oracle bracket holds the Newton value).

zerosum is handed in as a module and every call goes through its
attributes at call time, so a tracer that replaces those attributes sees
the calls.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from mpmath import mp

import grids

COEFF = "coeff"
ORACLE = "oracle"
REFERENCES = Path(__file__).resolve().parent / "references.json"


@dataclass
class Outcome:
    ok: bool
    zeros: int = 0
    detail: str = ""


@dataclass
class Request:
    name: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    known_fault: bool = False
    attrs: dict = field(default_factory=dict)


class Checker:
    """Collects the failed conditions of one request's check."""

    def __init__(self):
        self.problems = []

    def require(self, cond, message):
        if not cond:
            self.problems.append(message)

    def close(self, got, want, digits, label):
        gap = abs(got - want) / abs(want)
        self.require(gap <= mp.mpf(10) ** (-digits), f"{label}: relative gap {mp.nstr(gap, 3)}")

    def holds(self, estimate, bound, value, label, slack=0):
        # the documented oracle interval: |s_n - estimate| <= error_bound
        miss = abs(value - estimate) - bound * (1 + slack)
        self.require(
            miss <= 0,
            f"{label}: {mp.nstr(value, 12)} outside {mp.nstr(estimate, 12)} +- {mp.nstr(bound, 3)}",
        )

    def outcome(self, zeros=0):
        ok = not self.problems
        return Outcome(ok, zeros if ok else 0, "; ".join(self.problems))


def load_references():
    return json.loads(REFERENCES.read_text())


def real(value):
    """Exact or decimal reference text (or Fraction) as an mpf at the current dps."""
    value = Fraction(value) if "/" in str(value) else value
    if isinstance(value, Fraction):
        return mp.mpf(value.numerator) / value.denominator
    return mp.mpf(value)


# ------------------------------------------------------------ classical


def label(params):
    if params is None:
        return ""
    if isinstance(params, tuple):
        return f" nu={params[0]},q={params[1]}"
    return f" {params}"


def _family(zs, family, params, prec, refs):
    """(sigma provider, closed forms, reference s_n, reference sigma_n) of one family."""
    order = grids.SIGMA_ORDER
    if family == "sinc":
        ratios = refs["sinc_zeta_over_pi"]
        return (
            lambda: zs.sinc_sigmas(order, prec),
            None,
            [lambda n=n: real(ratios[str(n)]) * mp.pi ** (2 * n) for n in range(1, order + 1)],
            [],
        )
    if family == "bessel":
        ref = refs["bessel"][str(params)]
        return (
            lambda: zs.bessel_sigmas(zs.BesselParams(nu=params), order, prec),
            lambda: [zs.bessel_s_closed(zs.BesselParams(nu=params), k, prec) for k in range(1, 6)],
            [lambda s=s: real(s) for s in ref["s"]],
            [],
        )
    if family == "airy":
        s1 = refs["airy"]["s1"]
        return lambda: zs.airy_sigmas(order, prec), None, [lambda: real(s1)], []
    if family == "qbessel":
        nu, q = params
        ref = refs["qbessel"][f"nu={nu},q={q}"]
        return (
            lambda: zs.qbessel_sigmas(zs.QBesselParams(nu=nu, q=q), order, prec),
            lambda: [zs.qbessel_s_closed(zs.QBesselParams(nu=nu, q=q), k, prec) for k in range(1, 4)],
            [lambda s=s: real(s) for s in ref["s"]],
            ref["sigma"],
        )
    ref = refs["qairy"][str(params)]
    return (
        lambda: zs.qairy_sigmas(params, order, prec),
        lambda: [zs.qairy_s_closed(params, k, prec) for k in range(1, 6)],
        [lambda s=s: real(s) for s in ref["s"]],
        ref["sigma"],
    )


def coefficient_request(zs, family, params, prec, scales, refs, newton):
    """Sigmas, both Newton routes at several scales, and the closed forms."""
    provider, closed, ref_sums, ref_sigmas = _family(zs, family, params, prec, refs)

    def run():
        series = provider()
        rec = zs.power_sums_recurrence(series)
        dets = [zs.power_sums_determinant(series, scale=c) for c in scales]
        return series, rec, dets, closed() if closed else []

    def check(out):
        series, rec, dets, closed_vals = out
        c = Checker()
        with mp.workdps(prec + 20):
            for scale, det in zip(scales, dets):
                worst = max(
                    abs(a - b) / max(abs(a), abs(b)) for a, b in zip(rec.values, det.values)
                )
                c.require(
                    worst <= mp.mpf(10) ** (-(prec - 15)),
                    f"determinant at scale {scale} differs from the recurrence by {mp.nstr(worst, 3)}",
                )
            for n, want in enumerate(ref_sigmas, 1):
                c.close(series.sigmas[n], real(want), prec - 10, f"sigma_{n}")
            for n, want in enumerate(ref_sums, 1):
                c.close(rec.value(n), want(), prec - 10, f"s_{n} vs reference")
            for k, got in enumerate(closed_vals, 1):
                want = ref_sums[k - 1]() if k <= len(ref_sums) else rec.value(k)
                c.close(got, want, prec - 15, f"closed-form s_{k}")
        if not c.problems:
            newton[(family, params, prec)] = rec
        return c.outcome()

    return Request(f"coeff {family}{label(params)} p{prec}", COEFF, run, check)


def _bracket_checks(c, brackets, ref_sums, newton_report, label):
    for tps in brackets:
        n = tps.order
        if n <= len(ref_sums):
            c.holds(tps.estimate, tps.error_bound, ref_sums[n - 1](), f"{label} s_{n} reference")
        if newton_report is not None:
            c.holds(tps.estimate, tps.error_bound, newton_report.value(n), f"{label} s_{n} Newton")


def oracle_request(zs, family, params, count, prec, refs, newton):
    """Locate zeros and bracket s_1..s_3 with truncated_power_sum."""
    _, _, ref_sums, _ = _family(zs, family, params, prec, refs)
    if family == "bessel":
        locate = lambda: zs.bessel_zeros(params, count, prec)  # noqa: E731
    elif family == "airy":
        locate = lambda: zs.airy_zeros(count, prec)  # noqa: E731
    elif family == "qbessel":
        locate = lambda: zs.qbessel_zeros(params[0], params[1], count, prec)  # noqa: E731
    else:
        locate = lambda: zs.qairy_zeros(params, count, prec)  # noqa: E731

    def run():
        zl = locate()
        return zl, [zs.truncated_power_sum(zl, n, prec=prec) for n in range(1, grids.REFERENCE_ORDERS + 1)]

    def check(out):
        zl, brackets = out
        c = Checker()
        c.require(zl.count == count, f"located {zl.count} of {count} zeros")
        with mp.workdps(prec + 20):
            tol = mp.mpf(10) ** (-(prec // 2 - 1))
            if family == "bessel":
                if params == Fraction(1, 2):
                    wants = [k * mp.pi for k in range(1, count + 1)]
                else:
                    wants = [real(z) for z in refs["bessel"][str(params)]["zeros"][:count]]
                worst = max(abs(z - w) for z, w in zip(zl.zeros, wants))
                c.require(worst <= tol, f"zeros stray from the reference by {mp.nstr(worst, 3)}")
            _bracket_checks(c, brackets, ref_sums, newton.get((family, params, prec)), family)
        return c.outcome(zl.count)

    return Request(f"oracle {family}{label(params)} n{count} p{prec}", ORACLE, run, check)


def classical_round(zs, rng, refs):
    nu = rng.choice(grids.BESSEL_NU_GRID)
    qb = rng.choice(grids.QBESSEL_GRID)
    qa = rng.choice(grids.QAIRY_GRID)
    newton = {}
    requests = []
    for prec in grids.PRECISIONS:
        scales = rng.sample(grids.SCALES, grids.SCALES_PER_REQUEST)
        families = [("sinc", None), ("airy", None), ("qbessel", qb), ("qairy", qa)]
        families += [("bessel", v) for v in grids.BESSEL_FIXED_NU + (nu,)]
        for family, params in families:
            requests.append(coefficient_request(zs, family, params, prec, scales, refs, newton))
    p = grids.ORACLE_PREC
    for family, params, count, prec in (
        ("bessel", Fraction(0), grids.BESSEL_DEEP_COUNT, p),
        ("bessel", Fraction(1, 2), grids.BESSEL_COUNT, grids.HALF_ORDER_PREC),
        ("bessel", nu, grids.BESSEL_COUNT, p),
        ("airy", None, grids.AIRY_COUNT, p),
        ("qbessel", qb, grids.QBESSEL_COUNT, p),
        ("qairy", qa, grids.QAIRY_COUNT, p),
    ):
        requests.append(oracle_request(zs, family, params, count, prec, refs, newton))
    return requests


# ------------------------------------------------------------------- cli


def _payload(result, c):
    c.require(result.exit_code == 0, f"exit code {result.exit_code} ({result.exception!r})")
    if result.exit_code != 0:
        return None
    return json.loads(result.stdout)


def _ordinates_check(c, zeros, want, count_above=None):
    c.require(len(zeros) == len(want), f"located {len(zeros)} of {len(want)} ordinates")
    tol = mp.mpf(10) ** (-(grids.L_PREC // 2 - 1))
    worst = max((abs(z - w) for z, w in zip(zeros, want)), default=mp.zero)
    c.require(worst <= tol, f"ordinates stray from the reference by {mp.nstr(worst, 3)}")
    if count_above is not None:
        c.require(
            count_above == len(zeros),
            f"mp.nzeros counts {count_above} zeros up to the last ordinate, {len(zeros)} located",
        )


def cli_request(zs, args, kind, check, known_fault=False):
    from click.testing import CliRunner

    runner = CliRunner()
    argv = args + ["--precision", str(grids.L_PREC), "--format", "json"]
    return Request(
        "cli " + " ".join(args),
        kind,
        lambda: runner.invoke(zs.cli.main, argv),
        check,
        known_fault,
        {"command": args[0], "function": args[2]},
    )


def verify_check(result):
    c = Checker()
    payload = _payload(result, c)
    if payload is not None:
        names = [entry["name"] for entry in payload["checks"]]
        c.require("recurrence-vs-determinant" in names, "no recurrence-vs-determinant check")
        for entry in payload["checks"]:
            c.require(entry["status"] == "pass", f"{entry['name']}: {entry['detail']}")
    return c.outcome()


def moments_check(refs, d, order):
    def check(result):
        c = Checker()
        payload = _payload(result, c)
        if payload is not None:
            rows = payload["moments"]
            c.require([r["n"] for r in rows] == list(range(order + 1)), "wrong moment rows")
            with mp.workdps(grids.L_PREC + 20):
                b0, e0 = real(rows[0]["b"]), real(rows[0]["error_bound"])
                c.require(abs(b0) > 10 * e0, "b_0 is not resolved away from zero")
                # sigma_1 = beta_1 is the first power sum s_1
                s1 = real(refs["dirichlet"][str(d)]["s1"])
                c.close(real(rows[1]["beta"]), s1, grids.L_PREC - 10, "beta_1 vs s_1")
        return c.outcome()

    return check


def cli_oracle_check(want_zeros, want_sums, count_above=None):
    def check(result):
        c = Checker()
        payload = _payload(result, c)
        if payload is None:
            return c.outcome()
        with mp.workdps(grids.L_PREC + 20):
            zeros = [real(z) for z in payload["zeros"]]
            _ordinates_check(c, zeros, want_zeros(), count_above)
            for entry, want in zip(payload["sums"], want_sums()):
                # the printed bound carries three digits, so allow for its rounding
                c.holds(real(entry["estimate"]), real(entry["error_bound"]), want, f"s_{entry['n']}", 0.01)
        return c.outcome(len(zeros))

    return check


def cli_round(zs, rng, refs):
    odd = rng.choice(grids.ODD_DISCRIMINANTS)
    moment_d = rng.choice(grids.ODD_DISCRIMINANTS)
    oracle_d = rng.choice(grids.ODD_DISCRIMINANTS)
    zeta_order = rng.choice(grids.ZETA_VERIFY_ORDERS)
    scales = [str(s) for s in rng.sample(grids.SCALES, 3)]
    zc, dc, sc = grids.CLI_ZETA_COUNT, grids.CLI_DIRICHLET_COUNT, grids.SINC_COUNT
    zeta = refs["zeta"]
    chi_refs = refs["dirichlet"][str(oracle_d)]
    order = str(grids.DIRICHLET_ORDER)
    return [
        cli_request(
            zs,
            ["verify", "--function", "zeta", "--order", str(zeta_order), "--scale", scales[0]],
            COEFF,
            verify_check,
        ),
        *(
            cli_request(
                zs,
                ["verify", "--function", "dirichlet", "--discriminant", str(d), "--order", order, "--scale", scale],
                COEFF,
                verify_check,
            )
            for d, scale in ((odd, scales[1]), (grids.EVEN_DISCRIMINANT, scales[2]))
        ),
        cli_request(
            zs,
            ["moments", "--function", "dirichlet", "--discriminant", str(moment_d), "--order", order],
            COEFF,
            moments_check(refs, moment_d, grids.DIRICHLET_ORDER),
        ),
        cli_request(
            zs,
            ["oracle", "--function", "zeta", "--count", str(zc)],
            ORACLE,
            cli_oracle_check(
                lambda: [real(t) for t in zeta["ordinates"][:zc]],
                lambda: [real(zeta["s1"])],
                zeta["nzeros_above"][zc - 1],
            ),
        ),
        cli_request(
            zs,
            ["oracle", "--function", "dirichlet", "--discriminant", str(oracle_d), "--count", str(dc)],
            ORACLE,
            cli_oracle_check(
                lambda: [real(t) for t in chi_refs["ordinates"][:dc]],
                lambda: [real(chi_refs["s1"])],
            ),
        ),
        # Known fault: the sinc oracle is handed the zeros k*pi of sin(x)/x, but
        # sin(pi x)/(pi x) vanishes at the integers, so s_n comes out pi^(2n) small.
        cli_request(
            zs,
            ["oracle", "--function", "sinc", "--count", str(sc), "--order", "2"],
            ORACLE,
            cli_oracle_check(
                lambda: [mp.mpf(k) for k in range(1, sc + 1)],
                lambda: [mp.pi**2 / 6, mp.pi**4 / 90],
            ),
            known_fault=True,
        ),
        cli_request(
            zs,
            ["verify", "--function", "sinc", "--order", "3", "--oracle", "--count", str(sc)],
            ORACLE,
            verify_check,
            known_fault=True,
        ),
    ]


# --------------------------------------------------------------- xi-scan


def xi_scan_round(zs, rng, refs):
    d = rng.choice(grids.ODD_DISCRIMINANTS)
    scale = rng.choice(grids.SCALES)
    p = grids.L_PREC
    zeta = refs["zeta"]
    chi_refs = refs["dirichlet"][str(d)]
    table_prec = grids.XI_SCAN_MOMENT_PREC
    newton = {}

    def moments():
        table = zs.riemann_moments(grids.MOMENT_ORDER, table_prec)
        series = table.series()
        rec = zs.power_sums_recurrence(series)
        det = zs.power_sums_determinant(series, scale=scale)
        closed = [zs.riemann_s_closed(table.b, k, table_prec) for k in range(1, grids.MOMENT_ORDER + 1)]
        return rec, det, closed

    def moments_check(out):
        rec, det, closed = out
        c = Checker()
        with mp.workdps(table_prec + 20):
            for n in range(1, grids.MOMENT_ORDER + 1):
                c.close(det.value(n), rec.value(n), table_prec - 15, f"determinant s_{n}")
                c.close(closed[n - 1], rec.value(n), table_prec - 15, f"closed-form s_{n}")
            c.close(rec.value(1), real(zeta["s1"]), table_prec - 10, "s_1 vs reference")
        if not c.problems:
            newton["zeta"] = rec
        return c.outcome()

    def scan(count, chi_d):
        def run():
            chi = None if chi_d is None else zs.kronecker_character(chi_d)
            zl = zs.xi_zeros(count, p, chi=chi)
            return zl, zs.truncated_power_sum(zl, 1, prec=p)

        def check(out):
            zl, tps = out
            c = Checker()
            with mp.workdps(p + 20):
                if chi_d is None:
                    want = [real(t) for t in zeta["ordinates"][:count]]
                    _ordinates_check(c, zl.zeros, want, zeta["nzeros_above"][count - 1])
                    c.holds(tps.estimate, tps.error_bound, real(zeta["s1"]), "s_1 reference")
                    if "zeta" in newton:
                        c.holds(tps.estimate, tps.error_bound, newton["zeta"].value(1), "s_1 Newton")
                else:
                    _ordinates_check(c, zl.zeros, [real(t) for t in chi_refs["ordinates"][:count]])
                    c.holds(tps.estimate, tps.error_bound, real(chi_refs["s1"]), "s_1 reference")
            return c.outcome(zl.count)

        name = "zeta" if chi_d is None else f"dirichlet({chi_d})"
        return Request(f"xi_zeros {name} n{count}", ORACLE, run, check)

    return [
        Request(f"riemann_moments order {grids.MOMENT_ORDER}", COEFF, moments, moments_check),
        scan(grids.XI_SCAN_COUNT, None),
        scan(grids.XI_SCAN_DIRICHLET_COUNT, d),
    ]


ROUNDS = {"classical": classical_round, "cli": cli_round, "xi-scan": xi_scan_round}


"""Command-line front end: sum tables, verification suites, moment tables,
and zero listings for the supported function families.

Exit codes: 0 success, 1 failed verification check, 2 configuration
error, 3 numeric failure.  All numbers cross the CLI boundary as decimal
strings at full working precision.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

import click
from mpmath import mp

from . import oracle as zero_oracle
from .characters import kronecker_character
from .errors import ConfigurationError, NumericError
from .newton import (
    METHOD_DETERMINANT,
    METHOD_RECURRENCE,
    power_sums_determinant,
    power_sums_recurrence,
)
from .precision import DEFAULT_PREC, bernoulli, check_precision, to_real, working
from .series import (
    BesselParams,
    QBesselParams,
    airy_raw_coefficient,
    airy_sigmas,
    bessel_s_closed,
    bessel_sigmas,
    qairy_s_closed,
    qairy_sigmas,
    qbessel_s_closed,
    qbessel_sigmas,
    sinc_sigmas,
)
from .zeta import dirichlet_moments, riemann_moments, riemann_s_closed

FUNCTIONS = ("sinc", "bessel", "airy", "qbessel", "qairy", "zeta", "dirichlet")

_REQUIRED_PARAMS = {
    "sinc": (),
    "bessel": ("nu",),
    "airy": (),
    "qbessel": ("nu", "q"),
    "qairy": ("q",),
    "zeta": (),
    "dirichlet": ("discriminant",),
}

_ORACLE_COUNTS = {
    "sinc": 40,
    "bessel": 40,
    "airy": 20,
    "qbessel": 20,
    "qairy": 25,
    "zeta": 8,
    "dirichlet": 8,
}


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation parameters shared by the subcommands."""

    function: str
    nu: object = None
    q: object = None
    discriminant: object = None
    order: int = 5
    precision: int = DEFAULT_PREC
    method: str = "both"
    fmt: str = "text"
    scale: object = Fraction(-1)


def _parse_real(text, flag):
    if text is None:
        return None
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise ConfigurationError(f"{flag} must be a real number, got {text!r}")


def _resolve_precision(option_value):
    if option_value is not None:
        value = option_value
    else:
        env = os.environ.get("ZEROSUM_PRECISION")
        if env is None:
            value = DEFAULT_PREC
        else:
            try:
                value = int(env)
            except ValueError:
                raise ConfigurationError(
                    f"ZEROSUM_PRECISION must be an integer, got {env!r}"
                )
    check_precision(value)
    return value


def _build_config(function, nu, q, discriminant, order, precision, method, fmt, scale):
    required = _REQUIRED_PARAMS[function]
    supplied = {"nu": nu, "q": q, "discriminant": discriminant}
    for name in required:
        if supplied[name] is None:
            raise ConfigurationError(f"--function {function} requires --{name}")
    for name, value in supplied.items():
        if value is not None and name not in required:
            raise ConfigurationError(
                f"--{name} does not apply to --function {function}"
            )
    if order < 1:
        raise ConfigurationError(f"--order must be at least 1, got {order}")
    return RunConfig(
        function=function,
        nu=_parse_real(nu, "--nu"),
        q=_parse_real(q, "--q"),
        discriminant=discriminant,
        order=order,
        precision=_resolve_precision(precision),
        method=method,
        fmt=fmt,
        scale=_parse_real(scale, "--scale"),
    )


def _nstr(x, digits):
    return mp.nstr(x, digits)


def _params_payload(cfg):
    out = {}
    if cfg.nu is not None:
        out["nu"] = _nstr(to_real(cfg.nu, cfg.precision), cfg.precision)
    if cfg.q is not None:
        out["q"] = _nstr(to_real(cfg.q, cfg.precision), cfg.precision)
    if cfg.discriminant is not None:
        out["discriminant"] = cfg.discriminant
    return out


def _moment_table(cfg):
    """The kernel moment table of zeta or dirichlet; None for other families."""
    if cfg.function == "zeta":
        return riemann_moments(cfg.order, cfg.precision)
    if cfg.function == "dirichlet":
        chi = kronecker_character(cfg.discriminant)
        return dirichlet_moments(chi, cfg.order, cfg.precision)
    return None


def _series_for(cfg):
    p = cfg.precision
    if cfg.function == "sinc":
        return sinc_sigmas(cfg.order, p)
    if cfg.function == "bessel":
        return bessel_sigmas(BesselParams(nu=cfg.nu), cfg.order, p)
    if cfg.function == "airy":
        return airy_sigmas(cfg.order, p)
    if cfg.function == "qbessel":
        return qbessel_sigmas(QBesselParams(nu=cfg.nu, q=cfg.q), cfg.order, p)
    if cfg.function == "qairy":
        return qairy_sigmas(cfg.q, cfg.order, p)
    if cfg.function in ("zeta", "dirichlet"):
        return _moment_table(cfg).series()
    raise ConfigurationError(f"unknown function {cfg.function!r}")


def _echo_json(payload):
    click.echo(json.dumps(payload, indent=2, ensure_ascii=False))


def _echo_csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    click.echo(buf.getvalue(), nl=False)


def _fail(message, code):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _dispatch(body):
    try:
        return body()
    except ConfigurationError as exc:
        _fail(str(exc), 2)
    except NumericError as exc:
        _fail(str(exc), 3)


def _family_options(fn):
    decorators = [
        click.option(
            "--function",
            type=click.Choice(FUNCTIONS),
            required=True,
            help="Function family to operate on.",
        ),
        click.option("--nu", default=None, help="Order parameter (bessel, qbessel)."),
        click.option("--q", default=None, help="Base in (0,1) (qbessel, qairy)."),
        click.option(
            "--discriminant",
            type=int,
            default=None,
            help="Fundamental discriminant (dirichlet).",
        ),
        click.option(
            "--precision",
            type=int,
            default=None,
            help="Significant decimal digits (default 50, or ZEROSUM_PRECISION).",
        ),
        click.option(
            "--format",
            "fmt",
            type=click.Choice(["json", "csv", "text"]),
            default="text",
            show_default=True,
            help="Output encoding.",
        ),
    ]
    for dec in reversed(decorators):
        fn = dec(fn)
    return fn


@click.group()
def main():
    """High-precision sums over zeros of special entire functions."""


# ---------------------------------------------------------------- sums


def _run_sums(cfg, show_sigmas):
    series = _series_for(cfg)
    p = cfg.precision
    reports = {}
    if cfg.method in ("recurrence", "both"):
        reports[METHOD_RECURRENCE] = power_sums_recurrence(series)
    if cfg.method in ("determinant", "both"):
        reports[METHOD_DETERMINANT] = power_sums_determinant(series, scale=cfg.scale)

    sigma_strs = [_nstr(series.sigmas[n], p) for n in range(1, cfg.order + 1)]
    sums_entries = []
    for n in range(1, cfg.order + 1):
        for name in (METHOD_RECURRENCE, METHOD_DETERMINANT):
            if name in reports:
                sums_entries.append(
                    {"n": n, "value": _nstr(reports[name].value(n), p), "method": name}
                )

    if cfg.fmt == "json":
        payload = {
            "function": cfg.function,
            "params": _params_payload(cfg),
            "precision": p,
        }
        if show_sigmas:
            payload["sigmas"] = [
                {"n": n, "value": sigma_strs[n - 1]} for n in range(1, cfg.order + 1)
            ]
        payload["sums"] = sums_entries
        _echo_json(payload)
    elif cfg.fmt == "csv":
        rows = []
        for n in range(1, cfg.order + 1):
            rec = (
                _nstr(reports[METHOD_RECURRENCE].value(n), p)
                if METHOD_RECURRENCE in reports
                else ""
            )
            det = (
                _nstr(reports[METHOD_DETERMINANT].value(n), p)
                if METHOD_DETERMINANT in reports
                else ""
            )
            rows.append([n, sigma_strs[n - 1], rec, det])
        _echo_csv(["n", "sigma", "s_recurrence", "s_determinant"], rows)
    else:
        click.echo(f"# power sums: {cfg.function}, precision {p}")
        params = _params_payload(cfg)
        if params:
            click.echo("# " + ", ".join(f"{k} = {v}" for k, v in params.items()))
        if show_sigmas:
            for n in range(1, cfg.order + 1):
                click.echo(f"sigma[{n}] = {sigma_strs[n - 1]}")
        for entry in sums_entries:
            click.echo(f"s[{entry['n']}] ({entry['method']}) = {entry['value']}")


@main.command("sums")
@_family_options
@click.option("--order", type=int, default=5, show_default=True)
@click.option(
    "--method",
    type=click.Choice(["recurrence", "determinant", "both"]),
    default="both",
    show_default=True,
)
@click.option(
    "--scale",
    default="-1",
    show_default=True,
    help="Scaling constant used by the determinant route.",
)
@click.option(
    "--sigmas",
    "show_sigmas",
    is_flag=True,
    help="Also print the normalized coefficients.",
)
def cmd_sums(function, nu, q, discriminant, precision, fmt, order, method, scale, show_sigmas):
    """Compute power sums of reciprocal (squared) zeros."""

    def body():
        cfg = _build_config(
            function, nu, q, discriminant, order, precision, method, fmt, scale
        )
        _run_sums(cfg, show_sigmas)

    _dispatch(body)


# -------------------------------------------------------------- verify


def _rel_diff(a, b):
    scale = max(abs(a), abs(b))
    if scale == 0:
        return mp.zero
    return abs(a - b) / scale


def _closed_form_values(cfg, series, kmax, prec):
    fam = cfg.function
    if fam == "sinc":
        # s_n is the even zeta constant: (-1)^(n+1) B_2n (2 pi)^(2n) / (2 (2n)!)
        vals = []
        for k in range(1, kmax + 1):
            b = to_real(bernoulli(2 * k), prec)
            vals.append(
                (-1) ** (k + 1) * b * (2 * mp.pi) ** (2 * k) / (2 * mp.factorial(2 * k))
            )
        return vals, "even zeta constants via Bernoulli numbers"
    if fam == "bessel":
        params = BesselParams(nu=cfg.nu)
        return (
            [bessel_s_closed(params, k, prec) for k in range(1, kmax + 1)],
            "rational closed forms in nu",
        )
    if fam == "qbessel":
        params = QBesselParams(nu=cfg.nu, q=cfg.q)
        return (
            [qbessel_s_closed(params, k, prec) for k in range(1, kmax + 1)],
            "rational closed forms in q and q^nu",
        )
    if fam == "qairy":
        return (
            [qairy_s_closed(cfg.q, k, prec) for k in range(1, kmax + 1)],
            "rational closed forms in q",
        )
    return None, ""


def _verify_checks(cfg, oracle_flag, count):
    p = cfg.precision
    checks = []
    table = _moment_table(cfg)
    series = _series_for(cfg) if table is None else table.series()
    tol = mp.mpf(10) ** (-(p - 15))

    rec = power_sums_recurrence(series)
    det = power_sums_determinant(series, scale=cfg.scale)
    worst = mp.zero
    for n in range(1, cfg.order + 1):
        worst = max(worst, _rel_diff(rec.value(n), det.value(n)))
    checks.append(
        (
            "recurrence-vs-determinant",
            worst <= tol,
            f"max relative difference {_nstr(worst, 3)} over orders 1..{cfg.order} "
            f"(tolerance {_nstr(tol, 3)})",
        )
    )

    closed_caps = {"sinc": 20, "bessel": 5, "qbessel": 3, "qairy": 5}
    with working(p, 15):
        if cfg.function in closed_caps:
            kmax = min(cfg.order, closed_caps[cfg.function])
            vals, label = _closed_form_values(cfg, series, kmax, p)
            worst = mp.zero
            for k in range(1, kmax + 1):
                worst = max(worst, _rel_diff(rec.value(k), vals[k - 1]))
            checks.append(
                (
                    "closed-form-regression",
                    worst <= tol,
                    f"{label}, orders 1..{kmax}: max relative difference "
                    f"{_nstr(worst, 3)}",
                )
            )
        elif cfg.function == "airy":
            raw0 = airy_raw_coefficient(0, p)
            diff = abs(raw0 - 2 * mp.pi)
            checks.append(
                (
                    "normalization",
                    diff <= mp.mpf(10) ** (-(p - 12)),
                    "raw series is normalized by its leading coefficient, which "
                    f"equals 2*pi; |alpha_0 - 2*pi| = {_nstr(diff, 3)}",
                )
            )
        elif cfg.function in ("zeta", "dirichlet"):
            if cfg.function == "zeta":
                kmax = min(cfg.order, 4)
                vals = [riemann_s_closed(table.b, k, p) for k in range(1, kmax + 1)]
                label = "rational closed forms in the kernel moments"
            else:
                kmax = 1
                vals = [table.b[1] / (2 * table.b[0])]
                label = "first-order closed form b1/(2*b0)"
            worst = mp.zero
            for k in range(1, kmax + 1):
                worst = max(worst, _rel_diff(rec.value(k), vals[k - 1]))
            checks.append(
                (
                    "closed-form-regression",
                    worst <= tol,
                    f"{label}, orders 1..{kmax}: max relative difference "
                    f"{_nstr(worst, 3)}",
                )
            )

    if oracle_flag:
        zl = _locate_zeros(cfg, count)
        with working(p, 15):
            for n in range(1, min(3, cfg.order) + 1):
                tps = zero_oracle.truncated_power_sum(zl, n, prec=p)
                newton = rec.value(n)
                ok = bool(abs(newton - tps.estimate) <= tps.error_bound)
                checks.append(
                    (
                        f"oracle-interval-s{n}",
                        ok,
                        f"{zl.count} zeros: Newton value {_nstr(newton, 12)} vs "
                        f"oracle estimate {_nstr(tps.estimate, 12)} +- "
                        f"{_nstr(tps.error_bound, 4)} ({tps.tail.bound_kind} tail)",
                    )
                )
    return checks


def _locate_zeros(cfg, count):
    p = cfg.precision
    k = count if count is not None else _ORACLE_COUNTS[cfg.function]
    if cfg.function == "sinc":
        # sin(z)/z is the half-order Bessel function; its zeros k*pi,
        # divided by pi, are the zeros k of sin(pi x)/(pi x)
        zl = zero_oracle.bessel_zeros(Fraction(1, 2), k, p)
        with working(p, 15):
            return replace(
                zl, zeros=tuple(z / mp.pi for z in zl.zeros), tol=zl.tol / mp.pi, note=""
            )
    if cfg.function == "bessel":
        return zero_oracle.bessel_zeros(cfg.nu, k, p)
    if cfg.function == "airy":
        return zero_oracle.airy_zeros(k, p)
    if cfg.function == "qbessel":
        return zero_oracle.qbessel_zeros(cfg.nu, cfg.q, k, p)
    if cfg.function == "qairy":
        return zero_oracle.qairy_zeros(cfg.q, k, p)
    if cfg.function == "zeta":
        return zero_oracle.xi_zeros(k, p)
    chi = kronecker_character(cfg.discriminant)
    return zero_oracle.xi_zeros(k, p, chi=chi)


@main.command("verify")
@_family_options
@click.option("--order", type=int, default=5, show_default=True)
@click.option(
    "--scale",
    default="-1",
    show_default=True,
    help="Scaling constant used by the determinant route.",
)
@click.option(
    "--oracle",
    "oracle_flag",
    is_flag=True,
    help="Also locate zeros numerically and bracket the sums.",
)
@click.option(
    "--count",
    type=int,
    default=None,
    help="How many zeros the oracle locates (family-specific default).",
)
def cmd_verify(function, nu, q, discriminant, precision, fmt, order, scale, oracle_flag, count):
    """Cross-check the two sum routes, closed forms, and (optionally) zeros."""

    def body():
        cfg = _build_config(
            function, nu, q, discriminant, order, precision, "both", fmt, scale
        )
        checks = _verify_checks(cfg, oracle_flag, count)
        all_ok = all(ok for _, ok, _ in checks)
        if cfg.fmt == "json":
            _echo_json(
                {
                    "function": cfg.function,
                    "params": _params_payload(cfg),
                    "precision": cfg.precision,
                    "checks": [
                        {
                            "name": name,
                            "status": "pass" if ok else "fail",
                            "detail": detail,
                        }
                        for name, ok, detail in checks
                    ],
                }
            )
        elif cfg.fmt == "csv":
            _echo_csv(
                ["name", "status", "detail"],
                [
                    [name, "pass" if ok else "fail", detail]
                    for name, ok, detail in checks
                ],
            )
        else:
            for name, ok, detail in checks:
                click.echo(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        return all_ok

    all_ok = _dispatch(body)
    sys.exit(0 if all_ok else 1)


# ------------------------------------------------------------- moments


@main.command("moments")
@_family_options
@click.option("--order", type=int, default=4, show_default=True)
def cmd_moments(function, nu, q, discriminant, precision, fmt, order):
    """Print kernel moments b_n, normalized beta_n, and error bounds."""

    def body():
        cfg = _build_config(
            function, nu, q, discriminant, order, precision, "both", fmt, "-1"
        )
        if cfg.function not in ("zeta", "dirichlet"):
            raise ConfigurationError(
                f"moments apply only to zeta and dirichlet, not {cfg.function}"
            )
        p = cfg.precision
        table = _moment_table(cfg)
        params = _params_payload(cfg)
        if table.parity is not None:
            params["parity"] = table.parity
        rows = [
            {
                "n": n,
                "b": _nstr(table.b[n], p),
                "beta": _nstr(table.beta[n], p),
                "error_bound": _nstr(table.quadrature_error[n], 3),
            }
            for n in range(cfg.order + 1)
        ]
        if cfg.fmt == "json":
            _echo_json(
                {
                    "function": cfg.function,
                    "params": params,
                    "precision": p,
                    "moments": rows,
                }
            )
        elif cfg.fmt == "csv":
            _echo_csv(
                ["n", "b", "beta", "error_bound"],
                [[r["n"], r["b"], r["beta"], r["error_bound"]] for r in rows],
            )
        else:
            click.echo(f"# kernel moments: {cfg.function}, precision {p}")
            if params:
                click.echo("# " + ", ".join(f"{k} = {v}" for k, v in params.items()))
            for r in rows:
                click.echo(
                    f"n={r['n']}  b={r['b']}  beta={r['beta']}  "
                    f"error<={r['error_bound']}"
                )

    _dispatch(body)


# -------------------------------------------------------------- oracle


@main.command("oracle")
@_family_options
@click.option("--count", type=int, default=12, show_default=True)
@click.option(
    "--order",
    type=int,
    default=1,
    show_default=True,
    help="Highest power sum to bracket from the located zeros.",
)
def cmd_oracle(function, nu, q, discriminant, precision, fmt, count, order):
    """Locate zeros by sign-change brackets and bound their power sums."""

    def body():
        cfg = _build_config(
            function, nu, q, discriminant, order, precision, "both", fmt, "-1"
        )
        p = cfg.precision
        zl = _locate_zeros(cfg, count)
        sums = []
        with working(p, 15):
            for n in range(1, cfg.order + 1):
                tps = zero_oracle.truncated_power_sum(zl, n, prec=p)
                sums.append(
                    {
                        "n": n,
                        "estimate": _nstr(tps.estimate, p),
                        "error_bound": _nstr(tps.error_bound, 3),
                        "mode": zl.lambda_mode,
                    }
                )
        if cfg.fmt == "json":
            _echo_json(
                {
                    "function": cfg.function,
                    "params": _params_payload(cfg),
                    "precision": p,
                    "count": zl.count,
                    "zeros": [_nstr(z, p) for z in zl.zeros],
                    "residuals": [_nstr(r, 3) for r in zl.residuals],
                    "sums": sums,
                }
            )
        elif cfg.fmt == "csv":
            _echo_csv(
                ["k", "zero", "residual"],
                [
                    [k + 1, _nstr(z, p), _nstr(r, 3)]
                    for k, (z, r) in enumerate(zip(zl.zeros, zl.residuals))
                ],
            )
        else:
            click.echo(f"# zeros: {cfg.function}, precision {p}, count {zl.count}")
            if zl.note:
                click.echo(f"# {zl.note}")
            for k, (z, r) in enumerate(zip(zl.zeros, zl.residuals)):
                click.echo(f"zero[{k + 1}] = {_nstr(z, p)}  (residual {_nstr(r, 3)})")
            for s in sums:
                click.echo(
                    f"s[{s['n']}] = {s['estimate']} +- {s['error_bound']}"
                    f"  (mode {s['mode']})"
                )

    _dispatch(body)


if __name__ == "__main__":
    main()

"""Command-line front end: sum tables, verification suites, moment tables,
and zero listings for the supported function families.

Each family is one entry of ``FAMILIES``: its required flags, the default
zero count of ``verify --oracle``, where its coefficients come from (a
sigma provider, or a moment-table builder for zeta and dirichlet), its
zero locator and the second check of ``verify``.  Adding a family means
adding one entry there.

Exit codes: 0 success, 1 failed verification check, 2 configuration
error, 3 numeric failure.  All numbers cross the CLI boundary as decimal
strings at full working precision.
"""

from __future__ import annotations

import csv
import functools
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


@dataclass(frozen=True)
class Family:
    """How the CLI treats one ``--function`` value.

    A family has either ``sigmas`` (cfg -> SigmaSeries) or ``moments``
    (cfg -> MomentTable).  ``locate(cfg, count)`` returns a ZeroList and
    ``check(cfg, table, rec, tol)`` the second ``verify`` check as a
    (name, ok, detail) triple.
    """

    params: tuple
    oracle_count: int
    locate: object
    check: object
    sigmas: object = None
    moments: object = None


def _rel_diff(a, b):
    scale = max(abs(a), abs(b))
    if scale == 0:
        return mp.zero
    return abs(a - b) / scale


def _closed_form(cap, label, value):
    """Check s_1..s_min(order, cap) against value(cfg, table, k)."""

    def check(cfg, table, rec, tol):
        kmax = min(cfg.order, cap)
        worst = mp.zero
        for k in range(1, kmax + 1):
            worst = max(worst, _rel_diff(rec.value(k), value(cfg, table, k)))
        return (
            "closed-form-regression",
            worst <= tol,
            f"{label}, orders 1..{kmax}: max relative difference {mp.nstr(worst, 3)}",
        )

    return check


def _sinc_s(cfg, table, k):
    # s_n is the even zeta constant: (-1)^(n+1) B_2n (2 pi)^(2n) / (2 (2n)!)
    b = to_real(bernoulli(2 * k), cfg.precision)
    return (-1) ** (k + 1) * b * (2 * mp.pi) ** (2 * k) / (2 * mp.factorial(2 * k))


def _airy_normalization(cfg, table, rec, tol):
    p = cfg.precision
    diff = abs(airy_raw_coefficient(0, p) - 2 * mp.pi)
    return (
        "normalization",
        diff <= mp.mpf(10) ** (-(p - 12)),
        "raw series is normalized by its leading coefficient, which "
        f"equals 2*pi; |alpha_0 - 2*pi| = {mp.nstr(diff, 3)}",
    )


def _sinc_zeros(cfg, count):
    # sin(z)/z is the half-order Bessel function; its zeros k*pi,
    # divided by pi, are the zeros k of sin(pi x)/(pi x)
    zl = zero_oracle.bessel_zeros(Fraction(1, 2), count, cfg.precision)
    with working(cfg.precision, 15):
        return replace(
            zl, zeros=tuple(z / mp.pi for z in zl.zeros), tol=zl.tol / mp.pi, note=""
        )


# The lambdas look their callees up in this module at call time, so that
# patching a name here (as tests and the benchmark tracer do) takes effect.
FAMILIES = {
    "sinc": Family(
        params=(),
        oracle_count=40,
        sigmas=lambda cfg: sinc_sigmas(cfg.order, cfg.precision),
        locate=_sinc_zeros,
        check=_closed_form(20, "even zeta constants via Bernoulli numbers", _sinc_s),
    ),
    "bessel": Family(
        params=("nu",),
        oracle_count=40,
        sigmas=lambda cfg: bessel_sigmas(BesselParams(nu=cfg.nu), cfg.order, cfg.precision),
        locate=lambda cfg, k: zero_oracle.bessel_zeros(cfg.nu, k, cfg.precision),
        check=_closed_form(
            5,
            "rational closed forms in nu",
            lambda cfg, table, k: bessel_s_closed(BesselParams(nu=cfg.nu), k, cfg.precision),
        ),
    ),
    "airy": Family(
        params=(),
        oracle_count=20,
        sigmas=lambda cfg: airy_sigmas(cfg.order, cfg.precision),
        locate=lambda cfg, k: zero_oracle.airy_zeros(k, cfg.precision),
        check=_airy_normalization,
    ),
    "qbessel": Family(
        params=("nu", "q"),
        oracle_count=20,
        sigmas=lambda cfg: qbessel_sigmas(
            QBesselParams(nu=cfg.nu, q=cfg.q), cfg.order, cfg.precision
        ),
        locate=lambda cfg, k: zero_oracle.qbessel_zeros(cfg.nu, cfg.q, k, cfg.precision),
        check=_closed_form(
            3,
            "rational closed forms in q and q^nu",
            lambda cfg, table, k: qbessel_s_closed(
                QBesselParams(nu=cfg.nu, q=cfg.q), k, cfg.precision
            ),
        ),
    ),
    "qairy": Family(
        params=("q",),
        oracle_count=25,
        sigmas=lambda cfg: qairy_sigmas(cfg.q, cfg.order, cfg.precision),
        locate=lambda cfg, k: zero_oracle.qairy_zeros(cfg.q, k, cfg.precision),
        check=_closed_form(
            5,
            "rational closed forms in q",
            lambda cfg, table, k: qairy_s_closed(cfg.q, k, cfg.precision),
        ),
    ),
    "zeta": Family(
        params=(),
        oracle_count=8,
        moments=lambda cfg: riemann_moments(cfg.order, cfg.precision),
        locate=lambda cfg, k: zero_oracle.xi_zeros(k, cfg.precision),
        check=_closed_form(
            4,
            "rational closed forms in the kernel moments",
            lambda cfg, table, k: riemann_s_closed(table.b, k, cfg.precision),
        ),
    ),
    "dirichlet": Family(
        params=("discriminant",),
        oracle_count=8,
        moments=lambda cfg: dirichlet_moments(
            kronecker_character(cfg.discriminant), cfg.order, cfg.precision
        ),
        locate=lambda cfg, k: zero_oracle.xi_zeros(
            k, cfg.precision, chi=kronecker_character(cfg.discriminant)
        ),
        check=_closed_form(
            1,
            "first-order closed form b1/(2*b0)",
            lambda cfg, table, k: table.b[1] / (2 * table.b[0]),
        ),
    ),
}


def _parse_real(text, flag):
    if text is None:
        return None
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise ConfigurationError(f"{flag} must be a real number, got {text!r}")


def _resolve_precision(option_value):
    value = option_value
    if value is None:
        env = os.environ.get("ZEROSUM_PRECISION", str(DEFAULT_PREC))
        try:
            value = int(env)
        except ValueError:
            raise ConfigurationError(f"ZEROSUM_PRECISION must be an integer, got {env!r}")
    check_precision(value)
    return value


def _params_payload(cfg):
    out = {}
    if cfg.nu is not None:
        out["nu"] = mp.nstr(to_real(cfg.nu, cfg.precision), cfg.precision)
    if cfg.q is not None:
        out["q"] = mp.nstr(to_real(cfg.q, cfg.precision), cfg.precision)
    if cfg.discriminant is not None:
        out["discriminant"] = cfg.discriminant
    return out


def _coefficients(cfg):
    """The family's coefficient series and kernel moment table (None if it has none)."""
    family = FAMILIES[cfg.function]
    if family.moments is None:
        return family.sigmas(cfg), None
    table = family.moments(cfg)
    return table.series(), table


def _locate_zeros(cfg, count):
    family = FAMILIES[cfg.function]
    return family.locate(cfg, family.oracle_count if count is None else count)


def _text_header(cfg, title, params):
    lines = [f"# {title}: {cfg.function}, precision {cfg.precision}"]
    if params:
        lines.append("# " + ", ".join(f"{k} = {v}" for k, v in params.items()))
    return lines


def _emit(cfg, payload, csv_header, csv_rows, text_lines):
    """Print one result as cfg.fmt asks.

    JSON output starts with the shared function/params/precision keys; a
    payload key of the same name replaces the value in place.
    """
    if cfg.fmt == "json":
        shared = {
            "function": cfg.function,
            "params": _params_payload(cfg),
            "precision": cfg.precision,
        }
        click.echo(json.dumps({**shared, **payload}, indent=2, ensure_ascii=False))
    elif cfg.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
        click.echo(buf.getvalue(), nl=False)
    else:
        for line in text_lines:
            click.echo(line)


def _fail(message, code):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


_FAMILY_OPTIONS = [
    click.option(
        "--function",
        type=click.Choice(tuple(FAMILIES)),
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


_SCALE_OPTION = click.option(
    "--scale",
    default="-1",
    show_default=True,
    help="Scaling constant used by the determinant route.",
)


@click.group()
def main():
    """High-precision sums over zeros of special entire functions."""


def _family_command(name):
    """Register subcommand ``name`` with the shared family options.

    The command receives a validated RunConfig and its own remaining
    options; configuration errors exit with code 2, numeric failures 3.
    """

    def register(run):
        @functools.wraps(run)
        def command(function, nu, q, discriminant, precision, fmt, order,
                    method="both", scale="-1", **options):
            required = FAMILIES[function].params
            supplied = {"nu": nu, "q": q, "discriminant": discriminant}
            try:
                for param in required:
                    if supplied[param] is None:
                        raise ConfigurationError(f"--function {function} requires --{param}")
                for param, value in supplied.items():
                    if value is not None and param not in required:
                        raise ConfigurationError(
                            f"--{param} does not apply to --function {function}"
                        )
                if order < 1:
                    raise ConfigurationError(f"--order must be at least 1, got {order}")
                cfg = RunConfig(
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
                return run(cfg, **options)
            except ConfigurationError as exc:
                _fail(str(exc), 2)
            except NumericError as exc:
                _fail(str(exc), 3)

        for option in reversed(_FAMILY_OPTIONS):
            command = option(command)
        return main.command(name)(command)

    return register


# ---------------------------------------------------------------- sums


@_family_command("sums")
@click.option("--order", type=int, default=5, show_default=True)
@click.option(
    "--method",
    type=click.Choice(["recurrence", "determinant", "both"]),
    default="both",
    show_default=True,
)
@_SCALE_OPTION
@click.option(
    "--sigmas",
    "show_sigmas",
    is_flag=True,
    help="Also print the normalized coefficients.",
)
def cmd_sums(cfg, show_sigmas):
    """Compute power sums of reciprocal (squared) zeros."""
    series, _ = _coefficients(cfg)
    p = cfg.precision
    orders = range(1, cfg.order + 1)
    reports = {}
    if cfg.method in ("recurrence", "both"):
        reports[METHOD_RECURRENCE] = power_sums_recurrence(series)
    if cfg.method in ("determinant", "both"):
        reports[METHOD_DETERMINANT] = power_sums_determinant(series, scale=cfg.scale)

    sigmas = [mp.nstr(series.sigmas[n], p) for n in orders]
    values = {name: [mp.nstr(r.value(n), p) for n in orders] for name, r in reports.items()}
    sums = [
        {"n": n, "value": values[name][n - 1], "method": name} for n in orders for name in values
    ]
    payload = {}
    text = _text_header(cfg, "power sums", _params_payload(cfg))
    if show_sigmas:
        payload["sigmas"] = [{"n": n, "value": s} for n, s in zip(orders, sigmas)]
        text += [f"sigma[{n}] = {s}" for n, s in zip(orders, sigmas)]
    payload["sums"] = sums
    text += [f"s[{e['n']}] ({e['method']}) = {e['value']}" for e in sums]
    blank = [""] * cfg.order
    columns = [values.get(name, blank) for name in (METHOD_RECURRENCE, METHOD_DETERMINANT)]
    _emit(
        cfg,
        payload,
        ["n", "sigma", "s_recurrence", "s_determinant"],
        zip(orders, sigmas, *columns),
        text,
    )


# -------------------------------------------------------------- verify


def _verify_checks(cfg, oracle_flag, count):
    p = cfg.precision
    checks = []
    series, table = _coefficients(cfg)
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
            f"max relative difference {mp.nstr(worst, 3)} over orders 1..{cfg.order} "
            f"(tolerance {mp.nstr(tol, 3)})",
        )
    )
    with working(p, 15):
        checks.append(FAMILIES[cfg.function].check(cfg, table, rec, tol))

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
                        f"{zl.count} zeros: Newton value {mp.nstr(newton, 12)} vs "
                        f"oracle estimate {mp.nstr(tps.estimate, 12)} +- "
                        f"{mp.nstr(tps.error_bound, 4)} ({tps.tail.bound_kind} tail)",
                    )
                )
    return checks


@_family_command("verify")
@click.option("--order", type=int, default=5, show_default=True)
@_SCALE_OPTION
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
def cmd_verify(cfg, oracle_flag, count):
    """Cross-check the two sum routes, closed forms, and (optionally) zeros."""
    checks = _verify_checks(cfg, oracle_flag, count)
    header = ["name", "status", "detail"]
    rows = [[name, "pass" if ok else "fail", detail] for name, ok, detail in checks]
    _emit(
        cfg,
        {"checks": [dict(zip(header, row)) for row in rows]},
        header,
        rows,
        [f"{status.upper()} {name}: {detail}" for name, status, detail in rows],
    )
    sys.exit(0 if all(ok for _, ok, _ in checks) else 1)


# ------------------------------------------------------------- moments


@_family_command("moments")
@click.option("--order", type=int, default=4, show_default=True)
def cmd_moments(cfg):
    """Print kernel moments b_n, normalized beta_n, and error bounds."""
    if FAMILIES[cfg.function].moments is None:
        covered = " and ".join(f for f, family in FAMILIES.items() if family.moments)
        raise ConfigurationError(f"moments apply only to {covered}, not {cfg.function}")
    p = cfg.precision
    _, table = _coefficients(cfg)
    params = _params_payload(cfg)
    params["parity"] = table.parity
    header = ["n", "b", "beta", "error_bound"]
    rows = [
        [
            n,
            mp.nstr(table.b[n], p),
            mp.nstr(table.beta[n], p),
            mp.nstr(table.quadrature_error[n], 3),
        ]
        for n in range(cfg.order + 1)
    ]
    _emit(
        cfg,
        {"params": params, "moments": [dict(zip(header, row)) for row in rows]},
        header,
        rows,
        _text_header(cfg, "kernel moments", params)
        + [f"n={n}  b={b}  beta={beta}  error<={err}" for n, b, beta, err in rows],
    )


# -------------------------------------------------------------- oracle


@_family_command("oracle")
@click.option("--count", type=int, default=12, show_default=True)
@click.option(
    "--order",
    type=int,
    default=1,
    show_default=True,
    help="Highest power sum to bracket from the located zeros.",
)
def cmd_oracle(cfg, count):
    """Locate zeros by sign-change brackets and bound their power sums."""
    p = cfg.precision
    zl = _locate_zeros(cfg, count)
    sums = []
    with working(p, 15):
        for n in range(1, cfg.order + 1):
            tps = zero_oracle.truncated_power_sum(zl, n, prec=p)
            sums.append(
                {
                    "n": n,
                    "estimate": mp.nstr(tps.estimate, p),
                    "error_bound": mp.nstr(tps.error_bound, 3),
                    "mode": zl.lambda_mode,
                    "tail": tps.tail.bound_kind,
                }
            )
    zeros = [mp.nstr(z, p) for z in zl.zeros]
    residuals = [mp.nstr(r, 3) for r in zl.residuals]
    rows = list(zip(range(1, len(zeros) + 1), zeros, residuals))
    text = [f"# zeros: {cfg.function}, precision {p}, count {zl.count}"]
    if zl.note:
        text.append(f"# {zl.note}")
    text += [f"zero[{k}] = {z}  (residual {r})" for k, z, r in rows]
    text += [
        f"s[{s['n']}] = {s['estimate']} +- {s['error_bound']}  (mode {s['mode']}) "
        f"[{s['tail']} tail]"
        for s in sums
    ]
    _emit(
        cfg,
        {"count": zl.count, "zeros": zeros, "residuals": residuals, "sums": sums},
        ["k", "zero", "residual"],
        rows,
        text,
    )


if __name__ == "__main__":
    main()

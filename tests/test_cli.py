"""Command-line interface: formats, exit codes, option validation."""

from __future__ import annotations

import json

import pytest
from click.testing import CliRunner
from mpmath import mp

from zerosum.cli import main
from zerosum.errors import AccuracyError

from conftest import rel_err


@pytest.fixture()
def runner():
    return CliRunner()


def _invoke(runner, args, **kw):
    return runner.invoke(main, args, catch_exceptions=False, **kw)


# ---------------------------------------------------------------- sums


def test_sums_sinc_text(runner):
    res = _invoke(runner, ["sums", "--function", "sinc", "--order", "3", "--sigmas"])
    assert res.exit_code == 0
    assert "\r" not in res.output
    lines = res.output.splitlines()
    assert lines[0].startswith("# power sums: sinc")
    assert any(line.startswith("sigma[1] = ") for line in lines)
    assert any(line.startswith("s[3] (determinant) = ") for line in lines)


def test_sums_sinc_json_round_trip(runner):
    res = _invoke(
        runner,
        ["sums", "--function", "sinc", "--order", "2", "--format", "json", "--sigmas"],
    )
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["function"] == "sinc"
    assert payload["precision"] == 50
    assert len(payload["sigmas"]) == 2
    assert len(payload["sums"]) == 4  # two orders x two methods
    # serialization is canonical: re-encoding reproduces the bytes
    assert json.dumps(payload, indent=2, ensure_ascii=False) + "\n" == res.output
    with mp.workdps(70):
        s1 = next(
            e["value"] for e in payload["sums"]
            if e["n"] == 1 and e["method"] == "recurrence"
        )
        # s_1 for the sinc family is pi^2/6
        assert rel_err(mp.mpf(s1), mp.pi**2 / 6) < mp.mpf("1e-45")


def test_sums_text_json_numeric_identity(runner):
    args = ["sums", "--function", "qairy", "--q", "0.5", "--order", "3"]
    text = _invoke(runner, args)
    js = _invoke(runner, args + ["--format", "json"])
    assert text.exit_code == 0 and js.exit_code == 0
    payload = json.loads(js.output)
    for entry in payload["sums"]:
        line = f"s[{entry['n']}] ({entry['method']}) = {entry['value']}"
        assert line in text.output


def test_sums_csv_header_and_rows(runner):
    res = _invoke(
        runner,
        ["sums", "--function", "bessel", "--nu", "1", "--order", "4",
         "--format", "csv"],
    )
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == "n,sigma,s_recurrence,s_determinant"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "1"
    with mp.workdps(70):
        # s_1 = 1/(4(nu+1)) = 1/8 for nu = 1
        assert rel_err(mp.mpf(first[2]), mp.mpf(1) / 8) < mp.mpf("1e-45")
        assert rel_err(mp.mpf(first[3]), mp.mpf(1) / 8) < mp.mpf("1e-45")


def test_sums_scale_option(runner):
    res = _invoke(
        runner,
        ["sums", "--function", "sinc", "--order", "2", "--scale", "-0.25",
         "--method", "determinant", "--format", "json"],
    )
    assert res.exit_code == 0
    payload = json.loads(res.output)
    with mp.workdps(70):
        s2 = next(e["value"] for e in payload["sums"] if e["n"] == 2)
        assert rel_err(mp.mpf(s2), mp.pi**4 / 90) < mp.mpf("1e-45")


def test_sums_zero_scale_is_config_error(runner):
    res = runner.invoke(main, ["sums", "--function", "sinc", "--scale", "0"])
    assert res.exit_code == 2
    assert "scale" in res.stderr


def test_sums_missing_required_param(runner):
    res = runner.invoke(main, ["sums", "--function", "bessel"])
    assert res.exit_code == 2
    assert "--nu" in res.stderr


def test_sums_rejects_inapplicable_param(runner):
    res = runner.invoke(main, ["sums", "--function", "sinc", "--q", "0.5"])
    assert res.exit_code == 2
    assert "--q" in res.stderr


def test_sums_precision_floor(runner):
    res = runner.invoke(main, ["sums", "--function", "sinc", "--precision", "20"])
    assert res.exit_code == 2


def test_precision_env_var(runner, monkeypatch):
    monkeypatch.setenv("ZEROSUM_PRECISION", "35")
    res = _invoke(
        runner, ["sums", "--function", "sinc", "--order", "1", "--format", "json"]
    )
    assert res.exit_code == 0
    assert json.loads(res.output)["precision"] == 35
    monkeypatch.setenv("ZEROSUM_PRECISION", "abc")
    res = runner.invoke(main, ["sums", "--function", "sinc", "--order", "1"])
    assert res.exit_code == 2
    # an explicit option wins over the environment
    monkeypatch.setenv("ZEROSUM_PRECISION", "35")
    res = _invoke(
        runner,
        ["sums", "--function", "sinc", "--order", "1", "--precision", "40",
         "--format", "json"],
    )
    assert json.loads(res.output)["precision"] == 40


# -------------------------------------------------------------- verify


def test_verify_sinc_passes(runner):
    res = _invoke(runner, ["verify", "--function", "sinc", "--order", "6"])
    assert res.exit_code == 0
    assert "PASS recurrence-vs-determinant" in res.output
    assert "PASS closed-form-regression" in res.output
    assert "FAIL" not in res.output


def test_verify_qairy_with_oracle(runner):
    res = _invoke(
        runner,
        ["verify", "--function", "qairy", "--q", "0.5", "--oracle",
         "--count", "12", "--format", "json"],
    )
    assert res.exit_code == 0
    payload = json.loads(res.output)
    names = [c["name"] for c in payload["checks"]]
    assert "recurrence-vs-determinant" in names
    assert "oracle-interval-s1" in names
    assert all(c["status"] == "pass" for c in payload["checks"])


def test_verify_sinc_with_oracle_passes(runner):
    res = _invoke(
        runner,
        ["verify", "--function", "sinc", "--order", "3", "--oracle", "--count", "10"],
    )
    assert res.exit_code == 0
    assert "PASS oracle-interval-s3" in res.output
    assert "FAIL" not in res.output


@pytest.mark.parametrize(
    "family", [["--function", "zeta"], ["--function", "dirichlet", "--discriminant", "-3"]]
)
def test_verify_builds_the_moment_table_once(runner, monkeypatch, family):
    import zerosum.cli as cli_mod
    import zerosum.zeta as zeta_mod

    calls = []

    def counting(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(cli_mod, "riemann_moments")
    counting(cli_mod, "dirichlet_moments")
    counting(zeta_mod, "theta_selfcheck")
    res = _invoke(runner, ["verify", *family, "--order", "2", "--precision", "30"])
    assert res.exit_code == 0
    assert calls.count("riemann_moments") + calls.count("dirichlet_moments") == 1
    # the character's type is its only check: no theta self-check is summed
    assert "theta_selfcheck" not in calls


def test_verify_reports_failure_with_exit_1(runner, monkeypatch):
    import zerosum.cli as cli_mod

    real = cli_mod.power_sums_recurrence

    class _Skewed:
        def __init__(self, series):
            self._inner = real(series)

        def value(self, n):
            return self._inner.value(n) * (1 + mp.mpf("1e-6"))

    monkeypatch.setattr(cli_mod, "power_sums_determinant",
                        lambda series, scale=None: _Skewed(series))
    res = runner.invoke(main, ["verify", "--function", "sinc", "--order", "3"])
    assert res.exit_code == 1
    assert "FAIL recurrence-vs-determinant" in res.output


def test_numeric_failure_exits_3(runner, monkeypatch):
    import zerosum.cli as cli_mod

    def boom(order, prec):
        raise AccuracyError("quadrature refused to converge")

    monkeypatch.setattr(cli_mod, "riemann_moments", boom)
    res = runner.invoke(main, ["moments", "--function", "zeta"])
    assert res.exit_code == 3
    assert "quadrature refused to converge" in res.stderr


# ------------------------------------------------------------- moments


def test_moments_zeta_json_and_csv(runner):
    args = ["moments", "--function", "zeta", "--order", "1", "--precision", "35"]
    js = _invoke(runner, args + ["--format", "json"])
    assert js.exit_code == 0
    payload = json.loads(js.output)
    assert payload["precision"] == 35
    assert payload["params"]["parity"] == 0
    rows = payload["moments"]
    assert [r["n"] for r in rows] == [0, 1]
    with mp.workdps(70):
        b0 = mp.mpf(rows[0]["b"])
        assert rel_err(b0, mp.mpf("0.497120778188314109912773739685")) < mp.mpf("1e-28")
        # beta_n = b_n / ((2n)! b_0), so beta_0 is exactly 1
        assert mp.mpf(rows[0]["beta"]) == 1
        assert mp.mpf(rows[0]["error_bound"]) < mp.mpf("1e-35")
    cv = _invoke(runner, args + ["--format", "csv"])
    lines = cv.output.splitlines()
    assert lines[0] == "n,b,beta,error_bound"
    assert len(lines) == 3
    assert lines[1].split(",")[1] == rows[0]["b"]


def test_moments_rejects_series_families(runner):
    res = runner.invoke(main, ["moments", "--function", "sinc"])
    assert res.exit_code == 2


def test_moments_rejects_non_fundamental_discriminant(runner):
    res = runner.invoke(
        main, ["moments", "--function", "dirichlet", "--discriminant", "7"]
    )
    assert res.exit_code == 2
    assert "fundamental" in res.stderr


# -------------------------------------------------------------- oracle


def test_oracle_bessel_json(runner):
    res = _invoke(
        runner,
        ["oracle", "--function", "bessel", "--nu", "0.5", "--count", "5",
         "--order", "2", "--format", "json"],
    )
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["count"] == 5
    assert len(payload["zeros"]) == 5
    assert len(payload["residuals"]) == 5
    assert [s["n"] for s in payload["sums"]] == [1, 2]
    assert payload["sums"][0]["mode"] == "squared"
    with mp.workdps(70):
        # half-integer order zeros sit at k*pi
        z3 = mp.mpf(payload["zeros"][2])
        assert rel_err(z3, 3 * mp.pi) < mp.mpf("1e-20")
        est = mp.mpf(payload["sums"][0]["estimate"])
        bound = mp.mpf(payload["sums"][0]["error_bound"])
        # s_1 = 1/(4(nu+1)) = 1/6
        assert abs(est - mp.mpf(1) / 6) <= bound


def test_oracle_sinc_zeros_are_the_integers(runner):
    args = ["oracle", "--function", "sinc", "--count", "10", "--order", "2"]
    res = _invoke(runner, args + ["--format", "json"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    with mp.workdps(70):
        xtol = mp.mpf(10) ** (-(payload["precision"] // 2))
        for k, z in enumerate(payload["zeros"], start=1):
            assert abs(mp.mpf(z) - k) < xtol
        # s_1 = zeta(2) = pi^2/6 and s_2 = zeta(4) = pi^4/90
        for entry, want in zip(payload["sums"], (mp.pi**2 / 6, mp.pi**4 / 90)):
            est = mp.mpf(entry["estimate"])
            assert est <= want <= est + mp.mpf(entry["error_bound"])
    txt = _invoke(runner, args)
    assert txt.exit_code == 0
    assert "nu" not in txt.output


def test_oracle_csv_and_text(runner):
    args = ["oracle", "--function", "qairy", "--q", "0.5", "--count", "4"]
    cv = _invoke(runner, args + ["--format", "csv"])
    assert cv.exit_code == 0
    lines = cv.output.splitlines()
    assert lines[0] == "k,zero,residual"
    assert len(lines) == 5
    assert lines[1].startswith("1,1.2482191639119088")
    txt = _invoke(runner, args)
    assert txt.exit_code == 0
    assert "# q = 1/2" in txt.output  # the flag is parsed as an exact rational
    assert "zero[1] = 1.2482191639119088" in txt.output
    assert "(mode plain)" in txt.output


def test_oracle_states_the_tol_its_zeros_are_certified_to(runner):
    # 30 digits are printed, 15 certified: JSON and text say so, CSV stays as it was
    args = ["oracle", "--function", "zeta", "--count", "3", "--precision", "30"]
    payload = json.loads(_invoke(runner, args + ["--format", "json"]).output)
    assert payload["tol"] == "1.0e-15"
    assert list(payload) == [
        "function", "params", "precision", "count", "tol", "zeros", "residuals", "sums",
    ]
    with mp.workdps(30):
        for n, z in enumerate(payload["zeros"], 1):
            assert len(z.replace(".", "")) == 30
            assert abs(mp.mpf(z) - mp.zetazero(n).imag) <= mp.mpf(payload["tol"])
    txt = _invoke(runner, args).output.splitlines()
    assert "# tol 1.0e-15: each zero z is certified to within tol, not to every digit" in txt
    assert [line.split()[2] for line in txt if line.startswith("zero[")] == payload["zeros"]
    cv = _invoke(runner, args + ["--format", "csv"]).output.splitlines()
    assert cv[0] == "k,zero,residual"
    assert [row.split(",")[1] for row in cv[1:]] == payload["zeros"]
    qairy = ["oracle", "--function", "qairy", "--q", "0.5", "--count", "3"]
    assert "within tol * z (relative)" in _invoke(runner, qairy).output


@pytest.mark.parametrize(
    "params, kind",
    [
        (["--function", "qairy", "--q", "0.5"], "geometric-ratio"),
        (["--function", "bessel", "--nu", "0"], "asymptotic-density"),
    ],
)
def test_oracle_names_the_tail_model(runner, params, kind):
    args = ["oracle", *params, "--count", "4", "--order", "2", "--precision", "30"]
    res = _invoke(runner, args + ["--format", "json"])
    assert res.exit_code == 0
    assert [s["tail"] for s in json.loads(res.output)["sums"]] == [kind, kind]
    txt = _invoke(runner, args)
    assert txt.exit_code == 0
    assert txt.output.count(f") [{kind} tail]\n") == 2


def test_oracle_rejects_bad_q(runner):
    res = runner.invoke(
        main, ["oracle", "--function", "qairy", "--q", "0.95", "--count", "3"]
    )
    assert res.exit_code == 2

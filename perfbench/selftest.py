"""Self-test of the benchmark itself, at smoke size.

    python3 perfbench/selftest.py

Runs one small traced round of every workload, then feeds the checks
spoiled copies of real outputs (a zero list scaled by pi, a reference
shifted outside its tolerance, a determinant off by one part in 10^10,
a bracket moved by twice its width, a dropped ordinate, a failing CLI
check) and confirms each is rejected.  Last, it runs the benchmark in a
directory without the program and confirms that it fails.  Takes about
half a minute; exits non-zero on the first problem.
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from mpmath import mp

import run
import tracing
import workloads
import grids
from workloads import ROUNDS

SMOKE = {
    "PRECISIONS": (30,),
    "SIGMA_ORDER": 8,
    "BESSEL_DEEP_COUNT": 6,
    "BESSEL_COUNT": 4,
    "AIRY_COUNT": 6,
    "QBESSEL_COUNT": 6,
    "QAIRY_COUNT": 6,
    "CLI_ZETA_COUNT": 1,
    "CLI_DIRICHLET_COUNT": 1,
    "SINC_COUNT": 3,
    "XI_SCAN_COUNT": 2,
    "XI_SCAN_DIRICHLET_COUNT": 1,
}


def expect(cond, message):
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok: {message}")


def rejected(request, output):
    return not request.check(output).ok


def pick(pairs, text):
    """The first (request, output) pair whose request name contains text."""
    return next((req, out) for req, out in pairs if text in req.name)


def spoil_json(result, edit):
    payload = json.loads(result.stdout)
    edit(payload)
    return SimpleNamespace(exit_code=result.exit_code, exception=None, stdout=json.dumps(payload))


def check_classical(zs, refs, pairs):
    req, (zl, brackets) = pick(pairs, "oracle bessel 1/2")
    scaled = replace(zl, zeros=tuple(z * mp.pi for z in zl.zeros))
    expect(rejected(req, (scaled, brackets)), "half-order zeros scaled by pi are rejected")
    moved = [replace(b, estimate=b.estimate + 2 * b.error_bound) for b in brackets]
    expect(rejected(req, (zl, moved)), "a bracket moved by twice its width is rejected")

    req, (series, rec, dets, closed) = pick(pairs, "coeff bessel 0 p30")
    det = dets[0]
    off = replace(det, values=(det.values[0] * (1 + mp.mpf("1e-10")),) + det.values[1:])
    expect(rejected(req, (series, rec, [off] + dets[1:], closed)), "a determinant off by 1e-10 is rejected")

    shifted = copy.deepcopy(refs)
    s1 = Fraction(shifted["bessel"]["0"]["s"][0])
    shifted["bessel"]["0"]["s"][0] = str(s1 * (1 + Fraction(1, 10**18)))
    req = workloads.coefficient_request(zs, "bessel", Fraction(0), 30, [Fraction(-3)], shifted, {})
    expect(rejected(req, req.run()), "a reference shifted outside its tolerance is rejected")


def check_cli(pairs):
    req, result = pick(pairs, "verify --function zeta")
    spoiled = spoil_json(result, lambda p: p["checks"][0].update(status="fail"))
    expect(rejected(req, spoiled), "a failing verify check is rejected")
    expect(rejected(req, SimpleNamespace(exit_code=3, exception=None, stdout="")), "a non-zero exit code is rejected")

    req, result = pick(pairs, "oracle --function zeta")

    def scale(payload):
        payload["zeros"] = [str(mp.mpf(z) * mp.pi) for z in payload["zeros"]]

    expect(rejected(req, spoil_json(result, scale)), "CLI ordinates scaled by pi are rejected")

    req, result = pick(pairs, "moments --function dirichlet")

    def shift(payload):
        payload["moments"][1]["beta"] = str(mp.mpf(payload["moments"][1]["beta"]) * (1 + mp.mpf("1e-12")))

    expect(rejected(req, spoil_json(result, shift)), "a moment beta_1 shifted by 1e-12 is rejected")


def check_xi_scan(pairs):
    req, (zl, tps) = pick(pairs, "xi_zeros zeta")
    dropped = replace(zl, zeros=zl.zeros[:-1], residuals=zl.residuals[:-1])
    expect(rejected(req, (dropped, tps)), "an ordinate list missing a zero is rejected")

    req, (rec, det, closed) = pick(pairs, "riemann_moments")
    off = replace(rec, values=(rec.values[0] * (1 + mp.mpf("1e-12")),) + rec.values[1:])
    expect(rejected(req, (off, det, closed)), "a Newton s_1 off by 1e-12 is rejected")


def keep(fn, store):
    def run_and_keep():
        store.append(fn())
        return store[-1]

    return run_and_keep


def smoke_round(zs, workload, refs):
    """One traced round; returns its (request, output) pairs."""
    requests = ROUNDS[workload](zs, random.Random(7), refs)
    outputs = []
    for req in requests:
        req.run = keep(req.run, outputs)
    tracer = tracing.Tracer()
    tracing.install(tracer, zs)
    try:
        records = [run.run_request(req, tracer) for req in requests]
    finally:
        tracer.restore()
    for req, _, outcome in records:
        verdict = "fails" if req.known_fault else "passes"
        expect(outcome.ok != req.known_fault, f"{workload}: {req.name} {verdict} {outcome.detail}")
    metrics = tracing.layer_metrics(tracer.spans, 1)
    expect(all(isinstance(v, float) for v, _ in metrics.values()), f"{workload}: every layer metric is a number")
    return list(zip(requests, outputs))


def check_bare_directory():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    for path in run.HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench" / path.name)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=120,
    )
    shutil.rmtree(bare)
    expect(done.returncode != 0 and not done.stdout.strip(), "without src/ the benchmark fails and prints no result")


def main():
    t0 = time.perf_counter()
    sys.path.insert(0, str(run.SRC))
    import zerosum
    import zerosum.cli  # noqa: F401

    refs = workloads.load_references()
    saved = {name: getattr(grids, name) for name in SMOKE}
    for name, value in SMOKE.items():
        setattr(grids, name, value)
    try:
        check_classical(zerosum, refs, smoke_round(zerosum, "classical", refs))
        check_cli(smoke_round(zerosum, "cli", refs))
        check_xi_scan(smoke_round(zerosum, "xi-scan", refs))
    finally:
        for name, value in saved.items():
            setattr(grids, name, value)
    check_bare_directory()
    print(f"selftest passed in {time.perf_counter() - t0:.1f} s")


if __name__ == "__main__":
    main()

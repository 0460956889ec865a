"""Run one workload of the zerosum benchmark and print its metrics.

    python3 perfbench/run.py --workload classical --seed 1 --seconds 35 --trace 0

One caller in one thread issues the workload's requests back to back
(a closed loop), in whole rounds, for about --seconds: the run ends at
the round boundary nearest that deadline.  Every output is checked.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.
Timings are medians over the run's rounds.  The program is imported
from src/ of the checkout this file sits in; without it the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
from workloads import COEFF, ORACLE, ROUNDS, Outcome, load_references  # noqa: E402


def setup(workload, seed):
    """Import zerosum and generate the first round; returns (zerosum, rng, refs, requests)."""
    import zerosum

    if workload == "cli":
        import zerosum.cli  # noqa: F401
    refs = load_references()
    rng = random.Random(seed)
    return zerosum, rng, refs, ROUNDS[workload](zerosum, rng, refs)


def probe_setup(workload, seed):
    """Seconds from launching a fresh interpreter to the end of its set-up.

    The probe imports zerosum with everything it pulls in, mpmath first of
    all, loads the references, generates the first round and exits.
    """
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT,
        capture_output=True,
        timeout=120,
        check=True,
    )
    return time.perf_counter() - t0


def run_request(req, tracer=None):
    """Issue one request, time it and check it; returns (request, seconds, Outcome)."""
    span_name = "cli.request" if "command" in req.attrs else "bench.request"
    scope = tracer.span(span_name, request=req.name, **req.attrs) if tracer else nullcontext()
    t0 = time.perf_counter()
    try:
        with scope:
            out = req.run()
    except Exception as exc:  # a failed request is counted and the run goes on
        return req, time.perf_counter() - t0, Outcome(False, 0, f"raised {exc!r}")
    elapsed = time.perf_counter() - t0
    try:
        outcome = req.check(out)
    except Exception as exc:  # a check that cannot read the output fails the request
        outcome = Outcome(False, 0, f"check raised {exc!r}")
    return req, elapsed, outcome


def round_figures(records):
    """(wall, coefficient time, zeros per oracle second) of one round."""
    wall = sum(t for _, t, _ in records)
    coeff = sum(t for req, t, _ in records if req.kind == COEFF)
    passed = [(t, o.zeros) for req, t, o in records if req.kind == ORACLE and o.ok]
    oracle_time = sum(t for t, _ in passed)
    rate = sum(z for _, z in passed) / oracle_time if oracle_time else 0.0
    return wall, coeff, rate


def machine_facts():
    import mpmath

    return {
        "mpmath_backend": mpmath.libmp.BACKEND,
        "mpmath": mpmath.__version__,
        "python": platform.python_version(),
        "usable_cores": len(os.sched_getaffinity(0)),
    }


def run(workload, seed, seconds, trace):
    zerosum, rng, refs, requests = setup(workload, seed)
    setups = []
    probes = 0 if trace else SETUP_PROBES
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, zerosum)

    # Set-up probes are spread over the run, between requests, so that
    # their median does not hang on the machine's speed at one moment.
    rounds = []
    start = time.perf_counter()
    next_probe = start
    while True:
        records = []
        for req in requests:
            records.append(run_request(req, tracer))
            if len(setups) < probes and time.perf_counter() >= next_probe:
                setups.append(probe_setup(workload, seed))
                next_probe += seconds / probes
        rounds.append(records)
        # end at the round boundary nearest the deadline
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) / 2 >= seconds:
            break
        requests = ROUNDS[workload](zerosum, rng, refs)
    while len(setups) < probes:
        setups.append(probe_setup(workload, seed))

    records = [r for rnd in rounds for r in rnd]
    failed = [(req, o) for req, _, o in records if not o.ok]
    for name, detail in sorted({(req.name, o.detail) for req, o in failed}):
        print(f"failed: {name}: {detail}", file=sys.stderr)
    correct = all(req.known_fault for req, _ in failed)
    walls, coeffs, rates = zip(*(round_figures(rnd) for rnd in rounds))
    facts = machine_facts()
    print(f"# {workload} seed {seed}: {len(records)} requests in rounds of {[round(w, 3) for w in walls]} s")
    print(f"# machine {json.dumps(facts)}")

    if trace:
        tracer.restore()
        metrics = tracing.layer_metrics(tracer.spans, len(rounds))
        chi = zerosum.kronecker_character(-3)
        metrics["zeta.kernel_ms"] = (tracing.kernel_probe(zerosum, chi), "ms")
        metrics["trace.wall_s"] = (statistics.median(walls), "s")
        OUT.mkdir(exist_ok=True)
        dump = {"workload": workload, "seed": seed, "rounds": len(rounds), "machine": facts, "spans": tracer.spans}
        (OUT / f"trace-{workload}-{seed}.json").write_text(json.dumps(dump))
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "coeff_s": (statistics.median(coeffs), "s"),
            "zeros_per_s": (statistics.median(rates), "1/s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    return {
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(ROUNDS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "zerosum" / "__init__.py").is_file():
        print(f"error: no zerosum sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup(args.workload, args.seed)
        return 0
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

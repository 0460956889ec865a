"""Spans around the calls into each zerosum layer, recorded from outside it.

The tracer replaces public callables at the names their callers look up:
zeta looks up panel_grid and theta_selfcheck in its own module, the CLI
looks up the sigma providers, Newton routes and moment builders in its
own, the oracle is reached as a module attribute, and the benchmark's
library requests look names up in zerosum itself.  XiEvaluator methods
are replaced on the class.  Each span records its name, start, end and
parent; a layer's self time is its spans' time minus their children's.
Private helpers (kernel node sums, series passes, refiners) get no span:
their time is the self time of the public call above them.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from mpmath import mp

ORACLE_FAMILIES = ("bessel", "airy", "qbessel", "qairy", "xi")


class Tracer:
    """In-memory span recorder; spans are dicts with id, parent, name, start, end, attrs."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._undo = []

    def _start(self, name, attrs):
        span = {
            "id": self._next_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "start": time.perf_counter_ns(),
            "attrs": attrs,
        }
        self._next_id += 1
        self._stack.append(span)
        return span

    def _finish(self, span):
        span["end"] = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name, **attrs):
        span = self._start(name, attrs)
        try:
            yield span
        finally:
            self._finish(span)

    def wrap(self, owner, attr, name, observe=None):
        """Replace owner.attr by a spanning wrapper; observe(args, result) adds attrs."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self._start(name, {})
            try:
                result = original(*args, **kwargs)
                if observe is not None:
                    span["attrs"].update(observe(args, result))
                return result
            finally:
                self._finish(span)

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install(tracer, zerosum):
    """Wrap every layer entry point of an imported zerosum package."""
    zeta = sys.modules["zerosum.zeta"]
    oracle = sys.modules["zerosum.oracle"]
    cli = sys.modules.get("zerosum.cli")
    callers = [zerosum] + ([cli] if cli is not None else [])
    sweep_nodes = {}

    def calibrated(args, result):
        nodes = 2 ** result[0] * args[0].points
        sweep_nodes[id(args[0])] = nodes
        return {"level": result[0], "nodes": nodes}

    def located(args, result):
        return {"zeros": result.count}

    def bracketed(args, result):
        with mp.workdps(30):
            return {"digits": float(-mp.log10(result.error_bound / abs(result.estimate)))}

    for module in callers:
        for fn in ("sinc_sigmas", "bessel_sigmas", "airy_sigmas", "qbessel_sigmas", "qairy_sigmas"):
            tracer.wrap(module, fn, "series.sigmas")
        tracer.wrap(module, "power_sums_recurrence", "newton.recurrence")
        tracer.wrap(module, "power_sums_determinant", "newton.determinant")
        tracer.wrap(module, "riemann_moments", "zeta.moment_table")
        tracer.wrap(module, "dirichlet_moments", "zeta.moment_table")
    tracer.wrap(zeta, "theta_selfcheck", "zeta.theta_gate")
    tracer.wrap(zeta, "panel_grid", "quadrature.grid", lambda args, grid: {"nodes": len(grid)})
    tracer.wrap(zeta.XiEvaluator, "calibrate_transform", "zeta.calibrate", calibrated)
    tracer.wrap(
        zeta.XiEvaluator,
        "transform_at",
        "zeta.sweep",
        lambda args, result: {"nodes": sweep_nodes.get(id(args[0]), 0)},
    )
    for module in (zerosum, oracle):
        for family in ORACLE_FAMILIES:
            tracer.wrap(module, f"{family}_zeros", f"oracle.{family}", located)
        tracer.wrap(module, "truncated_power_sum", "oracle.bracket", bracketed)


def kernel_probe(zerosum, chi, repeats=3):
    """Mean ms of one kernel value with abs_tol, the path quadrature nodes take."""
    tol = "1e-52"  # a node tolerance of the precision-30 moment tables
    passes = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for t in ("0.1", "0.5", "1", "1.5"):
            zerosum.phi_riemann(t, 30, abs_tol=tol)
            zerosum.phi_chi(t, chi, 30, abs_tol=tol)
        passes.append((time.perf_counter() - t0) * 1000 / 8)
    return statistics.median(passes)


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans, rounds):
    """Per-layer metrics from finished spans; times and counts are per round."""
    duration = {s["id"]: (s["end"] - s["start"]) / 1e9 for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += duration[s["id"]]
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def self_per_round(name):
        return sum(duration[s["id"]] - child_time[s["id"]] for s in by_name[name]) / rounds

    def ms_per_zero(name):
        zeros = sum(s["attrs"]["zeros"] for s in by_name[name])
        return 1000 * sum(duration[s["id"]] for s in by_name[name]) / zeros if zeros else 0.0

    # moment-table builds made inside each verify of an L-function family
    parent = {s["id"]: s["parent"] for s in spans}
    verifies = {
        s["id"]
        for s in by_name["cli.request"]
        if s["attrs"]["command"] == "verify" and s["attrs"]["function"] in ("zeta", "dirichlet")
    }
    builds = 0
    for s in by_name["zeta.moment_table"]:
        p = parent[s["id"]]
        while p is not None and p not in verifies:
            p = parent[p]
        builds += p is not None
    xi_zeros = sum(s["attrs"]["zeros"] for s in by_name["oracle.xi"])
    sweeps = by_name["zeta.sweep"]

    return {
        "cli.request_s": (_mean([duration[s["id"]] for s in by_name["cli.request"]]), "s"),
        "cli.moment_builds_per_verify": (builds / len(verifies) if verifies else 0.0, "count"),
        "series.sigmas_s": (self_per_round("series.sigmas"), "s"),
        "newton.recurrence_s": (self_per_round("newton.recurrence"), "s"),
        "newton.determinant_s": (self_per_round("newton.determinant"), "s"),
        "quadrature.grid_s": (self_per_round("quadrature.grid"), "s"),
        "quadrature.nodes": (sum(s["attrs"]["nodes"] for s in by_name["quadrature.grid"]) / rounds, "count"),
        "zeta.theta_gate_s": (self_per_round("zeta.theta_gate"), "s"),
        "zeta.moment_table_s": (self_per_round("zeta.moment_table"), "s"),
        "zeta.calibrate_s": (self_per_round("zeta.calibrate"), "s"),
        "zeta.bulk_level": (_mean([s["attrs"]["level"] for s in by_name["zeta.calibrate"]]), "count"),
        "zeta.nodes_per_sweep": (_mean([s["attrs"]["nodes"] for s in sweeps]), "count"),
        "zeta.sweeps_per_zero": (len(sweeps) / xi_zeros if xi_zeros else 0.0, "count"),
        "zeta.sweep_ms": (1000 * _mean([duration[s["id"]] for s in sweeps]), "ms"),
        **{
            f"oracle.{family}_ms_per_zero": (ms_per_zero(f"oracle.{family}"), "ms")
            for family in ORACLE_FAMILIES
        },
        "oracle.bracket_s": (self_per_round("oracle.bracket"), "s"),
        "oracle.bracket_digits": (_mean([s["attrs"]["digits"] for s in by_name["oracle.bracket"]]), "digits"),
    }

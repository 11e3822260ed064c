"""Runs one workload: set-up, the timed or traced operations, checks, metrics.

Imported only after ``environment.limit_blas_threads`` has run, because it
imports numpy.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import environment
from perfbench.layers import LayerProbe, per_layer_spec
from perfbench.tracer import Instrumentation, Tracer
from perfbench.workloads import WORKLOADS, Checks

# (name, unit) of every end-to-end metric; every workload reports all of them
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("diffusion_loss", "mse/dim"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The run cannot produce a result."""


@dataclass
class Timed:
    op_s: list[float] = field(default_factory=list)  # successful untraced operations
    traced_op_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    loop_s: float = 0.0
    errors: list[str] = field(default_factory=list)

    def attempt(self, workload, i: int) -> float | None:
        """Run operation ``i``; its wall time, or None when it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            workload.op(i)
        except Exception:  # the run goes on; the failure is counted and kept
            self.failed += 1
            self.errors.append(f"operation {i}: {traceback.format_exc()}")
            return None
        return time.perf_counter() - start


def timed_loop(workload, seconds: float) -> Timed:
    """Closed loop with one client: the next operation starts when the last
    one ends. Stops after ``min_ops`` once another operation of typical length
    would overrun ``seconds``."""
    t = Timed()
    start = time.perf_counter()
    while True:
        dt = t.attempt(workload, t.attempted)
        if dt is not None:
            t.op_s.append(dt)
        elapsed = time.perf_counter() - start
        typical = statistics.median(t.op_s) if t.op_s else elapsed / t.attempted
        if t.attempted >= workload.min_ops and elapsed + typical > seconds:
            break
    t.loop_s = time.perf_counter() - start
    return t


def traced_ops(workload, instrumentation: Instrumentation) -> Timed:
    """A fixed number of operations, alternately untraced and traced, so the
    call counts repeat exactly for a seed and the untraced ones give the
    tracing overhead."""
    t = Timed()
    for i in range(workload.trace_ops):
        if i % 2 == 0:
            dt = t.attempt(workload, i)
            if dt is not None:
                t.op_s.append(dt)
            continue
        with instrumentation.installed() as tracer, tracer.operation("bench.op", i):
            dt = t.attempt(workload, i)
        if dt is not None:
            t.traced_op_s.append(dt)
    t.loop_s = sum(t.op_s)  # throughput of the untraced operations alone
    return t


def _workload_names(name: str, e2e: dict, op_s: list[float]) -> dict:
    """The workload's own names for its timings (``train_s``, ``generate_p50_ms``...)."""
    if name == "train":
        return {"train_s": e2e["op_p50_ms"] / 1000}
    if name == "evaluate":
        return {"evaluate_s": e2e["op_p50_ms"] / 1000}
    return {"generate_p50_ms": e2e["op_p50_ms"], "generate_per_s": e2e["ops_per_s"],
            "generate_p90_ms": 1000 * float(np.percentile(op_s, 90))}


def run(name: str, seed: int, seconds: float, trace: bool, size: str,
        out_dir: Path, root: Path) -> tuple[dict, Path, list[str]]:
    """Run workload ``name``; returns (result line, results file path, warnings)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = out_dir / f"work-{name}-{os.getpid()}"
    env, warnings = environment.describe(root, seed)
    checks = Checks()
    probe = LayerProbe()
    tracer = Tracer()
    try:
        workload = WORKLOADS[name](seed, size, workdir, checks)
        workload.make_inputs()
        setup_s = []
        for _ in range(1 if trace else workload.setup_repeats):
            start = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - start)
        if trace:
            instrumentation = Instrumentation(tracer, probe.targets())
            timed = traced_ops(workload, instrumentation)
            warnings += [f"trace target {n} not found: reported as never called"
                         for n in sorted(instrumentation.missing)]
        else:
            timed = timed_loop(workload, seconds)
        if not timed.op_s or (trace and not timed.traced_op_s):
            raise BenchError("no operation succeeded:\n" + "\n".join(timed.errors))
        quality = workload.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = timed.attempted + len(checks.items)
    failed = timed.failed + checks.failed
    e2e = {
        "setup_s": statistics.median(setup_s),
        "op_p50_ms": 1000 * statistics.median(timed.op_s),
        "ops_per_s": len(timed.op_s) / timed.loop_s,
        "diffusion_loss": quality["diffusion_loss"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    spans_file = None
    if trace:
        overhead = 100 * (statistics.median(timed.traced_op_s) / statistics.median(timed.op_s) - 1)
        values = probe.metrics(tracer, overhead)
        metrics = {n: {"value": values[n], "unit": u} for n, u, _ in per_layer_spec()}
        spans_file = out_dir / f"{name}-seed{seed}.spans.jsonl"
        tracer.write_jsonl(spans_file)
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}

    results = {
        "benchmark": "melodygen",
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "environment": env,
        "config": workload.cfg.to_dict(),
        "result": line,
        "workload_metrics": {**_workload_names(name, e2e, timed.op_s),
                             **quality["workload_metrics"],
                             "error_rate": failed / attempted},
        "samples": {"setup_s": setup_s, "op_s": timed.op_s, "traced_op_s": timed.traced_op_s,
                    "ops_attempted": timed.attempted},
        "digests": quality["digests"],
        "checks": checks.items,
        "errors": timed.errors,
        "warnings": warnings,
        "spans_file": None if spans_file is None else str(spans_file),
    }
    path = out_dir / f"{name}-seed{seed}-trace{int(trace)}.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(results, f, indent=1)
        f.write("\n")
    return line, path, warnings

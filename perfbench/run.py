"""melodygen benchmark: one workload per process, end to end or traced.

Usage, from the root of a checkout of the repository::

    python3 perfbench/run.py --workload {train,generate,evaluate} --seed N \\
        --seconds S --trace {0,1} [--size {full,tiny}] [--out DIR]

The run generates its inputs from ``--seed``, drives the public
``melodygen.pipeline.run_*`` functions, checks their outputs and prints one
JSON object as the last line of standard output::

    {"correct": true, "attempted": 131, "failed": 0,
     "metrics": {"op_p50_ms": {"value": 171.2, "unit": "ms"}, ...}}

``attempted`` counts the timed operations plus the output checks; ``failed``
counts the operations that raised plus the checks that failed, so
``failed / attempted`` is the run's error rate. A fuller results file
(environment, configs, raw samples, output digests, every check) is written
to ``DIR/<workload>-seed<N>-trace<0|1>.json``; a traced run also writes its
spans to ``DIR/<workload>-seed<N>.spans.jsonl``. ``DIR`` defaults to
``.perfbench_out`` at the checkout root; the pipeline's working directory
lives under it for the length of the run. Without ``src/melodygen`` next to
this directory the run prints no result and exits with code 2.

BLAS runs single-threaded unless ``OPENBLAS_NUM_THREADS`` (or
``OMP_NUM_THREADS``, ``MKL_NUM_THREADS``) says otherwise; a BLAS thread
count above the number of usable CPUs (``nproc``) is reported as a warning.

Workloads (see ``perfbench/workloads.py`` for why each was chosen):

- ``train``: the chain train-clmp -> build-index -> train-latent ->
  train-diffusion on a freshly synthesized 160-record corpus;
- ``generate``: ``run_generate`` at DDIM-100, w=3, one unseen caption per
  call, at least 100 calls, after a short training chain;
- ``evaluate``: ``run_evaluate`` standard then ablation over a 64-record
  held-out split, sampling at DDIM-50.

End-to-end metrics (``--trace 0``), reported by every workload:

============== ======= ==================================================
setup_s        s       median of the set-ups the run makes (train: corpus
                       synthesis; generate, evaluate: corpus + training)
op_p50_ms      ms      median operation time: one training chain (train),
                       one prompt (generate), one evaluation (evaluate)
ops_per_s      1/s     completed operations per second of the timed loop
diffusion_loss mse/dim mean per-latent-dim eps-MSE over the last 10% of
                       diffusion steps (timed chain on train, set-up chain
                       elsewhere); deterministic per seed
peak_rss_mb    MB      peak resident set size of the process
============== ======= ==================================================

The results file also carries each workload's own names for these:
``train_s``; ``generate_p50_ms``, ``generate_per_s`` and ``generate_p90_ms``
(a 90th percentile is reported only where ten or more operations lie
beyond it, so it is not an end-to-end metric of every workload);
``evaluate_s`` and ``fad_like`` (standard mode, deterministic per seed);
and ``error_rate``.

Per-layer metrics (``--trace 1``): the run makes a fixed number of
operations, alternately untraced and traced. Spans are recorded around the
public functions listed in ``perfbench/layers.py`` (wrapped from the
benchmark's own files; ``src/`` is untouched) and reported as
``<module>.<function>.calls`` (count) and ``.self_s`` (s, span minus child
spans), with pipeline stages also as ``.s`` (inclusive s). Extras:
``diffusion.Denoiser.predict.rows``, ``.b1_ms`` and ``.b64_ms`` (mean ms per
call at batch 1 and 64); ``smallnet.load_checkpoint.bytes``;
``clmp.train_clmp.epoch_ms``; ``melody_vdb.top1_agreement`` (HNSW top-1
equal to ``brute_knn`` top-1 on the run's own queries) with its base
``.queries``; ``melody_vdb.exact_search.{calls,self_s}`` for those exact
queries; ``bench.tracing_overhead_pct`` (median traced over median
untraced operation time). Counts repeat exactly for a seed; a layer the
traced operations never reach reads 0 calls and 0 s.

An untraced run makes operations back to back (one client, closed loop) and
stops once another operation of median length would overrun ``--seconds``,
after at least one operation (100 on ``generate``).

Which end-to-end metric each layer should move (``layers.MOVES``):
Adam (``smallnet.Optimizer.step``), backward, training steps and
``clmp.train_clmp`` move ``op_p50_ms`` on ``train`` and ``setup_s``
elsewhere; STFT/mel, WAV reads, corpus loading and token parsing move
``op_p50_ms`` on ``train`` and ``evaluate``; ``Denoiser.predict`` at batch 1,
checkpoint decode, index search, latent decode and the vocoder move
``op_p50_ms`` and ``ops_per_s`` on ``generate``; ``predict`` at batch 64,
``metrics.train_probe`` and ``metrics.frechet`` move ``op_p50_ms`` on
``evaluate``; HNSW insert moves ``op_p50_ms`` on ``train``; top-1 agreement
and exact-search time bear on ``diffusion_loss``.

Tests: ``python -m pytest perfbench/tests`` (schemas and tiny-size smoke
runs; they never gate on timings).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("train", "generate", "evaluate"))
    p.add_argument("--seed", type=int, default=0, help="workload seed")
    p.add_argument("--seconds", type=float, default=25.0,
                   help="length of the timed loop (untraced runs)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting per-layer metrics")
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: smoke-test configs that finish in seconds")
    p.add_argument("--out", type=Path, default=ROOT / ".perfbench_out",
                   help="results and scratch directory")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "melodygen" / "__init__.py").is_file():
        print(f"perfbench: error: melodygen sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import environment

    environment.limit_blas_threads()
    from perfbench import harness  # imports numpy: after the thread limit

    line, path, warnings = harness.run(args.workload, args.seed, args.seconds,
                                       bool(args.trace), args.size, args.out.resolve(), ROOT)
    for warning in warnings:
        print(f"perfbench: warning: {warning}", file=sys.stderr)
    print(f"perfbench: results in {path}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

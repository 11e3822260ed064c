"""Tests of the benchmark itself: its BENCHMARK.json, its tracer, and a
tiny-size smoke run of every workload checked against the result schemas.
Nothing here gates on a timing.

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import schema  # noqa: E402
from perfbench.harness import END_TO_END  # noqa: E402
from perfbench.layers import FUNCTIONS, MOVES, STAGES, per_layer_spec  # noqa: E402
from perfbench.tracer import Instrumentation, Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_lists_what_the_harness_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(END_TO_END)
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == per_layer_spec()
    assert set(STAGES + FUNCTIONS) <= set(MOVES)


def test_self_time_is_span_minus_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    summary = tracer.summary()
    assert summary["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 7.5}
    assert summary["inner"] == {"calls": 2, "total_s": 2.5, "self_s": 2.5}
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]


def test_instrumentation_patches_names_imported_by_name_and_skips_missing(tmp_path):
    from melodygen import corpus, diffusion, pipeline, signal
    from melodygen.corpus import generate_corpus

    originals = (pipeline.load_corpus, corpus.read_wav, signal.read_wav,
                 diffusion.Denoiser.__dict__["load"])
    generate_corpus(3, seed=0, out_dir=tmp_path, clip_samples=4096)
    tracer = Tracer()
    targets = {"corpus.load_corpus": None, "signal.read_wav": None,
               "melody_codec.parse_tokens": None, "diffusion.Denoiser.load": None,
               "signal.no_such_function": None, "no_such_module.fn": None,
               "diffusion.Denoiser.no_such_method": None}
    instrumentation = Instrumentation(tracer, targets)
    with instrumentation.installed():
        assert pipeline.load_corpus is not originals[0]
        assert isinstance(diffusion.Denoiser.__dict__["load"], classmethod)
        result = pipeline.load_corpus(tmp_path / "manifest.jsonl")
    assert len(result.records) == 3
    assert instrumentation.missing == {"signal.no_such_function", "no_such_module.fn",
                                       "diffusion.Denoiser.no_such_method"}
    assert (pipeline.load_corpus, corpus.read_wav, signal.read_wav,
            diffusion.Denoiser.__dict__["load"]) == originals
    summary = tracer.summary()
    assert {n: s["calls"] for n, s in summary.items()} == {
        "corpus.load_corpus": 1, "signal.read_wav": 3, "melody_codec.parse_tokens": 3}
    assert all(s.parent == 0 for s in tracer.spans[1:])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_matches_schemas(workload, trace, tmp_path):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    jsonschema.validate(line, schema.RESULT_LINE)
    assert line["correct"] and line["failed"] == 0, proc.stderr
    expected = ([(n, u) for n, u in END_TO_END] if trace == 0
                else [(n, u) for n, u, _ in per_layer_spec()])
    assert [(n, m["unit"]) for n, m in line["metrics"].items()] == expected
    results = json.loads((tmp_path / f"{workload}-seed3-trace{trace}.json").read_text())
    jsonschema.validate(results, schema.RESULTS_FILE)
    assert results["result"] == line
    assert not list(tmp_path.glob("work-*")), "the pipeline working directory is left behind"


def test_traced_call_counts_repeat_for_a_seed(tmp_path):
    counts = []
    for _ in range(2):
        proc = run_bench("--workload", "generate", "--seed", "5", "--seconds", "1",
                         "--trace", "1", "--size", "tiny", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({n: m["value"] for n, m in metrics.items() if m["unit"] in ("count", "bytes")})
    assert counts[0] == counts[1]
    assert counts[0]["pipeline.run_generate.calls"] == 2


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "train", "--seed", "0", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

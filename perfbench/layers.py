"""The traced layers, the per-layer metrics derived from their spans, and the
end-to-end metric each layer should move.

Workload shorthand in ``MOVES``: ``@train``, ``@generate``, ``@evaluate``.
``op_p50_ms@train`` is the training-chain time (``train_s`` in the results
file), ``op_p50_ms``/``ops_per_s`` ``@generate`` are the per-prompt latency
and throughput, and ``op_p50_ms@evaluate`` is one standard + ablation
evaluation (``evaluate_s``). Set-up is never traced, so a layer that only
runs while setting up (training, on ``generate`` and ``evaluate``) moves
``setup_s`` there and reads zero calls; so does any layer a workload never
reaches, with zero self time.
"""

from __future__ import annotations

import os

import numpy as np

STAGES = (
    "pipeline.run_train_clmp",
    "pipeline.run_build_index",
    "pipeline.run_train_latent",
    "pipeline.run_train_diffusion",
    "pipeline.run_generate",
    "pipeline.run_evaluate",
)

FUNCTIONS = (
    "smallnet.Optimizer.step",
    "smallnet.DenseNet.backward_cached",
    "signal.mel_spectrogram",
    "signal.mel_filterbank",
    "signal.read_wav",
    "corpus.load_corpus",
    "melody_codec.parse_tokens",
    "diffusion.Denoiser.predict",
    "diffusion.sample_ddim",
    "smallnet.load_checkpoint",
    "melody_vdb.restore",
    "diffusion.Denoiser.load",
    "signal.mel_to_waveform",
    "latentcodec.decode_latent",
    "melody_vdb.HnswIndex.insert",
    "melody_vdb.HnswIndex.search",
    "clmp.train_clmp",
    "clmp.encode",
    "latentcodec.train_latentcodec",
    "latentcodec.encode_mel",
    "diffusion.training_step",
    "metrics.train_probe",
    "metrics.frechet",
)

_TRAINING = ("op_p50_ms@train and setup_s@generate,evaluate; no change to op_p50_ms@generate")
_ADAM = _TRAINING + "; op_p50_ms@evaluate only through metrics.train_probe"
_FEATURIZE = "op_p50_ms@train and op_p50_ms@evaluate"
_LOAD = "op_p50_ms@generate (checkpoint decode on every call); op_p50_ms@evaluate"

MOVES = {
    "pipeline.run_train_clmp": "op_p50_ms@train",
    "pipeline.run_build_index": "op_p50_ms@train",
    "pipeline.run_train_latent": "op_p50_ms@train",
    "pipeline.run_train_diffusion": "op_p50_ms@train",
    "pipeline.run_generate": "op_p50_ms, ops_per_s@generate",
    "pipeline.run_evaluate": "op_p50_ms@evaluate",
    "smallnet.Optimizer.step": _ADAM,
    "smallnet.DenseNet.backward_cached": _ADAM,
    "signal.mel_spectrogram": _FEATURIZE,
    "signal.mel_filterbank": _FEATURIZE + "; through the vocoder also op_p50_ms@generate",
    "signal.read_wav": _FEATURIZE,
    "corpus.load_corpus": _FEATURIZE,
    "melody_codec.parse_tokens": _FEATURIZE,
    "diffusion.Denoiser.predict": "b1_ms: op_p50_ms, ops_per_s@generate; b64_ms: op_p50_ms@evaluate",
    "diffusion.sample_ddim": "op_p50_ms@generate and op_p50_ms@evaluate",
    "smallnet.load_checkpoint": _LOAD,
    "melody_vdb.restore": _LOAD + "; op_p50_ms@train",
    "diffusion.Denoiser.load": _LOAD,
    "signal.mel_to_waveform": "op_p50_ms@generate",
    "latentcodec.decode_latent": "op_p50_ms@generate and op_p50_ms@evaluate",
    "melody_vdb.HnswIndex.insert": "op_p50_ms@train",
    "melody_vdb.HnswIndex.search": "op_p50_ms@train and op_p50_ms@generate",
    "melody_vdb.top1_agreement": "diffusion_loss (and fad_like in the evaluate results file)",
    "melody_vdb.exact_search": "diffusion_loss (and fad_like): exact search would replace HNSW",
    "clmp.train_clmp": _TRAINING,
    "clmp.encode": "op_p50_ms@train",
    "latentcodec.train_latentcodec": _TRAINING,
    "latentcodec.encode_mel": "op_p50_ms@train",
    "diffusion.training_step": _TRAINING,
    "metrics.train_probe": "op_p50_ms@evaluate",
    "metrics.frechet": "op_p50_ms@evaluate",
    "bench.tracing_overhead_pct": "none: the cost of tracing itself",
}

LOWER, HIGHER = "lower", "higher"


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for stage in STAGES:
        spec += [(f"{stage}.calls", "count", LOWER), (f"{stage}.s", "s", LOWER),
                 (f"{stage}.self_s", "s", LOWER)]
    for fn in FUNCTIONS:
        spec += [(f"{fn}.calls", "count", LOWER), (f"{fn}.self_s", "s", LOWER)]
        if fn == "diffusion.Denoiser.predict":
            spec += [(f"{fn}.rows", "count", LOWER), (f"{fn}.b1_ms", "ms", LOWER),
                     (f"{fn}.b64_ms", "ms", LOWER)]
        elif fn == "smallnet.load_checkpoint":
            spec.append((f"{fn}.bytes", "bytes", LOWER))
        elif fn == "clmp.train_clmp":
            spec.append((f"{fn}.epoch_ms", "ms", LOWER))
    spec += [
        ("melody_vdb.top1_agreement", "ratio", HIGHER),
        ("melody_vdb.top1_agreement.queries", "count", HIGHER),
        ("melody_vdb.exact_search.calls", "count", LOWER),
        ("melody_vdb.exact_search.self_s", "s", LOWER),
        ("bench.tracing_overhead_pct", "%", LOWER),
    ]
    return spec


class LayerProbe:
    """Trace hooks that attach per-call attributes, and the metrics built from them."""

    def __init__(self):
        self.searches: list[tuple[object, np.ndarray, int]] = []

    def targets(self) -> dict:
        hooks = {
            "diffusion.Denoiser.predict": self._rows,
            "smallnet.load_checkpoint": self._bytes,
            "melody_vdb.HnswIndex.search": self._search,
            "clmp.train_clmp": self._epochs,
        }
        return {name: hooks.get(name) for name in STAGES + FUNCTIONS}

    @staticmethod
    def _rows(span, args, kwargs, result):
        span.attrs["rows"] = 1 if np.ndim(result) == 1 else int(np.shape(result)[0])

    @staticmethod
    def _bytes(span, args, kwargs, result):
        span.attrs["bytes"] = os.path.getsize(args[0] if args else kwargs["path"])

    @staticmethod
    def _epochs(span, args, kwargs, result):
        span.attrs["epochs"] = (args[2] if len(args) > 2 else kwargs["config"]).epochs

    def _search(self, span, args, kwargs, result):
        index, query = args[0], args[1] if len(args) > 1 else kwargs["query"]
        if result.hits:
            self.searches.append((index, np.array(query, dtype=np.float64), result.hits[0][0]))

    def exact_search_pass(self, tracer) -> tuple[int, int]:
        """Re-run every recorded HNSW query through ``brute_knn`` under the
        span ``melody_vdb.exact_search``; returns (top-1 matches, queries)."""
        if not self.searches:
            return 0, 0
        from melodygen import melody_vdb

        vectors: dict[int, dict] = {}
        matches = 0
        for index, query, top1 in self.searches:
            base = vectors.setdefault(id(index), index.vectors())
            with tracer.span("melody_vdb.exact_search"):
                exact = melody_vdb.brute_knn(base, query, 1)
            matches += int(exact.hits[0][0] == top1)
        return matches, len(self.searches)

    def metrics(self, tracer, overhead_pct: float) -> dict[str, float]:
        matches, queries = self.exact_search_pass(tracer)
        summary = tracer.summary()
        empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        out: dict[str, float] = {}
        for stage in STAGES:
            row = summary.get(stage, empty)
            out[f"{stage}.calls"] = row["calls"]
            out[f"{stage}.s"] = row["total_s"]
            out[f"{stage}.self_s"] = row["self_s"]
        for fn in FUNCTIONS + ("melody_vdb.exact_search",):
            row = summary.get(fn, empty)
            out[f"{fn}.calls"] = row["calls"]
            out[f"{fn}.self_s"] = row["self_s"]

        spans = tracer.spans
        predict = [s for s in spans if s.name == "diffusion.Denoiser.predict"]
        out["diffusion.Denoiser.predict.rows"] = sum(s.attrs["rows"] for s in predict)
        for rows in (1, 64):
            times = [s.duration for s in predict if s.attrs["rows"] == rows]
            out[f"diffusion.Denoiser.predict.b{rows}_ms"] = 1000 * float(np.mean(times)) if times else 0.0
        out["smallnet.load_checkpoint.bytes"] = sum(
            s.attrs["bytes"] for s in spans if s.name == "smallnet.load_checkpoint")
        clmp_spans = [s for s in spans if s.name == "clmp.train_clmp"]
        epochs = sum(s.attrs["epochs"] for s in clmp_spans)
        out["clmp.train_clmp.epoch_ms"] = (
            1000 * sum(s.duration for s in clmp_spans) / epochs if epochs else 0.0)
        out["melody_vdb.top1_agreement"] = matches / queries if queries else 0.0
        out["melody_vdb.top1_agreement.queries"] = queries
        out["bench.tracing_overhead_pct"] = overhead_pct
        return out

"""The benchmark workloads: ``train``, ``generate`` and ``evaluate``.

All three start from the ROADMAP "small config" (160 records, 20 CLMP
epochs, 300 latent-codec steps, N=200 noise steps, hidden 128, DDIM-100 at
w=3) under the workload seed, and drive only the public
``melodygen.pipeline.run_*`` functions. A workload has:

- ``make_inputs``: builds its inputs from the seed (untimed);
- ``setup``: builds the state its operations need from scratch (timed as
  ``setup_s``, repeated ``setup_repeats`` times);
- ``op``: one timed operation (a training chain, a prompt, an evaluation);
- ``finish``: checks the outputs, records digests, and returns the
  quality figures.

``train``     set-up synthesizes the corpus; one operation is the chain
              train-clmp -> build-index -> train-latent -> train-diffusion,
              with diffusion steps sized to dominate. The write path: Adam,
              backward, STFT/mel and HNSW insert; no sampling, no vocoder.
``generate``  set-up is a short training chain; one operation is one
              ``run_generate`` call (1 client, closed loop, >= 100 unseen
              captions from ``corpus.make_record`` beyond the corpus). Each
              call reloads the stack as a CLI call does. The read path at
              batch 1: checkpoint decode, retrieval, denoiser forwards and
              the oscillator vocoder.
``evaluate``  set-up trains with a 64-record held-out split; one operation
              is ``run_evaluate`` in ``standard`` then ``ablation`` mode
              (5 seeds x melody / zero melody), sampling at DDIM-50.
              The same denoiser forward at batch 64, plus mel featurization
              and ``metrics``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np

from melodygen import pipeline, signal
from melodygen.config import PipelineConfig
from melodygen.corpus import make_record

SMALL = {
    "corpus": {"n_records": 160, "eval_count": 32},
    "clmp": {"epochs": 20, "learning_rate": 1e-3},
    "latent": {"steps": 300, "learning_rate": 1e-3},
    "diffusion": {"n_steps": 200, "hidden": 128, "learning_rate": 1e-3,
                  "ddim_steps": 100, "cfg_w": 3.0},
}

# smoke-test size: every stage runs, in about a second each
TINY = {
    "corpus": {"n_records": 48, "eval_count": 12},
    "signal": {"mel_frames": 32},
    "clmp": {"epochs": 2, "batch_size": 12, "hidden": 32, "learning_rate": 1e-3},
    "latent": {"steps": 20, "batch_size": 64, "learning_rate": 1e-3},
    "diffusion": {"n_steps": 20, "hidden": 16, "batch_size": 16, "learning_rate": 1e-3,
                  "ddim_steps": 5, "cfg_w": 3.0},
}

SIZES = {"full": SMALL, "tiny": TINY}

# diffusion steps of the timed chain (train) and of set-up chains; the
# timed chain's steps make diffusion about 70% of a chain's time while
# keeping chains short enough for several per run
TRAIN_DIFFUSION_STEPS = {"full": 150, "tiny": 10}
SETUP_DIFFUSION_STEPS = {"full": 50, "tiny": 5}
# evaluate samples at DDIM-50 so that a run holds several evaluations
EVALUATE_DDIM_STEPS = {"full": 50, "tiny": 5}


def pipeline_config(seed: int, size: str, overrides: dict) -> PipelineConfig:
    doc = copy.deepcopy(SIZES[size])
    for section, values in overrides.items():
        doc.setdefault(section, {}).update(values)
    doc["seed"] = seed
    return PipelineConfig.from_dict(doc)


def sha256_file(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def diffusion_loss(cfg: PipelineConfig, history: list[float]) -> float:
    """Mean per-latent-dim eps-MSE over the last 10% of diffusion steps."""
    r = cfg.latent.compression
    latent_dim = cfg.latent.channels * (cfg.signal.mel_frames // r) * (cfg.signal.n_mels // r)
    tail = history[-max(1, len(history) // 10):]
    return float(np.mean(tail)) / latent_dim


def train_chain(cfg: PipelineConfig, workdir) -> dict:
    """The four training stages in CLI order; returns their loss histories."""
    clmp_result = pipeline.run_train_clmp(cfg, workdir)
    pipeline.run_build_index(cfg, workdir)
    latent = pipeline.run_train_latent(cfg, workdir)
    diffusion = pipeline.run_train_diffusion(cfg, workdir)
    return {"clmp": clmp_result.loss_curve, "latent": latent, "diffusion": diffusion}


def final_losses(histories: dict) -> dict:
    return {k: (v[-1] if v else None) for k, v in histories.items()}


def _all_finite(value) -> bool:
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_all_finite(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True


class Checks:
    """Output checks; each failed check counts toward the run's ``failed``."""

    def __init__(self):
        self.items: list[dict] = []

    def check(self, name: str, ok, detail="") -> None:
        self.items.append({"name": name, "ok": bool(ok), "detail": str(detail)})

    def finite_losses(self, name: str, histories: dict) -> None:
        for stage, losses in histories.items():
            self.check(f"{name}.{stage}_losses_finite",
                       len(losses) > 0 and _all_finite(list(losses)),
                       f"{len(losses)} values, last {losses[-1] if losses else None}")

    @property
    def failed(self) -> int:
        return sum(not c["ok"] for c in self.items)


class Workload:
    name = ""
    min_ops = 1  # timed operations a run makes at least
    setup_repeats = 2

    def __init__(self, seed: int, size: str, workdir: Path, checks: Checks):
        self.seed = seed
        self.workdir = Path(workdir)
        self.checks = checks
        self.cfg = pipeline_config(seed, size, self.overrides(size))
        self.setup_histories: dict = {}

    def overrides(self, size: str) -> dict:
        """Changes to the size's base config, for set-up and operations alike."""
        return {"diffusion": {"train_steps": SETUP_DIFFUSION_STEPS[size]}}

    @property
    def trace_ops(self) -> int:
        """Operations of a traced run: alternately untraced and traced."""
        return max(4, self.min_ops + self.min_ops % 2)

    def make_inputs(self) -> None:
        pass

    def _fresh_workdir(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)

    def setup(self) -> None:
        """Synthesize the corpus and run a training chain."""
        self._fresh_workdir()
        pipeline.run_synth_data(self.cfg, self.workdir)
        self.setup_histories = train_chain(self.cfg, self.workdir)

    def op(self, i: int) -> None:
        raise NotImplementedError

    def finish(self) -> dict:
        """Check outputs; returns {"diffusion_loss", "workload_metrics", "digests"}."""
        raise NotImplementedError

    def _setup_quality(self) -> dict:
        self.checks.finite_losses("setup", self.setup_histories)
        return {
            "diffusion_loss": diffusion_loss(self.cfg, self.setup_histories["diffusion"]),
            "digests": {"setup_final_losses": final_losses(self.setup_histories)},
        }


class Train(Workload):
    name = "train"
    setup_repeats = 5  # corpus synthesis takes half a second: median of more

    def __init__(self, seed, size, workdir, checks):
        super().__init__(seed, size, workdir, checks)
        self.chains: list[dict] = []

    def overrides(self, size: str) -> dict:
        return {"diffusion": {"train_steps": TRAIN_DIFFUSION_STEPS[size]}}

    def setup(self) -> None:
        self._fresh_workdir()
        pipeline.run_synth_data(self.cfg, self.workdir)

    def op(self, i: int) -> None:
        self.chains.append(train_chain(self.cfg, self.workdir))

    def finish(self) -> dict:
        for i, chain in enumerate(self.chains):
            self.checks.finite_losses(f"chain{i}", chain)
        finals = [final_losses(c) for c in self.chains]
        self.checks.check("chains_deterministic", all(f == finals[0] for f in finals),
                          f"{len(finals)} chains")
        last = self.chains[-1]
        art = pipeline.Artifacts(self.workdir)
        loss = diffusion_loss(self.cfg, last["diffusion"])
        return {
            "diffusion_loss": loss,
            "workload_metrics": {"diffusion_loss": loss},
            "digests": {
                "final_losses": finals[-1],
                "artifact_sha256": {p.name: sha256_file(p) for p in (
                    art.clmp_path, art.index_path, art.latent_path, art.diffusion_path)},
            },
        }


class Generate(Workload):
    name = "generate"
    prompt_pool = 128

    def __init__(self, seed, size, workdir, checks):
        self.min_ops = 100 if size == "full" else 4
        super().__init__(seed, size, workdir, checks)
        self.prompts: list[str] = []
        self.wavs: list[str] = []

    def make_inputs(self) -> None:
        """Captions of records beyond the corpus: unseen in training."""
        n, s = self.cfg.corpus.n_records, self.cfg.signal
        self.prompts = [make_record(n + i, self.seed, s.sample_rate, s.clip_samples)[0].text
                        for i in range(self.prompt_pool)]

    def op(self, i: int) -> None:
        prompt = self.prompts[i % len(self.prompts)]
        result = pipeline.run_generate(self.cfg, self.workdir, prompt, tag=f"p{i:04d}")
        self.wavs.append(result.wav_path)

    def finish(self) -> dict:
        out = self._setup_quality()
        clip = self.cfg.signal.clip_samples
        hashes = []
        for path in self.wavs:
            wave = signal.read_wav(path)
            self.checks.check(f"wav_length.{Path(path).stem}", len(wave.samples) == clip,
                              f"{len(wave.samples)} samples, want {clip}")
            hashes.append(sha256_file(path))
        repeat = pipeline.run_generate(self.cfg, self.workdir, self.prompts[0], tag="repeat")
        repeat_hash = sha256_file(repeat.wav_path)
        self.checks.check("first_prompt_repeatable", hashes and repeat_hash == hashes[0],
                          f"repeat {repeat_hash[:12]}")
        first = hashes[:self.min_ops]
        out["digests"].update({
            "first_wav_sha256": hashes[0] if hashes else None,
            "first_n_wavs_sha256": hashlib.sha256("".join(first).encode()).hexdigest(),
            "first_n": len(first),
        })
        out["workload_metrics"] = {}
        return out


class Evaluate(Workload):
    name = "evaluate"

    def __init__(self, seed, size, workdir, checks):
        super().__init__(seed, size, workdir, checks)
        self.reports: list[dict] = []

    def overrides(self, size: str) -> dict:
        held_out = 64 if size == "full" else TINY["corpus"]["eval_count"]
        return {"corpus": {"eval_count": held_out},
                "diffusion": {"train_steps": SETUP_DIFFUSION_STEPS[size],
                              "ddim_steps": EVALUATE_DDIM_STEPS[size]}}

    def op(self, i: int) -> None:
        standard = pipeline.run_evaluate(self.cfg, self.workdir, "standard")
        ablation = pipeline.run_evaluate(self.cfg, self.workdir, "ablation")
        self.reports.append({"standard": standard, "ablation": ablation})

    def finish(self) -> dict:
        out = self._setup_quality()
        for i, report in enumerate(self.reports):
            self.checks.check(f"report{i}_finite", _all_finite(report))
        digests = [hashlib.sha256(json.dumps(r, sort_keys=True).encode()).hexdigest()
                   for r in self.reports]
        self.checks.check("reports_deterministic", len(set(digests)) == 1,
                          f"{len(digests)} reports")
        last = self.reports[-1]
        out["digests"].update({
            "report_sha256": digests[-1],
            "fad_like": last["standard"]["fad_like"],
            "median_fad_with_melody": last["ablation"]["median_fad_with_melody"],
            "median_fad_zero_melody": last["ablation"]["median_fad_zero_melody"],
        })
        out["workload_metrics"] = {"fad_like": last["standard"]["fad_like"]}
        return out


WORKLOADS = {w.name: w for w in (Train, Generate, Evaluate)}

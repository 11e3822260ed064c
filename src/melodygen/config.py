"""Pipeline configuration: one human-editable JSON file, every field validated.

The file mirrors the dataclass sections below, e.g.::

    {
      "seed": 0,
      "corpus": {"n_records": 256, "eval_count": 64},
      "clmp": {"epochs": 30, "learning_rate": 0.001}
    }

Unknown sections or keys are rejected (they are almost always typos), and
every violated constraint names the offending field. Defaults follow the
reference settings (contrastive batch 48 at lr 1e-5; diffusion lr 1e-4,
denoising steps 100, guidance weight 3, compression level 4); desk-scale
runs usually shrink the record counts and raise the learning rates.

This module is the single home of every hyperparameter and its default: the
model constructors, the trainers and the mel analysis take their section of
``PipelineConfig`` and restate no value of it.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

from .errors import ValidationError


@dataclass
class CorpusConfig:
    n_records: int = 256
    eval_count: int = 64


@dataclass
class SignalConfig:
    sample_rate: int = 16000
    n_fft: int = 1024
    hop: int = 256
    n_mels: int = 64
    mel_frames: int = 128

    @property
    def clip_samples(self) -> int:
        """Waveform length that yields exactly mel_frames STFT frames."""
        return self.n_fft + self.hop * (self.mel_frames - 1)


@dataclass
class ClmpConfig:
    embed_dim: int = 64
    hidden: int = 128
    token_embed_dim: int = 32
    batch_size: int = 48
    learning_rate: float = 1e-5
    epochs: int = 90


@dataclass
class LatentConfig:
    compression: int = 4
    channels: int = 8
    hidden: int = 32
    kl_weight: float = 1e-3
    learning_rate: float = 1e-4
    steps: int = 2000
    batch_size: int = 256


@dataclass
class DiffusionConfig:
    n_steps: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 0.02
    learning_rate: float = 1e-4
    batch_size: int = 96
    train_steps: int = 60000
    hidden: int = 256
    time_embed_dim: int = 64
    cond_dim: int = 64
    ddim_steps: int = 100
    cfg_w: float = 3.0
    uncond_prob: float = 0.1
    phase_split: float = 0.5


@dataclass
class PipelineConfig:
    seed: int = 0
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    signal: SignalConfig = field(default_factory=SignalConfig)
    clmp: ClmpConfig = field(default_factory=ClmpConfig)
    latent: LatentConfig = field(default_factory=LatentConfig)
    diffusion: DiffusionConfig = field(default_factory=DiffusionConfig)

    def validate(self) -> "PipelineConfig":
        def check(cond: bool, name: str, msg: str):
            if not cond:
                raise ValidationError(f"{name}: {msg}")

        c, s, m, l, d = self.corpus, self.signal, self.clmp, self.latent, self.diffusion
        check(self.seed >= 0, "seed", "must be >= 0")
        check(c.n_records >= 1, "corpus.n_records", "must be >= 1")
        check(0 <= c.eval_count < c.n_records, "corpus.eval_count",
              "must be >= 0 and < n_records")
        check(s.sample_rate > 0, "signal.sample_rate", "must be > 0")
        check(s.n_fft > 0 and s.n_fft % 2 == 0, "signal.n_fft", "must be positive and even")
        check(s.hop > 0, "signal.hop", "must be > 0")
        check(s.n_mels >= 1, "signal.n_mels", "must be >= 1")
        check(s.mel_frames >= 1, "signal.mel_frames", "must be >= 1")
        check(l.compression >= 1, "latent.compression", "must be >= 1")
        check(s.mel_frames % l.compression == 0, "signal.mel_frames",
              f"must be divisible by latent.compression={l.compression}")
        check(s.n_mels % l.compression == 0, "signal.n_mels",
              f"must be divisible by latent.compression={l.compression}")
        check(m.embed_dim >= 2, "clmp.embed_dim", "must be >= 2")
        check(m.hidden >= 1, "clmp.hidden", "must be >= 1")
        check(m.token_embed_dim >= 1, "clmp.token_embed_dim", "must be >= 1")
        check(m.batch_size >= 2, "clmp.batch_size", "must be >= 2")
        check(m.learning_rate >= 0, "clmp.learning_rate", "must be >= 0")
        check(m.epochs >= 0, "clmp.epochs", "must be >= 0")
        check(l.channels >= 1, "latent.channels", "must be >= 1")
        check(l.hidden >= 1, "latent.hidden", "must be >= 1")
        check(l.kl_weight >= 0, "latent.kl_weight", "must be >= 0")
        check(l.learning_rate >= 0, "latent.learning_rate", "must be >= 0")
        check(l.steps >= 1, "latent.steps", "must be >= 1")
        check(l.batch_size >= 1, "latent.batch_size", "must be >= 1")
        check(d.n_steps >= 1, "diffusion.n_steps", "must be >= 1")
        check(0 < d.beta_start <= d.beta_end < 1, "diffusion.beta_start",
              "need 0 < beta_start <= beta_end < 1")
        check(d.learning_rate >= 0, "diffusion.learning_rate", "must be >= 0")
        check(d.batch_size >= 1, "diffusion.batch_size", "must be >= 1")
        check(d.train_steps >= 1, "diffusion.train_steps", "must be >= 1")
        check(d.hidden >= 1, "diffusion.hidden", "must be >= 1")
        check(d.time_embed_dim > 0 and d.time_embed_dim % 2 == 0, "diffusion.time_embed_dim",
              "must be positive and even")
        check(d.cond_dim >= 1, "diffusion.cond_dim", "must be >= 1")
        check(1 <= d.ddim_steps <= d.n_steps, "diffusion.ddim_steps",
              "must be in 1..n_steps")
        check(d.cfg_w >= 0, "diffusion.cfg_w", "must be >= 0")
        check(0 <= d.uncond_prob <= 1, "diffusion.uncond_prob", "must be in [0, 1]")
        check(0 <= d.phase_split <= 1, "diffusion.phase_split", "must be in [0, 1]")
        return self

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        sections = {f.name: f for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, value in doc.items():
            if key not in sections:
                raise ValidationError(f"unknown config section {key!r}")
            f = sections[key]
            if f.name == "seed":
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ValidationError(f"seed: must be an integer, got {value!r}")
                kwargs["seed"] = value
                continue
            section_cls = f.default_factory  # the section dataclass
            if not isinstance(value, dict):
                raise ValidationError(f"{key}: must be an object")
            defaults = section_cls()
            coerced = {}
            for k, v in value.items():
                if not hasattr(defaults, k):
                    raise ValidationError(f"unknown config key {key}.{k!r}")
                if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
                    raise ValidationError(f"{key}.{k}: must be a finite number, got {v!r}")
                if isinstance(getattr(defaults, k), int):
                    if v != int(v):
                        raise ValidationError(f"{key}.{k}: must be an integer, got {v!r}")
                    coerced[k] = int(v)
                else:
                    coerced[k] = float(v)
            kwargs[key] = section_cls(**coerced)
        return cls(**kwargs).validate()

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        try:
            with open(path, "r", encoding="utf-8") as f:
                doc = json.load(f)
        except FileNotFoundError:
            raise ValidationError(f"config file not found: {path}") from None
        except json.JSONDecodeError as e:
            raise ValidationError(f"config is not valid JSON: {e}") from None
        if not isinstance(doc, dict):
            raise ValidationError("config root must be a JSON object")
        return cls.from_dict(doc)

"""End-to-end orchestration: corpus -> alignment -> index -> codec ->
diffusion -> generation -> evaluation.

All stages read and write artifacts under a single working directory:

    workdir/
      corpus/manifest.jsonl, corpus/wav/*.wav
      clmp.ckpt            alignment model checkpoint
      melody.ckpt          melody database: one (n, embed_dim) array of unit
                           melody embeddings, the record ids in its meta
      latentcodec.ckpt     mel <-> latent codec checkpoint
      diffusion.ckpt       denoiser + condition fusion checkpoint, with the
                           sampler's exact float64 constants (``Denoiser.save``)
      features.ckpt        the exact float64 mel grid of every corpus record,
                           rebuilt whenever it no longer matches the corpus
                           (``corpus_mels``)
      generated/           per generation <tag>.wav, plus <tag>.mel.ckpt
                           and <tag>.latent.ckpt (checkpoint files holding
                           one array each)

Checkpoints (``*.ckpt``) use the binary format of ``smallnet.save_checkpoint``.

Splits are positional: the last ``corpus.eval_count`` records are held out of
every training stage and drive evaluation.

``generate`` and ``evaluate`` load the trained stack once per call as a
``GenerationStack`` and make every clip through it: caption -> condition
(text embedding, retrieved or given melody, fusion) -> latent -> mel grid.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import clmp, diffusion, latentcodec, metrics, signal, smallnet
from .config import PipelineConfig
from .corpus import CorpusRecord, generate_corpus, load_corpus
from .errors import FormatError, MissingArtifactError, ValidationError


class Artifacts:
    """Paths of the artifacts under one working directory."""

    def __init__(self, root):
        self.root = Path(root)
        self.corpus_dir = self.root / "corpus"
        self.manifest = self.corpus_dir / "manifest.jsonl"
        self.clmp_path = self.root / "clmp.ckpt"
        self.index_path = self.root / "melody.ckpt"
        self.latent_path = self.root / "latentcodec.ckpt"
        self.diffusion_path = self.root / "diffusion.ckpt"
        self.features_path = self.root / "features.ckpt"
        self.generated_dir = self.root / "generated"

    def require(self, *paths: Path) -> None:
        for p in paths:
            if not p.exists():
                raise MissingArtifactError(
                    f"missing artifact {p.name} (expected at {p}); run the earlier "
                    "pipeline stages first"
                )


@dataclass
class GenerationResult:
    prompt: str
    retrieved_melody_id: str | None
    latent_path: str
    mel_path: str
    wav_path: str
    sampler: dict


# --- corpus and features -----------------------------------------------------


def run_synth_data(cfg: PipelineConfig, workdir) -> list[CorpusRecord]:
    art = Artifacts(workdir)
    return generate_corpus(cfg.corpus.n_records, cfg.seed, art.corpus_dir,
                           cfg.signal.sample_rate, cfg.signal.clip_samples)


def _load_records(art: Artifacts) -> list[CorpusRecord]:
    art.require(art.manifest)
    result = load_corpus(art.manifest)
    if result.errors:
        bad = ", ".join(f"{e.record_id}: {e.message}" for e in result.errors[:3])
        raise ValidationError(f"corpus has invalid records ({bad})")
    return result.records


def record_mel(cfg: PipelineConfig, art: Artifacts, record: CorpusRecord) -> np.ndarray:
    """The (T, F) mel grid of ``record``'s WAV under ``cfg.signal``; a WAV
    synthesized under other signal settings is refused."""
    path = art.corpus_dir / record.wav_path
    try:
        mel = signal.mel_spectrogram(signal.read_wav(path), cfg.signal)
        if len(mel) != cfg.signal.mel_frames:
            raise ValidationError(f"it gives {len(mel)} mel frames, but "
                                  f"signal.mel_frames is {cfg.signal.mel_frames}")
    except ValidationError as e:
        raise ValidationError(f"corpus record {path}: {e}; rerun synth-data with this "
                              "config") from None
    return mel


def corpus_mels(cfg: PipelineConfig, art: Artifacts,
                records: list[CorpusRecord]) -> np.ndarray:
    """The (n, T, F) float64 mel grids (dB) of the corpus records, in order.

    Read from features.ckpt when it was built from these record ids and WAV
    digests under ``cfg.signal`` and holds one finite grid of the configured
    shape per record. Otherwise the grids are computed (``record_mel``) and
    features.ckpt is written. The file is a pure function of the WAVs, so a
    mismatch rebuilds it and never refuses.
    """
    s = cfg.signal
    built_from = {"ids": [r.id for r in records],
                  "wav_sha256": [r.wav_sha256 for r in records],
                  "signal": dataclasses.asdict(s)}
    shape = (len(records), s.mel_frames, s.n_mels)
    values = _stored_mels(art.features_path, built_from, shape)
    if values is None:
        values = np.empty(shape)
        for row, r in zip(values, records):
            row[...] = record_mel(cfg, art, r)
        smallnet.save_checkpoint(art.features_path, {"mels": values}, built_from,
                                 exact=("mels",))
    return values


def _stored_mels(path: Path, built_from: dict, shape: tuple[int, ...]) -> np.ndarray | None:
    """The grids of the features file at ``path`` if it was built from
    ``built_from`` and holds finite grids of ``shape``, else None. A stale
    file's grids are freed on return, before the caller computes the new ones."""
    if not path.exists():
        return None
    try:
        arrays, meta = smallnet.load_checkpoint(path)
    except (FormatError, ValidationError):
        return None
    mels = arrays.get("mels")
    current = (meta == built_from and mels is not None and mels.shape == shape
               and np.isfinite(mels).all())
    return mels if current else None


def _triples(records: list[CorpusRecord], mels: np.ndarray) -> list[clmp.Triple]:
    return [clmp.Triple(id=r.id, text=r.text, melody=r.melody, mel=m)
            for r, m in zip(records, mels)]


def _split(cfg: PipelineConfig, items: list):
    n_eval = cfg.corpus.eval_count
    if n_eval == 0:
        return items, []
    return items[:-n_eval], items[-n_eval:]


# --- training stages ----------------------------------------------------------


def run_train_clmp(cfg: PipelineConfig, workdir) -> clmp.TrainResult:
    art = Artifacts(workdir)
    records = _load_records(art)
    train_records, _ = _split(cfg, records)
    triples = _triples(train_records, _split(cfg, corpus_mels(cfg, art, records))[0])
    model = clmp.ClmpModel.create(cfg.clmp, 2 * cfg.signal.n_mels, cfg.seed)
    result = clmp.train_clmp(model, triples, cfg.clmp, cfg.seed)
    model.save(art.clmp_path)
    return result


def _load_clmp(art: Artifacts) -> clmp.ClmpModel:
    art.require(art.clmp_path)
    return clmp.ClmpModel.load(art.clmp_path)


def run_build_index(cfg: PipelineConfig, workdir) -> int:
    """Embed every training melody into the melody database; returns its size.

    The database is one checkpoint array ``melodies`` of shape (n, embed_dim),
    row i the unit embedding of the i-th training record, whose id is
    ``meta["ids"][i]``. Search over it is exact (``retrieve``).
    """
    art = Artifacts(workdir)
    records = _load_records(art)
    train_records, _ = _split(cfg, records)
    model = _load_clmp(art)
    melodies = clmp.embed(model, "melody", [r.melody for r in train_records])
    smallnet.save_checkpoint(art.index_path, {"melodies": melodies},
                             {"ids": [r.id for r in train_records]})
    return len(melodies)


def _load_index(cfg: PipelineConfig, art: Artifacts) -> tuple[np.ndarray, list[str]]:
    """(melodies, ids) of the melody database, checked against each other and
    against ``clmp.embed_dim``."""
    art.require(art.index_path)
    arrays, meta = smallnet.load_checkpoint(art.index_path)
    name = art.index_path.name
    melodies, ids = arrays.get("melodies"), meta.get("ids")
    if melodies is None or melodies.ndim != 2 or not isinstance(ids, list):
        raise ValidationError(f"{name} holds no 2-D 'melodies' array with an 'ids' list; "
                              "rerun build-index")
    if len(melodies) != len(ids):
        raise ValidationError(f"{name} has {len(melodies)} melody rows but {len(ids)} ids; "
                              "rerun build-index")
    if melodies.shape[1] != cfg.clmp.embed_dim:
        raise ValidationError(f"{name} melodies have width {melodies.shape[1]}, but "
                              f"clmp.embed_dim is {cfg.clmp.embed_dim}; rerun build-index")
    return melodies, ids


def retrieve(melodies: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Exact top-1 melody row per query row by cosine (rows are unit-norm).
    On ties the first, lowest row wins."""
    return np.argmax(queries @ melodies.T, axis=1)


def run_train_latent(cfg: PipelineConfig, workdir) -> list[float]:
    art = Artifacts(workdir)
    records = _load_records(art)
    mels = _split(cfg, corpus_mels(cfg, art, records))[0]
    model = latentcodec.LatentCodecModel.create(cfg.latent, cfg.signal, cfg.seed)
    history = latentcodec.train_latentcodec(model, mels, cfg.latent, cfg.seed)
    model.save(art.latent_path)
    return history


def _latent_shape(cfg: PipelineConfig) -> tuple[int, int, int]:
    r = cfg.latent.compression
    return cfg.latent.channels, cfg.signal.mel_frames // r, cfg.signal.n_mels // r


# the dtype train-diffusion trains the denoiser in
DENOISER_TRAIN_DTYPE = np.float32


def run_train_diffusion(cfg: PipelineConfig, workdir) -> list[float]:
    """Train the conditional denoiser on corpus latents.

    Conditioning follows the two-phase recipe: for the first
    ``phase_split`` fraction of steps the query embedding is the record's
    waveform embedding, afterwards its text embedding; in both phases the
    melody half of the condition is the top-1 database hit for that query.
    Retrievals are precomputed (queries are fixed per record), and condition
    dropout trains the null vector for guidance.

    The denoiser trains in float32: its initial weights are rounded to
    float32 once, and its forward, backward and Adam update run in float32,
    so diffusion.ckpt stores the trained weights exactly. The draws, the
    loss, the fusion map and its update stay float64, and sampling from the
    saved checkpoint runs in float64.
    """
    art = Artifacts(workdir)
    records = _load_records(art)
    train_records, _ = _split(cfg, records)
    model = _load_clmp(art)
    melodies, _ = _load_index(cfg, art)
    art.require(art.latent_path)
    codec = latentcodec.LatentCodecModel.load(art.latent_path)

    mels = _split(cfg, corpus_mels(cfg, art, records))[0]
    text_emb = clmp.embed(model, "text", [r.text for r in train_records])
    wave_emb = clmp.embed(model, "waveform", mels)
    x0 = np.stack([latentcodec.encode_mel(codec, m).ravel() for m in mels])
    del mels  # the step loop reads x0 and the embeddings only
    r_wave = melodies[retrieve(melodies, wave_emb)]
    r_text = melodies[retrieve(melodies, text_emb)]

    d = cfg.diffusion
    latent_dim = x0.shape[1]
    sched = diffusion.make_schedule(d.n_steps, d.beta_start, d.beta_end)
    denoiser = diffusion.Denoiser.create(latent_dim, d, cfg.seed)
    # rounded as the checkpoint rounds, so the stored weights are never
    # rounded twice
    denoiser.net = denoiser.net.astype(DENOISER_TRAIN_DTYPE)
    fusion = diffusion.ConditionFusion.create(cfg.clmp.embed_dim, d.cond_dim, cfg.seed)
    opt = smallnet.Optimizer({**denoiser.named_parameters(), **fusion.named_parameters()},
                             d.learning_rate)
    rng = smallnet.spawn_rng(cfg.seed, 1001)
    batch = min(d.batch_size, len(x0))

    def draw():
        # one step's draws, in the order of the one stream: batch rows, steps,
        # noise, condition dropout
        idx = rng.integers(0, len(x0), size=batch)
        steps = rng.integers(1, sched.N + 1, size=batch)
        noise = rng.standard_normal((batch, latent_dim))
        return idx, steps, noise, rng.random(batch) < d.uncond_prob

    phase_boundary = int(d.phase_split * d.train_steps)
    history = []
    # a worker draws step k+1 while step k computes (the normal fill releases
    # the GIL); k+1 is submitted only after k's draws are in hand and only the
    # worker reads the stream, so it is consumed in the same order. The draws
    # take 5.3 of a serial step's 19.3 ms at the small config (2 vCPUs); drawing
    # serially made 150 steps 1.4x slower, in 10 of 10 in-process rounds
    with ThreadPoolExecutor(max_workers=1) as drawer:
        pending = drawer.submit(draw)
        for step_i in range(d.train_steps):
            idx, steps, noise, uncond = pending.result()
            if step_i + 1 < d.train_steps:
                pending = drawer.submit(draw)
            if step_i < phase_boundary:
                queries, hits = wave_emb[idx], r_wave[idx]
            else:
                queries, hits = text_emb[idx], r_text[idx]
            result = diffusion.training_step(
                denoiser, sched, x0[idx], fusion.forward(queries, hits), fusion.null_condition,
                steps=steps, noise=noise, uncond=uncond,
            )
            fusion_grads = fusion.backward(queries, hits, result.d_conditions) + [result.d_null]
            opt.step(result.denoiser_grads + fusion_grads)
            history.append(result.loss)
            # so step k's gradients are freed before step k+1 makes its own
            del result, fusion_grads

    c, th, fw = _latent_shape(cfg)
    denoiser.save(art.diffusion_path, fusion=fusion, extra_meta={
        "latent_channels": c, "latent_t": th, "latent_f": fw,
        "n_steps": d.n_steps, "beta_start": d.beta_start, "beta_end": d.beta_end,
        "embed_dim": cfg.clmp.embed_dim,
    })
    return history


# --- generation ----------------------------------------------------------------


@dataclass
class GenerationStack:
    """The trained stack every generation reads, loaded once per stage call:
    the CLMP model, the melody database (``melodies`` rows of record ``ids``),
    the codec, the denoiser and its fusion map, their noise schedule and the
    (channels, T/r, F/r) latent ``shape``. ``generate`` and every ``evaluate``
    mode turn captions into clips one way: ``conditions`` -> ``sample`` ->
    ``decode``."""

    clmp: clmp.ClmpModel
    melodies: np.ndarray
    ids: list[str]
    codec: latentcodec.LatentCodecModel
    denoiser: diffusion.Denoiser
    fusion: diffusion.ConditionFusion
    sched: diffusion.NoiseSchedule
    shape: tuple[int, int, int]

    @classmethod
    def load(cls, cfg: PipelineConfig, art: Artifacts) -> "GenerationStack":
        model = _load_clmp(art)
        melodies, ids = _load_index(cfg, art)
        art.require(art.latent_path, art.diffusion_path)
        codec = latentcodec.LatentCodecModel.load(art.latent_path)
        denoiser, fusion, extra = diffusion.Denoiser.load(art.diffusion_path)
        if fusion.embed_dim != melodies.shape[1]:
            raise ValidationError(f"{art.diffusion_path.name} fuses {fusion.embed_dim}-wide "
                                  f"embeddings, but {art.index_path.name} holds "
                                  f"{melodies.shape[1]}-wide melodies; rerun train-diffusion")
        with smallnet.checkpoint_keys(art.diffusion_path):
            sched = diffusion.make_schedule(int(extra["n_steps"]), float(extra["beta_start"]),
                                            float(extra["beta_end"]))
            shape = tuple(int(extra[k]) for k in ("latent_channels", "latent_t", "latent_f"))
        return cls(model, melodies, ids, codec, denoiser, fusion, sched, shape)

    def conditions(self, texts: list[str], melody_sets=(None,)):
        """One (len(texts), cond_dim) condition array per entry of
        ``melody_sets``, from the captions ``texts`` embedded once: None fuses
        each caption's top-1 melody (``retrieve``), an array the melody rows it
        holds (zeros for the zero-melody ablation). Returns the arrays and the
        retrieved record ids, None when no entry retrieves."""
        queries = clmp.embed(self.clmp, "text", texts)
        conditions, ids = [], None
        for rows in melody_sets:
            if rows is None:
                hits = retrieve(self.melodies, queries)
                rows, ids = self.melodies[hits], [self.ids[i] for i in hits]
            conditions.append(self.fusion.forward(queries, rows))
        return conditions, ids

    def sample(self, conditions: np.ndarray, *, sampler: str, steps: int, w: float,
               seed: int) -> np.ndarray:
        """One latent row per condition row; DDPM runs all n_steps."""
        given = (self.denoiser, self.sched, conditions, self.fusion.null_condition, w)
        if sampler == "ddim":
            return diffusion.sample_ddim(*given, steps, seed, n_samples=len(conditions))
        if sampler == "ddpm":
            return diffusion.sample_ddpm(*given, seed, n_samples=len(conditions))
        raise ValidationError(f"unknown sampler {sampler!r}")

    def decode(self, latents: np.ndarray) -> list[np.ndarray]:
        """The (T, F) mel grid of each latent row, framed as
        ``codec.mel_params``."""
        return [latentcodec.decode_latent(self.codec, lat.reshape(self.shape))
                for lat in latents]


def run_generate(cfg: PipelineConfig, workdir, prompt: str, *,
                 seed: int | None = None,
                 steps: int | None = None,
                 w: float | None = None,
                 use_melody: bool = True,
                 sampler: str = "ddim",
                 tag: str = "gen") -> GenerationResult:
    """Text prompt -> retrieve -> fuse -> sample -> decode -> WAV.

    ``steps`` (``--steps``) is the DDIM step count, in 1..n_steps of
    diffusion.ckpt; ``diffusion.ddim_steps`` when None. DDPM always runs all
    n_steps and takes no ``steps``.
    """
    if not clmp.tokenize(prompt):
        raise ValidationError(f"--prompt {prompt!r} has no tokens")
    if tag in ("", ".", "..") or "/" in tag or "\\" in tag:
        raise ValidationError(f"tag must be a plain file name under generated/, got {tag!r}")
    if sampler == "ddpm" and steps is not None:
        raise ValidationError(f"--steps sets the DDIM step count, but the ddpm sampler runs "
                              f"all n_steps of diffusion.ckpt; got --steps {steps}")
    seed = cfg.seed if seed is None else seed
    w = cfg.diffusion.cfg_w if w is None else w
    diffusion.check_guidance_weight(w)
    art = Artifacts(workdir)
    stack = GenerationStack.load(cfg, art)
    if sampler == "ddpm":
        steps = stack.sched.N
    else:
        source = "diffusion.ddim_steps" if steps is None else "--steps"
        steps = cfg.diffusion.ddim_steps if steps is None else steps
        if not 1 <= steps <= stack.sched.N:
            raise ValidationError(f"{source} must be in 1..{stack.sched.N} (the n_steps of "
                                  f"{art.diffusion_path.name}), got {steps}")

    melody = None if use_melody else np.zeros((1, stack.melodies.shape[1]))
    (condition,), ids = stack.conditions([prompt], (melody,))
    lat = stack.sample(condition, sampler=sampler, steps=steps, w=w, seed=seed)
    (mel,) = stack.decode(lat)
    wave = signal.mel_to_waveform(mel, **stack.codec.mel_params)

    art.generated_dir.mkdir(parents=True, exist_ok=True)
    wav_path = art.generated_dir / f"{tag}.wav"
    mel_path = art.generated_dir / f"{tag}.mel.ckpt"
    latent_path = art.generated_dir / f"{tag}.latent.ckpt"
    signal.write_wav(wav_path, wave)
    smallnet.save_checkpoint(mel_path, {"mel": mel}, stack.codec.mel_params)
    smallnet.save_checkpoint(latent_path, {"latent": lat.reshape(stack.shape)},
                             {"channels": stack.shape[0], "compression": stack.codec.compression})
    return GenerationResult(
        prompt=prompt,
        retrieved_melody_id=None if ids is None else ids[0],
        latent_path=str(latent_path),
        mel_path=str(mel_path),
        wav_path=str(wav_path),
        sampler={"sampler": sampler, "steps": steps, "w": w, "seed": seed},
    )


# --- evaluation ------------------------------------------------------------------

EVAL_MODES = ("standard", "ablation", "steps_sweep", "cfg_sweep")
SWEEP_STEPS = (10, 25, 50, 100, 200)
SWEEP_CFG = (1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
SWEEP_SEEDS = 5  # generation seeds per point of the ablation and the sweeps


def run_evaluate(cfg: PipelineConfig, workdir, mode: str = "standard",
                 seed: int | None = None) -> dict:
    """Evaluation modes over the held-out split.

    standard    FAD-like / paired KL / IS-like plus the retrieval table
    ablation    melody-conditioned vs zero-padded-melody FAD-like, per seed
    steps_sweep FAD-like vs DDIM step count
    cfg_sweep   FAD-like vs guidance weight

    The last three score ``SWEEP_SEEDS`` generation seeds, seed + 1000 k for
    k = 1.., at each point.
    """
    if mode not in EVAL_MODES:
        raise ValidationError(f"unknown evaluate mode {mode!r} (want one of {EVAL_MODES})")
    if cfg.corpus.eval_count < 2:
        raise ValidationError("corpus.eval_count must be >= 2 for evaluation")
    if mode == "standard" and cfg.corpus.eval_count < clmp.MIN_RETRIEVAL_ITEMS:
        raise ValidationError(f"corpus.eval_count must be >= {clmp.MIN_RETRIEVAL_ITEMS} for "
                              f"the standard mode's retrieval table, got {cfg.corpus.eval_count}")
    art = Artifacts(workdir)
    records = _load_records(art)
    stack = GenerationStack.load(cfg, art)
    train_records, eval_records = _split(cfg, records)
    leaked = set(stack.ids).intersection(r.id for r in eval_records)
    if leaked:
        raise ValidationError(f"corpus.eval_count: {len(leaked)} held-out records (e.g. "
                              f"{min(leaked)}) are in the training split of "
                              f"{art.index_path.name}; evaluate with the eval_count the "
                              "stack was trained with")
    train_mels, eval_mels = _split(cfg, corpus_mels(cfg, art, records))
    eval_triples = _triples(eval_records, eval_mels)
    seed = cfg.seed if seed is None else seed
    ref_feats = clmp.features("waveform", eval_mels)
    texts = [t.text for t in eval_triples]
    steps, w = cfg.diffusion.ddim_steps, cfg.diffusion.cfg_w

    sweep_seeds = [seed + 1000 * (k + 1) for k in range(SWEEP_SEEDS)]

    def sweep_fads(conditions, *, steps=steps, w=w) -> list[float]:
        """FAD-like against the references at (conditions, steps, w), one per sweep seed."""
        return [metrics.frechet(clmp.features("waveform", stack.decode(stack.sample(
                    conditions, sampler="ddim", steps=steps, w=w, seed=g))), ref_feats)
                for g in sweep_seeds]

    report: dict = {"mode": mode, "n_samples": len(eval_triples),
                    "feature_source": "wave_features_of_decoded_mel"}

    if mode == "ablation":
        (with_melody, zero_melody), _ = stack.conditions(
            texts, (None, np.zeros((len(texts), stack.melodies.shape[1]))))
        with_melody, zero_melody = sweep_fads(with_melody), sweep_fads(zero_melody)
        report["runs"] = [{"seed": g, "fad_with_melody": a, "fad_zero_melody": b}
                          for g, a, b in zip(sweep_seeds, with_melody, zero_melody)]
        report["median_fad_with_melody"] = float(np.median(with_melody))
        report["median_fad_zero_melody"] = float(np.median(zero_melody))
        return report

    (conditions,), _ = stack.conditions(texts)
    if mode == "standard":
        probe = metrics.train_probe(
            clmp.features("waveform", train_mels),
            [r.archetype.label for r in train_records],
            cfg.seed,
        )
        feats = clmp.features("waveform", stack.decode(stack.sample(
            conditions, sampler="ddim", steps=steps, w=w, seed=seed)))
        gen_by_id = {t.id: f for t, f in zip(eval_triples, feats)}
        ref_by_id = {t.id: f for t, f in zip(eval_triples, ref_feats)}
        report.update({
            "fad_like": metrics.frechet(feats, ref_feats),
            "kl": metrics.paired_kl(probe, gen_by_id, ref_by_id),
            "is_like": metrics.inception_like(probe, feats),
            "probe_holdout_accuracy": probe.holdout_accuracy,
            "retrieval": clmp.eval_retrieval(stack.clmp, eval_triples),
        })
        return report

    key, values = ("steps", SWEEP_STEPS) if mode == "steps_sweep" else ("w", SWEEP_CFG)
    points = []
    for value in values:
        at = {"steps": steps, "w": w, key: value}
        if at["steps"] > stack.sched.N:
            continue
        fads = sweep_fads(conditions, **at)
        points.append({key: value, "fad_like_median": float(np.median(fads)),
                       "fad_like_runs": fads})
    report["points"] = points
    return report

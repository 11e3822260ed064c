"""Patch-wise autoencoder between mel grids and compressed latent grids.

A T x F mel grid (dB) is cut into non-overlapping r x r patches; each patch
is scaled from [-80, 0] dB to [0, 1], flattened, and mapped by the encoder to
a C-vector, giving a C x T/r x F/r latent. Decoding inverts the mapping and
clamps back to [-80, 0] dB (a zero decoder therefore emits the silence
floor). The encoder is deterministic (no sampling); training minimizes
reconstruction MSE in scaled units plus ``kl_weight * mean(z^2)``, an L2 pull
toward a standard-normal-scale latent that keeps downstream targets
well-scaled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import smallnet
from .config import LatentConfig, SignalConfig
from .errors import ShapeError, ValidationError
from .signal import DB_FLOOR, MelGrid

_DB_SPAN = -DB_FLOOR  # 80 dB mapped onto one unit


def _check_divisible(shape: tuple[int, int], r: int) -> None:
    t, f = shape
    if t % r or f % r:
        raise ShapeError(f"mel shape {t}x{f} not divisible by compression level {r}")


def _to_patches(values: np.ndarray, r: int) -> np.ndarray:
    """(T, F) -> (T/r * F/r, r*r), row-major over patch grid and patch."""
    t, f = values.shape
    return (
        values.reshape(t // r, r, f // r, r)
        .transpose(0, 2, 1, 3)
        .reshape(t // r * (f // r), r * r)
    )


def _from_patches(patches: np.ndarray, t: int, f: int, r: int) -> np.ndarray:
    return (
        patches.reshape(t // r, f // r, r, r)
        .transpose(0, 2, 1, 3)
        .reshape(t, f)
    )


@dataclass
class LatentCodecModel:
    encoder: smallnet.DenseNet  # r*r -> C
    decoder: smallnet.DenseNet  # C -> r*r
    compression: int
    channels: int
    kl_weight: float
    mel_params: dict  # frame_hop, n_fft and sample_rate of decoded grids

    @classmethod
    def create(cls, config: LatentConfig, signal: SignalConfig,
               seed: int) -> "LatentCodecModel":
        rng = smallnet.spawn_rng(seed, 404)
        patch = config.compression * config.compression
        return cls(
            encoder=smallnet.DenseNet.create([patch, config.hidden, config.channels], "tanh",
                                             rng),
            decoder=smallnet.DenseNet.create([config.channels, config.hidden, patch], "tanh",
                                             rng),
            compression=config.compression,
            channels=config.channels,
            kl_weight=config.kl_weight,
            mel_params={"frame_hop": signal.hop, "n_fft": signal.n_fft,
                        "sample_rate": signal.sample_rate},
        )

    def named_parameters(self) -> dict[str, np.ndarray]:
        return {**self.encoder.named_parameters("encoder."),
                **self.decoder.named_parameters("decoder.")}

    def save(self, path) -> None:
        meta = {
            "compression": self.compression,
            "channels": self.channels,
            "kl_weight": self.kl_weight,
            "mel_params": self.mel_params,
            "nets": {"encoder": smallnet.net_meta(self.encoder),
                     "decoder": smallnet.net_meta(self.decoder)},
        }
        smallnet.save_checkpoint(path, self.named_parameters(), meta)

    @classmethod
    def load(cls, path) -> "LatentCodecModel":
        arrays, meta = smallnet.load_checkpoint(path)
        with smallnet.checkpoint_keys(path):
            return cls(
                encoder=smallnet.net_from_state(arrays, meta["nets"]["encoder"], "encoder."),
                decoder=smallnet.net_from_state(arrays, meta["nets"]["decoder"], "decoder."),
                compression=int(meta["compression"]),
                channels=int(meta["channels"]),
                kl_weight=float(meta["kl_weight"]),
                # an older layout also holds the constant band f_min, f_max
                mel_params={k: int(meta["mel_params"][k])
                            for k in ("frame_hop", "n_fft", "sample_rate")},
            )


def _scale_db(values: np.ndarray) -> np.ndarray:
    return (values - DB_FLOOR) / _DB_SPAN


def _unscale_db(scaled: np.ndarray) -> np.ndarray:
    return np.clip(scaled * _DB_SPAN + DB_FLOOR, DB_FLOOR, 0.0)


def encode_mel(model: LatentCodecModel, m: MelGrid) -> np.ndarray:
    """The (C, T/r, F/r) latent of mel grid ``m``."""
    r = model.compression
    _check_divisible(m.values.shape, r)
    t, f = m.values.shape
    patches = _to_patches(_scale_db(m.values), r)
    z = model.encoder.forward(patches)  # (cells, C)
    return z.reshape(t // r, f // r, model.channels).transpose(2, 0, 1)


def decode_latent(model: LatentCodecModel, z: np.ndarray) -> MelGrid:
    """The mel grid of a (C, T/r, F/r) latent ``z``."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 3 or z.shape[0] != model.channels:
        raise ShapeError(f"latent must be (C, T/r, F/r) with C={model.channels}, got {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValidationError("latent contains non-finite values")
    r = model.compression
    _, th, fw = z.shape
    cells = z.transpose(1, 2, 0).reshape(th * fw, model.channels)
    patches = model.decoder.forward(cells)
    values = _unscale_db(_from_patches(patches, th * r, fw * r, r))
    return MelGrid(values, **model.mel_params)


def train_latentcodec(model: LatentCodecModel, mels: list[MelGrid], config: LatentConfig,
                      seed: int) -> list[float]:
    """Adam on pooled patches from all grids; returns the loss history.

    The pool, every grid's scaled patches in grid order, is one array
    allocated up front and filled grid by grid, so it is held once: only one
    grid's patches exist beside it."""
    if len(mels) < 32:
        raise ValidationError(f"need at least 32 training grids, got {len(mels)}: raise "
                              "corpus.n_records or lower corpus.eval_count")
    r = model.compression
    for m in mels:
        _check_divisible(m.values.shape, r)
    pool = np.empty((sum(m.values.size for m in mels) // (r * r), r * r))
    start = 0
    for m in mels:
        patches = _to_patches(_scale_db(m.values), r)
        pool[start:start + len(patches)] = patches
        start += len(patches)

    rng = smallnet.spawn_rng(seed, 405)
    opt = smallnet.Optimizer(model.named_parameters(), config.learning_rate)
    history = []
    for _ in range(config.steps):
        idx = rng.integers(0, len(pool), size=config.batch_size)
        x = pool[idx]
        z, enc_cache = model.encoder.forward_cached(x)
        xh, dec_cache = model.decoder.forward_cached(z)
        diff = xh - x
        recon = float(np.mean(diff * diff))
        gauss = float(np.mean(z * z))
        loss = recon + model.kl_weight * gauss
        d_xh = 2.0 * diff / diff.size
        dec_grads, dz = model.decoder.backward_cached(dec_cache, d_xh)
        dz = dz + 2.0 * model.kl_weight * z / z.size
        enc_grads, _ = model.encoder.backward_cached(enc_cache, dz, None)
        opt.step(enc_grads + dec_grads)
        history.append(loss)
    return history

"""Fixtures and reference samplers shared by the test files."""

import math
import platform
import tracemalloc

import numpy as np
import pytest

from melodygen import diffusion as df
from melodygen import smallnet
from melodygen.config import SignalConfig

SIGNAL = SignalConfig()


def golden_key():
    """(machine, numpy version, BLAS) that golden digests are keyed by: BLAS
    rounding decides the low bits, so other platforms skip instead of failing."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = None
    return platform.machine(), np.__version__, blas


def traced_peak(fn) -> int:
    """The most bytes tracemalloc saw allocated at once while ``fn()`` ran,
    beyond those allocated when it started."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


# (frame_hop, n_fft, sample_rate): how the default signal settings frame a
# mel grid, in the order ``signal.mel_to_waveform`` takes them
FRAMING = (SIGNAL.hop, SIGNAL.n_fft, SIGNAL.sample_rate)


class DiskFull:
    """A file on a disk with room for 20 bytes: the write that overflows it
    stores what fits, then fails."""

    def __init__(self, f):
        self.f, self.room = f, 20

    def write(self, data):
        if len(data) > self.room:
            self.f.write(data[:self.room])
            self.room = 0
            raise OSError(28, "No space left on device")
        self.room -= len(data)
        return self.f.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


@pytest.fixture
def disk_full(monkeypatch):
    """Every file ``smallnet.write_atomic`` writes fills the disk midway;
    reads are unaffected."""
    def open_disk_full(file, mode="r", *args, **kwargs):
        f = open(file, mode, *args, **kwargs)
        return DiskFull(f) if "w" in mode else f

    monkeypatch.setattr(smallnet, "open", open_disk_full, raising=False)


# --- reference samplers: two full denoiser forwards per step ------------------


def net_eps(den, x, n, c):
    """eps(x, n, c) as one full forward of the denoiser's net over the stacked
    input [x || temb(n) || c]; ``c`` is one row or one per row of ``x``."""
    temb = df.time_embedding(np.full(len(x), n), den.time_embed_dim)
    c = np.broadcast_to(c, (len(x), den.cond_dim))
    return den.net.forward(np.concatenate([x, temb, c], axis=1))


def guided_eps(den, x, n, c, w):
    """(w+1) eps(x, n, c) - w eps(x, n, null) as two full forwards (one when
    w = 0), null being the denoiser's learned one."""
    cond = net_eps(den, x, n, c)
    if w == 0.0:
        return cond
    return (w + 1.0) * cond - w * net_eps(den, x, n, den.fusion.null_condition)


def blocks_of(c, n_samples):
    """How many blocks of ``n_samples`` rows the condition ``c`` holds: one
    for a single (cond_dim,) row."""
    return len(c) // n_samples if np.ndim(c) == 2 else 1


def reference_ddim(den, c, w, steps, seed, n_samples):
    """DDIM as two full forwards per step; every block of ``n_samples``
    condition rows starts from the same draw x_N."""
    s = den.sched
    ts = df.ddim_timesteps(s.N, steps)
    x = smallnet.spawn_rng(seed, 708).standard_normal((n_samples, den.latent_dim))
    x = np.tile(x, (blocks_of(c, n_samples), 1))
    for i, n in enumerate(ts):
        eps = guided_eps(den, x, n, c, w)
        ab = s.alpha_bar[n - 1]
        x0 = (x - math.sqrt(1 - ab) * eps) / math.sqrt(ab)
        ab_prev = s.alpha_bar[ts[i + 1] - 1] if i + 1 < len(ts) else 1.0
        x = math.sqrt(ab_prev) * x0 + math.sqrt(1 - ab_prev) * eps
    return x


def reference_ddpm(den, c, w, seed, n_samples):
    """Ancestral sampling as two full forwards per step, each taking the mean
    and variance of q(x_{n-1} | x_n, x0_hat) from their closed forms. Every
    block of ``n_samples`` condition rows takes the same draws: x_N and each
    step's noise are drawn for one block and repeated."""
    s = den.sched
    rng = smallnet.spawn_rng(seed, 707)
    blocks = blocks_of(c, n_samples)
    x = np.tile(rng.standard_normal((n_samples, den.latent_dim)), (blocks, 1))
    for n in range(s.N, 0, -1):
        eps = guided_eps(den, x, n, c, w)
        ab, beta = s.alpha_bar[n - 1], s.beta[n - 1]
        x0 = (x - math.sqrt(1 - ab) * eps) / math.sqrt(ab)
        if n == 1:
            return x0
        ab_prev = s.alpha_bar[n - 2]
        mean = (math.sqrt(ab_prev) * beta * x0
                + math.sqrt(1 - beta) * (1 - ab_prev) * x) / (1 - ab)
        var = (1 - ab_prev) / (1 - ab) * beta
        noise = rng.standard_normal((n_samples, den.latent_dim))
        x = mean + math.sqrt(var) * np.tile(noise, (blocks, 1))

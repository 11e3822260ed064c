"""Fixtures and reference samplers shared by the test files."""

import math

import pytest

from melodygen import diffusion as df
from melodygen import smallnet
from melodygen.config import SignalConfig
from melodygen.signal import MelGrid

SIGNAL = SignalConfig()


def mel_grid(values):
    """A mel grid of ``values`` framed as the default signal settings frame it."""
    return MelGrid(values, SIGNAL.hop, SIGNAL.n_fft, SIGNAL.sample_rate)


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


def reference_ddim(den, s, c, null, w, steps, seed, n_samples):
    """DDIM as two full forwards per step through ``cfg_eps``."""
    ts = df.ddim_timesteps(s.N, steps)
    x = smallnet.spawn_rng(seed, 708).standard_normal((n_samples, den.latent_dim))
    for i, n in enumerate(ts):
        eps = df.cfg_eps(den, x, n, c, null, w)
        ab = s.alpha_bar[n - 1]
        x0 = (x - math.sqrt(1 - ab) * eps) / math.sqrt(ab)
        ab_prev = s.alpha_bar[ts[i + 1] - 1] if i + 1 < len(ts) else 1.0
        x = math.sqrt(ab_prev) * x0 + math.sqrt(1 - ab_prev) * eps
    return x


def reference_ddpm(den, s, c, null, w, seed, n_samples):
    """Ancestral sampling as two full forwards per step through ``cfg_eps``."""
    rng = smallnet.spawn_rng(seed, 707)
    x = rng.standard_normal((n_samples, den.latent_dim))
    for n in range(s.N, 0, -1):
        eps = df.cfg_eps(den, x, n, c, null, w)
        ab = s.alpha_bar[n - 1]
        mu, var = df.posterior(s, x, (x - math.sqrt(1 - ab) * eps) / math.sqrt(ab), n)
        x = mu + math.sqrt(var) * rng.standard_normal(x.shape) if n > 1 else mu
    return x

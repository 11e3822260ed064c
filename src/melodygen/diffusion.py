"""Retrieval-conditioned denoising diffusion over flattened latents.

Standard DDPM pieces: a linear beta schedule with its derived alpha tables,
the closed-form forward marginal x_n = sqrt(abar_n) x0 + sqrt(1-abar_n) eps,
the Gaussian posterior q(x_{n-1} | x_n, x0), and epsilon-prediction training.
Conditioning is one fused vector per row, c = [query || melody] W + b; a
learned constant null vector stands in for "no condition" and is trained by
random condition dropout, enabling classifier-free guidance
eps_bar = (w+1) eps(x,n,c) - w eps(x,n,null). A training step draws nothing:
its steps, noise and dropout mask come from the caller, which owns the random
stream. Samplers: ancestral (DDPM) and deterministic subsequence (DDIM, eta=0).

The samplers compute eps_bar with ``Denoiser.guided_eps``, which does the
work the two branches share once. It is exact, not an approximation:

- Layer 0 is affine in its input [x_n || temb(n) || c], so its pre-activation
  splits into x_n W_x + temb(n) W_t + (c W_c + b0). The first two terms are
  the same in both branches and are computed once per step; the last is
  constant over a run and is computed once per run for c and for the null.
- The output layer is affine with identity activation (``Denoiser.load``
  checks this), so (w+1)(A a_c + b) - w(A a_u + b) = A((w+1) a_c - w a_u) + b:
  the branches' last hidden activations are mixed and the output layer runs
  once.

Only the summation order differs from two full forwards (``cfg_eps``, the
reference), so the two agree to float64 rounding (tests hold full sampler
runs to 1e-12). Per-step scalar preconditioning of the output, as in EDM's
c_skip and c_out, is affine too and keeps the fusion valid.

Step indices n are 1-based (1..N); abar(0) = 1 by convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import smallnet
from .errors import SamplingError, ShapeError, ValidationError


@dataclass
class NoiseSchedule:
    """beta/alpha tables for N steps; arrays are 0-indexed by n-1."""

    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray
    posterior_var: np.ndarray

    @property
    def N(self) -> int:
        return len(self.beta)

    def abar(self, n) -> np.ndarray | float:
        """alpha_bar at step n (scalar or array of steps), with abar(0) = 1."""
        n = np.asarray(n)
        return np.where(n == 0, 1.0, self.alpha_bar[np.maximum(n, 1) - 1])


def make_schedule(N: int, beta_start: float = 1e-4, beta_end: float = 0.02) -> NoiseSchedule:
    """Linear beta schedule from beta_start to beta_end over N steps."""
    if N < 1:
        raise ValidationError(f"N must be >= 1, got {N}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ValidationError(
            f"need 0 < beta_start <= beta_end < 1, got [{beta_start}, {beta_end}]"
        )
    beta = np.linspace(beta_start, beta_end, N)
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    alpha_bar_prev = np.concatenate([[1.0], alpha_bar[:-1]])
    posterior_var = (1.0 - alpha_bar_prev) / (1.0 - alpha_bar) * beta
    return NoiseSchedule(beta, alpha, alpha_bar, posterior_var)


def _check_step(sched: NoiseSchedule, n: int) -> None:
    if not (1 <= n <= sched.N):
        raise ValidationError(f"step n={n} outside 1..{sched.N}")


def q_sample(sched: NoiseSchedule, x0: np.ndarray, n: int, eps: np.ndarray) -> np.ndarray:
    """Forward marginal: sqrt(abar_n) x0 + sqrt(1 - abar_n) eps."""
    _check_step(sched, n)
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != x0.shape:
        raise ShapeError(f"eps shape {eps.shape} != x0 shape {x0.shape}")
    ab = sched.alpha_bar[n - 1]
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps


def posterior(sched: NoiseSchedule, x_n: np.ndarray, x0: np.ndarray, n: int):
    """Mean and variance of q(x_{n-1} | x_n, x0); n=1 returns (x0, 0)."""
    _check_step(sched, n)
    if n == 1:
        return np.asarray(x0, dtype=np.float64).copy(), 0.0
    ab_n = sched.alpha_bar[n - 1]
    ab_prev = sched.alpha_bar[n - 2]
    beta_n = sched.beta[n - 1]
    alpha_n = sched.alpha[n - 1]
    coef_x0 = np.sqrt(ab_prev) * beta_n / (1.0 - ab_n)
    coef_xn = np.sqrt(alpha_n) * (1.0 - ab_prev) / (1.0 - ab_n)
    mu = coef_x0 * np.asarray(x0, dtype=np.float64) + coef_xn * np.asarray(x_n, dtype=np.float64)
    return mu, float(sched.posterior_var[n - 1])


# --- conditioning ----------------------------------------------------------


@dataclass
class ConditionFusion:
    """c = [query || melody] W + b over a batch of rows, plus the learned null
    condition. A zero melody row is the zero-padding ablation."""

    W: np.ndarray  # (2d, d_c)
    b: np.ndarray  # (d_c,)
    null_condition: np.ndarray  # (d_c,)

    @classmethod
    def create(cls, embed_dim: int, cond_dim: int, seed: int = 0) -> "ConditionFusion":
        rng = smallnet.spawn_rng(seed, 505)
        w = rng.uniform(-1.0, 1.0, size=(2 * embed_dim, cond_dim)) / np.sqrt(2 * embed_dim)
        return cls(W=w, b=np.zeros(cond_dim), null_condition=np.zeros(cond_dim))

    @property
    def embed_dim(self) -> int:
        return self.W.shape[0] // 2

    @property
    def cond_dim(self) -> int:
        return self.W.shape[1]

    def parameters(self) -> list[np.ndarray]:
        return [self.W, self.b, self.null_condition]

    def parameter_names(self) -> list[str]:
        return ["fusion.W", "fusion.b", "fusion.null_condition"]

    def _inputs(self, queries: np.ndarray, melodies: np.ndarray) -> np.ndarray:
        shape = (len(queries), self.embed_dim)
        if np.shape(queries) != shape or np.shape(melodies) != shape:
            raise ShapeError(f"queries {np.shape(queries)} and melodies {np.shape(melodies)} "
                             f"must both have shape (B, {self.embed_dim})")
        return np.concatenate([queries, melodies], axis=1)

    def forward(self, queries: np.ndarray, melodies: np.ndarray) -> np.ndarray:
        """(B, cond_dim) conditions for (B, embed_dim) query and melody rows."""
        return self._inputs(queries, melodies) @ self.W + self.b

    def backward(self, queries: np.ndarray, melodies: np.ndarray,
                 d_conditions: np.ndarray) -> list[np.ndarray]:
        """[dW, db] of a loss whose gradient w.r.t. ``forward``'s output is
        ``d_conditions``, summed over the batch."""
        return [self._inputs(queries, melodies).T @ d_conditions, d_conditions.sum(axis=0)]


# --- denoiser ----------------------------------------------------------------


def time_embedding(n, dim: int) -> np.ndarray:
    """Sinusoidal embedding of integer step(s) n; (dim,) or (len(n), dim)."""
    if dim % 2:
        raise ValidationError(f"time embedding dim must be even, got {dim}")
    n_arr = np.atleast_1d(np.asarray(n, dtype=np.float64))
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    ang = n_arr[:, None] * freqs[None, :]
    emb = np.concatenate([np.sin(ang), np.cos(ang)], axis=1)
    return emb[0] if np.isscalar(n) or np.ndim(n) == 0 else emb


@dataclass
class Denoiser:
    """eps-prediction net over [flattened latent || time embedding || c]."""

    net: smallnet.DenseNet
    latent_dim: int
    cond_dim: int
    time_embed_dim: int

    @classmethod
    def create(cls, latent_dim: int, cond_dim: int, hidden: list[int] | int = 128,
               time_embed_dim: int = 64, seed: int = 0) -> "Denoiser":
        rng = smallnet.spawn_rng(seed, 606)
        hidden = [hidden] if isinstance(hidden, int) else list(hidden)
        dims = [latent_dim + time_embed_dim + cond_dim] + hidden + [latent_dim]
        return cls(
            net=smallnet.DenseNet.create(dims, "tanh", rng),
            latent_dim=latent_dim,
            cond_dim=cond_dim,
            time_embed_dim=time_embed_dim,
        )

    def parameters(self) -> list[np.ndarray]:
        return self.net.parameters()

    def parameter_names(self) -> list[str]:
        return self.net.parameter_names("denoiser.")

    def _stack_input(self, x_n: np.ndarray, n, c: np.ndarray) -> np.ndarray:
        x_n = np.atleast_2d(np.asarray(x_n, dtype=np.float64))
        batch = x_n.shape[0]
        if x_n.shape[1] != self.latent_dim:
            raise ShapeError(f"latent has dim {x_n.shape[1]}, denoiser wants {self.latent_dim}")
        temb = time_embedding(np.broadcast_to(np.asarray(n), (batch,)), self.time_embed_dim)
        c = np.asarray(c, dtype=np.float64)
        if c.ndim == 1:
            c = np.broadcast_to(c, (batch, self.cond_dim))
        if c.shape != (batch, self.cond_dim):
            raise ShapeError(f"condition has shape {c.shape}, wanted ({batch}, {self.cond_dim})")
        return np.concatenate([x_n, temb, c], axis=1)

    def predict(self, x_n: np.ndarray, n, c: np.ndarray) -> np.ndarray:
        single = np.asarray(x_n).ndim == 1
        out = self.net.forward(self._stack_input(x_n, n, c))
        return out[0] if single else out

    def guided_eps(self, condition: np.ndarray, null_condition: np.ndarray, w: float,
                   batch: int):
        """The guided noise estimate of one sampling run, as a function
        ``eps(x_n, n)`` of a (batch, latent_dim) latent and a step.

        It equals ``cfg_eps(self, x_n, n, condition, null_condition, w)`` up to
        float rounding, without computing twice what the two branches share
        (see the module docstring). ``condition`` and ``null_condition`` are
        (cond_dim,) or (batch, cond_dim); ``w == 0`` skips the null branch.
        """
        if w < 0:
            raise ValidationError(f"guidance weight must be >= 0, got {w}")
        layers = self.net.layers
        first, last = layers[0], layers[-1]
        t0, c0 = self.latent_dim, self.latent_dim + self.time_embed_dim
        w_x, w_t, w_c = first.w[:, :t0], first.w[:, t0:c0], first.w[:, c0:]

        def condition_bias(c):
            c = np.asarray(c, dtype=np.float64)
            if c.shape not in ((self.cond_dim,), (batch, self.cond_dim)):
                raise ShapeError(f"condition has shape {c.shape}, wanted ({self.cond_dim},) "
                                 f"or ({batch}, {self.cond_dim})")
            return c @ w_c.T + first.b

        def hidden(shared, bias):
            a = smallnet.activate(first.activation, shared + bias)
            for l in layers[1:-1]:
                a = smallnet.activate(l.activation, a @ l.w.T + l.b)
            return a

        bias_c = condition_bias(condition)
        bias_u = None if w == 0.0 else condition_bias(null_condition)

        def eps(x_n: np.ndarray, n: int) -> np.ndarray:
            shared = x_n @ w_x.T + time_embedding(n, self.time_embed_dim) @ w_t.T
            a = hidden(shared, bias_c)
            if bias_u is not None:
                a = (w + 1.0) * a - w * hidden(shared, bias_u)
            return a if len(layers) == 1 else a @ last.w.T + last.b

        return eps

    def save(self, path, fusion: ConditionFusion, extra_meta: dict) -> None:
        arrays, net_meta = smallnet.net_state(self.net, "denoiser.")
        arrays.update(zip(fusion.parameter_names(), fusion.parameters()))
        meta = {
            "latent_dim": self.latent_dim,
            "cond_dim": self.cond_dim,
            "time_embed_dim": self.time_embed_dim,
            "net": net_meta,
            "extra": extra_meta,
        }
        smallnet.save_checkpoint(path, arrays, meta)

    @classmethod
    def load(cls, path):
        """Returns (denoiser, fusion, extra_meta)."""
        arrays, meta = smallnet.load_checkpoint(path)
        with smallnet.checkpoint_keys(path):
            den = cls(
                net=smallnet.net_from_state(arrays, meta["net"], "denoiser."),
                latent_dim=int(meta["latent_dim"]),
                cond_dim=int(meta["cond_dim"]),
                time_embed_dim=int(meta["time_embed_dim"]),
            )
            fusion = ConditionFusion(W=arrays["fusion.W"], b=arrays["fusion.b"],
                                     null_condition=arrays["fusion.null_condition"])
            extra = meta["extra"]
        # guided_eps slices layer 0 by these widths and needs an affine output
        in_dim = den.latent_dim + den.time_embed_dim + den.cond_dim
        out_act = den.net.layers[-1].activation
        for bad, problem in (
            (den.net.in_dim != in_dim, f"net input width {den.net.in_dim} != latent_dim "
                                       f"+ time_embed_dim + cond_dim = {in_dim}"),
            (den.net.out_dim != den.latent_dim,
             f"net output width {den.net.out_dim} != latent_dim {den.latent_dim}"),
            (out_act != "identity", f"output activation {out_act!r} is not 'identity'"),
        ):
            if bad:
                raise ValidationError(f"denoiser checkpoint {path}: {problem}; "
                                      "rerun train-diffusion")
        return den, fusion, extra


# --- training -----------------------------------------------------------------


@dataclass
class TrainingStepResult:
    loss: float
    denoiser_grads: list[np.ndarray]
    d_conditions: np.ndarray  # (B, d_c); zero rows where the null was used
    d_null: np.ndarray  # (d_c,)


def _row_blocks(n_rows: int, width: int):
    """Slices of at most ``smallnet.CACHE_BLOCK`` elements' worth of rows of an
    (n_rows, width) array, each with a scratch array of its shape, so that
    elementwise passes over large arrays keep their temporaries in cache."""
    step = max(1, smallnet.CACHE_BLOCK // width)
    scratch = np.empty((min(step, n_rows), width))
    for r in range(0, n_rows, step):
        rows = slice(r, min(r + step, n_rows))
        yield rows, scratch[:rows.stop - r]


def training_step(
    denoiser: Denoiser,
    sched: NoiseSchedule,
    x0: np.ndarray,
    conditions: np.ndarray,
    null_condition: np.ndarray,
    *,
    steps: np.ndarray,
    noise: np.ndarray,
    uncond: np.ndarray,
) -> TrainingStepResult:
    """One eps-prediction step over a batch of B rows, on the caller's draws.

    Row i is noised to step ``steps[i]`` (in 1..N) with ``noise[i]``, and
    conditioned on ``conditions[i]``, or on the learned null where the (B,)
    bool mask ``uncond`` is True. The loss is
    mean_i ||eps_i - eps_theta(x_n_i, n_i, c_i)||^2 (squared norm per sample,
    mean over the batch). Returns gradients for the denoiser, the condition
    rows, and the null vector so the caller can backprop into the fusion map.
    ``noise`` is read, never written.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim != 2 or x0.shape[1] != denoiser.latent_dim:
        raise ShapeError(f"x0 has shape {x0.shape}, denoiser wants (B, {denoiser.latent_dim})")
    batch, lat = x0.shape
    conditions = np.asarray(conditions, dtype=np.float64)
    if conditions.shape != (batch, denoiser.cond_dim):
        raise ShapeError(
            f"conditions shape {conditions.shape} != ({batch}, {denoiser.cond_dim})"
        )
    n = np.asarray(steps)
    if n.shape != (batch,) or n.min() < 1 or n.max() > sched.N:
        raise ValidationError(f"steps must be {batch} values in 1..{sched.N}")
    eps = np.asarray(noise, dtype=np.float64)
    if eps.shape != x0.shape:
        raise ShapeError(f"noise shape {eps.shape} != x0 shape {x0.shape}")
    mask = np.asarray(uncond)
    if mask.shape != (batch,) or mask.dtype != bool:
        raise ShapeError(f"uncond must be a ({batch},) bool mask, got {mask.dtype} "
                         f"{mask.shape}")

    # one input buffer [x_n || temb(n) || c_eff], with x_n built row block by
    # row block
    c0 = lat + denoiser.time_embed_dim
    inp = np.empty((batch, c0 + denoiser.cond_dim))
    inp[:, lat:c0] = time_embedding(n, denoiser.time_embed_dim)
    inp[:, c0:] = conditions
    inp[mask, c0:] = null_condition
    ab = sched.alpha_bar[n - 1][:, None]
    root_ab, root_1mab = np.sqrt(ab), np.sqrt(1.0 - ab)
    for rows, t in _row_blocks(batch, lat):
        x_n = inp[rows, :lat]
        np.multiply(root_ab[rows], x0[rows], out=x_n)
        np.multiply(root_1mab[rows], eps[rows], out=t)
        x_n += t

    out, cache = denoiser.net.forward_cached(inp)
    # d_out = 2 (out - eps) / batch, and each row's squared error on the way
    d_out = np.empty_like(out)
    row_sq = np.empty(batch)
    for rows, t in _row_blocks(batch, lat):
        diff = np.subtract(out[rows], eps[rows], out=d_out[rows])
        np.multiply(diff, diff, out=t)
        np.sum(t, axis=1, out=row_sq[rows])
        diff *= 2.0
        diff /= batch
    loss = float(np.mean(row_sq))
    grads, d_c_eff = denoiser.net.backward_cached(cache, d_out, slice(c0, None))
    d_conditions = np.where(mask[:, None], 0.0, d_c_eff)
    d_null = d_c_eff[mask].sum(axis=0) if mask.any() else np.zeros(denoiser.cond_dim)
    return TrainingStepResult(loss, grads, d_conditions, d_null)


# --- guidance and sampling ------------------------------------------------------


def cfg_eps(denoiser: Denoiser, x_n: np.ndarray, n, c: np.ndarray,
            null_condition: np.ndarray, w: float) -> np.ndarray:
    """Guided noise estimate (w+1) * eps(x,n,c) - w * eps(x,n,null), as two
    full forwards: the reference for ``Denoiser.guided_eps``."""
    if w < 0:
        raise ValidationError(f"guidance weight must be >= 0, got {w}")
    cond = denoiser.predict(x_n, n, c)
    if w == 0.0:
        return cond
    uncond = denoiser.predict(x_n, n, null_condition)
    return (w + 1.0) * cond - w * uncond


def _prior_draw(rng: np.random.Generator, n_samples: int, latent_dim: int) -> np.ndarray:
    return rng.standard_normal((n_samples, latent_dim))


def _x0_estimate(sched: NoiseSchedule, x_n: np.ndarray, eps_bar: np.ndarray, n: int) -> np.ndarray:
    ab = sched.alpha_bar[n - 1]
    return (x_n - np.sqrt(1.0 - ab) * eps_bar) / np.sqrt(ab)


def _check_finite(eps_bar: np.ndarray, n: int) -> None:
    if not np.all(np.isfinite(eps_bar)):
        raise SamplingError("denoiser produced non-finite noise estimate", n)


def sample_ddpm(
    denoiser: Denoiser,
    sched: NoiseSchedule,
    condition: np.ndarray,
    null_condition: np.ndarray,
    w: float,
    seed: int,
    n_samples: int = 1,
) -> np.ndarray:
    """Ancestral sampling: x_N ~ N(0, I), then posterior steps down to x_0.

    At each step the guided eps estimate gives x0_hat, the posterior mean is
    taken, and sqrt(posterior_var) noise is added (none at n=1). Deterministic
    for a fixed seed. Returns (n_samples, latent_dim).
    """
    guided = denoiser.guided_eps(condition, null_condition, w, n_samples)
    rng = smallnet.spawn_rng(seed, 707)
    x = _prior_draw(rng, n_samples, denoiser.latent_dim)
    for n in range(sched.N, 0, -1):
        eps_bar = guided(x, n)
        _check_finite(eps_bar, n)
        x0_hat = _x0_estimate(sched, x, eps_bar, n)
        mu, var = posterior(sched, x, x0_hat, n)
        if n > 1:
            x = mu + np.sqrt(var) * rng.standard_normal(x.shape)
        else:
            x = mu
    return x


def ddim_timesteps(N: int, steps: int) -> list[int]:
    """Evenly spaced descending subsequence of 1..N, ending at 1 side."""
    if not (1 <= steps <= N):
        raise ValidationError(f"steps must be in 1..{N}, got {steps}")
    ts = np.unique(np.round(np.linspace(N, 1, steps)).astype(int))[::-1]
    return [int(t) for t in ts]


def sample_ddim(
    denoiser: Denoiser,
    sched: NoiseSchedule,
    condition: np.ndarray,
    null_condition: np.ndarray,
    w: float,
    steps: int,
    seed: int,
    n_samples: int = 1,
) -> np.ndarray:
    """Deterministic DDIM (eta = 0) over an evenly spaced timestep subsequence.

    Only the starting draw x_N consumes randomness; steps=1 reduces to the
    single-step x0 estimate.
    """
    ts = ddim_timesteps(sched.N, steps)
    guided = denoiser.guided_eps(condition, null_condition, w, n_samples)
    rng = smallnet.spawn_rng(seed, 708)
    x = _prior_draw(rng, n_samples, denoiser.latent_dim)
    for i, n in enumerate(ts):
        eps_bar = guided(x, n)
        _check_finite(eps_bar, n)
        x0_hat = _x0_estimate(sched, x, eps_bar, n)
        n_prev = ts[i + 1] if i + 1 < len(ts) else 0
        ab_prev = float(sched.abar(n_prev))
        x = np.sqrt(ab_prev) * x0_hat + np.sqrt(1.0 - ab_prev) * eps_bar
    return x

"""Retrieval-conditioned denoising diffusion over flattened latents.

Standard DDPM pieces: a linear beta schedule with its derived alpha tables,
epsilon-prediction training on the closed-form forward marginal
x_n = sqrt(abar_n) x0 + sqrt(1-abar_n) eps, and ancestral sampling through the
Gaussian posterior q(x_{n-1} | x_n, x0).
Conditioning is one fused vector per row, c = [query || melody] W + b; a
learned constant null vector stands in for "no condition" and is trained by
random condition dropout, enabling classifier-free guidance
eps_bar = (w+1) eps(x,n,c) - w eps(x,n,null). The map, its null, the noise
schedule and the latent shape belong to the ``Denoiser``, as diffusion.ckpt
holds them. A training step fuses its rows and back-propagates into the map,
but draws nothing: its steps, noise and dropout mask come from the caller,
which owns the random stream. Samplers: ancestral (DDPM) and deterministic
subsequence (DDIM, eta=0), each a table of per-step scalars (alpha, beta,
sigma) that one loop runs.

Precision: a training step runs in the denoiser's dtype, which is float32
under train-diffusion (``pipeline.DENOISER_TRAIN_DTYPE``). Its draws, the
forward marginal and the loss stay float64, and only the net's passes and
Adam's update of its weights round to float32. diffusion.ckpt stores float32,
so the weights it holds are now exactly the trained ones. A loaded denoiser
is float64, and sampling runs in float64.

Both samplers run through ``GuidedTrajectory``, which carries a whole run in
the denoiser's hidden space. It is exact in real arithmetic:

- Each step is affine in the latent and the guided estimate,
  x' = alpha x_n + beta eps_bar(x_n, n) + sigma z, with scalars that come from
  substituting x0_hat = (x_n - sqrt(1-abar_n) eps_bar) / sqrt(abar_n):
  - DDIM (eta = 0, abar' = abar at the next step of the subsequence, 1 after
    the last): alpha = sqrt(abar') / sqrt(abar_n),
    beta = sqrt(1-abar') - sqrt(abar') sqrt(1-abar_n) / sqrt(abar_n), sigma = 0;
  - DDPM: alpha = c_x0 / sqrt(abar_n) + c_xn,
    beta = -c_x0 sqrt(1-abar_n) / sqrt(abar_n), sigma^2 = posterior_var_n,
    where c_x0 and c_xn are the posterior-mean coefficients (1 and 0, with
    sigma = 0, at n = 1).
- The net sees x_n only through layer 0, which is affine in
  [x_n || temb(n) || c]: its pre-activation is
  x_n W_x^T + temb(n) W_t^T + (c W_c^T + b0). The first two terms are shared
  by the two branches; the last is constant over a run, and the branches'
  are stacked into one (2, batch, hidden) array, so that each step makes one
  add and one activation per layer for both (for the conditional branch
  alone when w = 0), and mixes them into a preallocated buffer.
- The output layer is affine with identity activation (``Denoiser.load``
  checks this), so eps_bar = a A^T + b_out, where
  a = (w+1) a_c - w a_u mixes the branches' last hidden activations.

So the latent is always x = g x_N + S A^T + k b_out + R, with scalars g and k,
S the beta-weighted sum of the mixed activations (batch x last hidden width)
and R the summed DDPM noise, each scaled by later alphas. Its layer-0 product
u = x W_x^T follows u' = alpha u + beta (a M^T + m_b) + sigma z W_x^T, with
M = W_x A and m_b = W_x b_out. Both depend only on the weights: ``Denoiser.save``
forms them from the float32 weights diffusion.ckpt stores and writes them to
it as exact float64 arrays, and a loaded denoiser reads them from there (one
never saved forms them from its current weights). A DDIM run therefore makes
two batch products at the latent width in total, u at x_N and S A^T at the
end; DDPM adds one per step for its noise. Each run also forms its step table
once: the alpha, beta and sigma of every step, and every step's time term
temb(n) W_t^T, as one stacked product of (1, time_embed_dim) rows, which
rounds as each row's own product does. Only rounding differs from two full
forwards per step (the reference samplers in ``tests/conftest.py``), so the
two agree to float64 rounding (tests hold full sampler runs to 1e-12).

The finite check keeps the reference's semantics: a non-finite A or b_out
would make every estimate non-finite, so they are checked once per run and
reported at the first step; a is checked at every step. A per-step scalar
preconditioning of the output, as in EDM's c_skip and c_out, is affine and
scalar, so it keeps the trajectory exact; a skip term that differs per latent
dim would need the latent-width products back at every step.

Step indices n are 1-based (1..N); abar(0) = 1 by convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import smallnet
from .config import DiffusionConfig
from .errors import SamplingError, ShapeError, ValidationError


@dataclass
class NoiseSchedule:
    """beta/alpha tables for N steps, 0-indexed by n-1, and the ends of the
    linear schedule they were made from (one step keeps only beta_start)."""

    beta_start: float
    beta_end: float
    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray
    posterior_var: np.ndarray

    @property
    def N(self) -> int:
        return len(self.beta)


def make_schedule(N: int, beta_start: float, beta_end: float) -> NoiseSchedule:
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
    return NoiseSchedule(beta_start, beta_end, beta, alpha, alpha_bar, posterior_var)


# --- conditioning ----------------------------------------------------------


@dataclass
class ConditionFusion:
    """c = [query || melody] W + b over a batch of rows, plus the learned null
    condition. A zero melody row is the zero-padding ablation."""

    W: np.ndarray  # (2d, d_c)
    b: np.ndarray  # (d_c,)
    null_condition: np.ndarray  # (d_c,)

    @classmethod
    def create(cls, embed_dim: int, cond_dim: int, seed: int) -> "ConditionFusion":
        rng = smallnet.spawn_rng(seed, 505)
        w = rng.uniform(-1.0, 1.0, size=(2 * embed_dim, cond_dim)) / np.sqrt(2 * embed_dim)
        return cls(W=w, b=np.zeros(cond_dim), null_condition=np.zeros(cond_dim))

    @property
    def embed_dim(self) -> int:
        return self.W.shape[0] // 2

    def named_parameters(self) -> dict[str, np.ndarray]:
        return {"fusion.W": self.W, "fusion.b": self.b,
                "fusion.null_condition": self.null_condition}

    def _inputs(self, queries: np.ndarray, melodies: np.ndarray) -> np.ndarray:
        shape = (len(queries), self.embed_dim)
        if np.shape(queries) != shape or np.shape(melodies) != shape:
            raise ShapeError(f"queries {np.shape(queries)} and melodies {np.shape(melodies)} "
                             f"must both have shape (B, {self.embed_dim})")
        return np.concatenate([queries, melodies], axis=1)

    def forward(self, queries: np.ndarray, melodies: np.ndarray) -> np.ndarray:
        """(B, cond_dim) conditions for (B, embed_dim) query and melody rows."""
        return self._inputs(queries, melodies) @ self.W + self.b


# --- denoiser ----------------------------------------------------------------


def time_embedding(n: np.ndarray, dim: int) -> np.ndarray:
    """(len(n), dim) sinusoidal embedding of the integer steps n."""
    if dim % 2:
        raise ValidationError(f"time embedding dim must be even, got {dim}")
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    ang = np.asarray(n, dtype=np.float64)[:, None] * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


# diffusion.ckpt's exact arrays: GuidedTrajectory's M = W_x A and m_b = W_x b_out
SAMPLER_ARRAYS = ("sampler.M", "sampler.m_b")
# the meta keys of diffusion.ckpt's latent shape (channels, T/r, F/r)
SHAPE_KEYS = ("latent_channels", "latent_t", "latent_f")


def _sampler_constants(w0: np.ndarray, w_out: np.ndarray, b_out: np.ndarray,
                       latent_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(W_x A, W_x b_out) for layer-0 weights ``w0``, whose first ``latent_dim``
    columns are W_x, and output-layer weights A = ``w_out`` and bias ``b_out``."""
    w_x = w0[:, :latent_dim]
    return w_x @ w_out, w_x @ b_out


@dataclass
class Denoiser:
    """eps-prediction net over [flattened latent || time embedding || c], with
    all else diffusion.ckpt holds: the ``fusion`` map that makes c and its
    learned null, the noise schedule ``sched`` and the (channels, T/r, F/r)
    ``shape`` of the latents.

    ``stored_constants`` holds the (M, m_b) that ``load`` read from the
    checkpoint; they are products of the weights, so a loaded denoiser's
    weights are not to be edited in place.
    """

    net: smallnet.DenseNet
    fusion: ConditionFusion
    sched: NoiseSchedule
    shape: tuple[int, int, int]
    time_embed_dim: int
    stored_constants: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @property
    def latent_dim(self) -> int:
        return math.prod(self.shape)

    @property
    def cond_dim(self) -> int:
        return self.fusion.W.shape[1]

    @classmethod
    def create(cls, shape: tuple[int, int, int], embed_dim: int, config: DiffusionConfig,
               seed: int) -> "Denoiser":
        """Seeded init of one hidden layer of ``config.hidden`` units over the
        widths in ``config``, for latents of ``shape``, and of a fusion map
        over ``embed_dim``-wide query and melody rows; ``config``'s schedule."""
        if config.hidden < 1:
            # GuidedTrajectory carries sampling in the hidden layer's space
            raise ValidationError(f"denoiser needs a hidden layer of width >= 1, "
                                  f"got {config.hidden}")
        latent_dim = math.prod(shape)
        dims = [latent_dim + config.time_embed_dim + config.cond_dim, config.hidden, latent_dim]
        return cls(
            net=smallnet.DenseNet.create(dims, "tanh", smallnet.spawn_rng(seed, 606)),
            fusion=ConditionFusion.create(embed_dim, config.cond_dim, seed),
            sched=make_schedule(config.n_steps, config.beta_start, config.beta_end),
            shape=tuple(shape),
            time_embed_dim=config.time_embed_dim,
        )

    def named_parameters(self) -> dict[str, np.ndarray]:
        """The net's parameters, then the fusion map's."""
        return {**self.net.named_parameters("denoiser."), **self.fusion.named_parameters()}

    def sampler_constants(self) -> tuple[np.ndarray, np.ndarray]:
        """``GuidedTrajectory``'s (M, m_b) = (W_x A, W_x b_out): the stored pair
        of a loaded denoiser, else formed from the current weights."""
        if self.stored_constants is not None:
            return self.stored_constants
        first, last = self.net.layers[0], self.net.layers[-1]
        return _sampler_constants(first.w, last.w, last.b, self.latent_dim)

    def save(self, path) -> None:
        """Write diffusion.ckpt: the net and the fusion map, the schedule's
        arguments and the latent shape, plus the sampler constants as exact
        arrays, formed from the float32 weights the file stores so that they
        equal those formed from the loaded weights."""
        arrays = self.named_parameters()
        first, last = self.net.layers[0], self.net.layers[-1]
        arrays.update(zip(SAMPLER_ARRAYS, _sampler_constants(
            *map(smallnet.as_stored, (first.w, last.w, last.b)), self.latent_dim)))
        meta = {
            "latent_dim": self.latent_dim,
            "cond_dim": self.cond_dim,
            "time_embed_dim": self.time_embed_dim,
            "net": smallnet.net_meta(self.net),
            "extra": {**dict(zip(SHAPE_KEYS, self.shape)), "n_steps": self.sched.N,
                      "beta_start": self.sched.beta_start, "beta_end": self.sched.beta_end,
                      "embed_dim": self.fusion.embed_dim},
        }
        smallnet.save_checkpoint(path, arrays, meta, exact=SAMPLER_ARRAYS)

    @classmethod
    def load(cls, path) -> "Denoiser":
        """The denoiser that ``save`` wrote to ``path``. A net the sampler
        cannot carry, a latent shape other than the net's output width, or
        missing, misshapen or non-finite sampler constants raise
        ``ValidationError`` naming the file."""
        arrays, meta = smallnet.load_checkpoint(path)
        with smallnet.checkpoint_keys(path, "train-diffusion"):
            net = smallnet.net_from_state(arrays, meta["net"], "denoiser.")
            latent_dim, cond_dim = int(meta["latent_dim"]), int(meta["cond_dim"])
            extra = meta["extra"]
            den = cls(
                net=net,
                fusion=ConditionFusion(W=arrays["fusion.W"], b=arrays["fusion.b"],
                                       null_condition=arrays["fusion.null_condition"]),
                sched=make_schedule(int(extra["n_steps"]), float(extra["beta_start"]),
                                    float(extra["beta_end"])),
                shape=tuple(int(extra[k]) for k in SHAPE_KEYS),
                time_embed_dim=int(meta["time_embed_dim"]),
            )

        def refuse(problem):
            raise ValidationError(f"denoiser checkpoint {path}: {problem}; "
                                  "rerun train-diffusion")

        # GuidedTrajectory slices layer 0 by these widths, and needs a hidden
        # layer and an affine output
        in_dim = latent_dim + den.time_embed_dim + cond_dim
        out_act = net.layers[-1].activation
        for bad, problem in (
            (len(net.layers) < 2, "net has no hidden layer"),
            (net.in_dim != in_dim, f"net input width {net.in_dim} != latent_dim "
                                   f"+ time_embed_dim + cond_dim = {in_dim}"),
            (net.out_dim != latent_dim,
             f"net output width {net.out_dim} != latent_dim {latent_dim}"),
            (den.latent_dim != net.out_dim, f"latent shape {den.shape} holds "
                                            f"{den.latent_dim} values, but the net outputs "
                                            f"{net.out_dim}"),
            (out_act != "identity", f"output activation {out_act!r} is not 'identity'"),
        ):
            if bad:
                refuse(problem)
        with smallnet.checkpoint_keys(path, "train-diffusion"):
            den.stored_constants = tuple(arrays[k] for k in SAMPLER_ARRAYS)
        hidden = (net.layers[0].w.shape[0], net.layers[-1].w.shape[1])
        for name, a, shape in zip(SAMPLER_ARRAYS, den.stored_constants, (hidden, hidden[:1])):
            if a.shape != shape:
                refuse(f"{name} has shape {a.shape}, wanted {shape}")
            if not np.isfinite(a).all():
                refuse(f"{name} is not finite")
        return den


# --- training -----------------------------------------------------------------


def training_step(
    denoiser: Denoiser,
    x0: np.ndarray,
    queries: np.ndarray,
    melodies: np.ndarray,
    *,
    steps: np.ndarray,
    noise: np.ndarray,
    uncond: np.ndarray,
) -> tuple[float, list[np.ndarray]]:
    """One eps-prediction step over a batch of B rows, on the caller's draws.

    Row i is noised to step ``steps[i]`` (in 1..N) with ``noise[i]``, and
    conditioned on the fusion of ``queries[i]`` and ``melodies[i]``, or on
    the learned null where the (B,) bool mask ``uncond`` is True. The loss is
    mean_i ||eps_i - eps_theta(x_n_i, n_i, c_i)||^2 (squared norm per sample,
    mean over the batch). Returns the loss and its gradients with respect to
    ``denoiser.named_parameters()``, in that order. ``noise`` is read, never
    written.

    The net's passes and its gradients are in the denoiser's dtype. x_n and
    out - eps are formed in float64 and rounded once into it (rounding eps
    first would change the trained weights). The loss sums its squared errors
    in float64; the fusion map's gradients are float64, as the map is.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim != 2 or x0.shape[1] != denoiser.latent_dim:
        raise ShapeError(f"x0 has shape {x0.shape}, denoiser wants (B, {denoiser.latent_dim})")
    batch, lat = x0.shape
    if len(queries) != batch:
        raise ShapeError(f"{len(queries)} query rows for {batch} latent rows")
    sched, fusion = denoiser.sched, denoiser.fusion
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

    # one input buffer [x_n || temb(n) || c_eff] in the net's dtype; x_n and
    # out - eps are float64, each rounded once as its ufunc writes it out
    c0 = lat + denoiser.time_embed_dim
    inp = np.empty((batch, c0 + denoiser.cond_dim), denoiser.net.dtype)
    inp[:, lat:c0] = time_embedding(n, denoiser.time_embed_dim)
    fusion_in = fusion._inputs(queries, melodies)  # (B, 2 embed_dim) [query || melody]
    inp[:, c0:] = fusion_in @ fusion.W + fusion.b
    inp[mask, c0:] = fusion.null_condition
    ab = sched.alpha_bar[n - 1][:, None]
    np.add(np.sqrt(ab) * x0, np.sqrt(1.0 - ab) * eps, out=inp[:, :lat])

    out, cache = denoiser.net.forward_cached(inp)
    # d_out = 2 (out - eps) / batch, after summing each row's squared error
    d_out = np.subtract(out, eps, out=np.empty_like(out))
    loss = float(np.mean(np.sum(d_out * d_out, axis=1, dtype=np.float64)))
    d_out *= 2.0
    d_out /= batch
    grads, d_c_eff = denoiser.net.backward_cached(cache, d_out, slice(c0, None))
    d_c_eff = d_c_eff.astype(np.float64, copy=False)
    # the fused conditions' gradient, with zero rows where the null was used
    d_fused = np.where(mask[:, None], 0.0, d_c_eff)
    return loss, grads + [fusion_in.T @ d_fused, d_fused.sum(axis=0), d_c_eff[mask].sum(axis=0)]


# --- guidance and sampling ------------------------------------------------------


def check_guidance_weight(w: float) -> None:
    if not (math.isfinite(w) and w >= 0):
        raise ValidationError(f"guidance weight must be finite and >= 0, got {w}")


class GuidedTrajectory:
    """One guided sampling run, carried in the denoiser's hidden space.

    Starts at the (batch, latent_dim) draw ``x_N``. ``step(n, alpha, beta,
    noise)`` moves the latent x to alpha x + beta eps_bar(x, n) + noise, where
    eps_bar = (w+1) eps(x, n, condition) - w eps(x, n, null) is what two full
    forwards of the net give (the reference samplers in ``tests/conftest.py``),
    for each step n of ``steps`` in turn; ``x()`` returns the latent. ``u`` is
    x W_x^T, layer 0's product with the latent. See the module docstring for
    why this is exact. ``condition`` is (cond_dim,) or (batch, cond_dim), and
    null is the denoiser's ``fusion.null_condition``; ``w == 0`` skips the
    null branch. ``time_rows[n]`` is step n's layer-0 time term
    temb(n) W_t^T, formed once per run, bit-equal to the row's own product
    (one (steps, time_embed_dim) product is not).
    """

    def __init__(self, denoiser: Denoiser, condition: np.ndarray, w: float, x_N: np.ndarray,
                 steps: list[int]):
        check_guidance_weight(w)
        layers = denoiser.net.layers
        first, last = layers[0], layers[-1]
        t0, c0 = denoiser.latent_dim, denoiser.latent_dim + denoiser.time_embed_dim
        w_x, w_c = first.w[:, :t0], first.w[:, c0:]
        batch = len(x_N)

        def condition_bias(c):
            c = np.asarray(c, dtype=np.float64)
            if c.shape not in ((denoiser.cond_dim,), (batch, denoiser.cond_dim)):
                raise ShapeError(f"condition has shape {c.shape}, wanted ({denoiser.cond_dim},) "
                                 f"or ({batch}, {denoiser.cond_dim})")
            return np.broadcast_to(c @ w_c.T + first.b, (batch, first.w.shape[0]))

        # (branches, batch, hidden): the condition's bias, then the null's when w > 0
        self._biases = np.stack([condition_bias(c) for c in
                                 ((condition,) if w == 0.0
                                  else (condition, denoiser.fusion.null_condition))])
        self._layers, self._w_x = layers, w_x
        w_t = first.w[:, t0:c0]
        temb = time_embedding(np.asarray(steps), denoiser.time_embed_dim)
        self.time_rows = dict(zip(steps, np.matmul(temb[:, None, :], w_t.T)[:, 0]))
        # Denoiser.load found a loaded denoiser's weights finite
        self._out_finite = denoiser.stored_constants is not None or bool(
            np.all(np.isfinite(last.w)) and np.all(np.isfinite(last.b)))
        self._m, self._m_b = denoiser.sampler_constants()
        self._x_N, self._out = x_N, last
        self.u = x_N @ w_x.T
        self._s = np.zeros((batch, last.w.shape[1]))
        self._coefs = np.array([w + 1.0, w][:len(self._biases)])[:, None, None]
        self._mixed = np.empty(self._s.shape)
        self._g, self._k, self._r = 1.0, 0.0, None

    def step(self, n: int, alpha: float, beta: float, noise: np.ndarray | None = None) -> None:
        """x <- alpha x + beta eps_bar(x, n) + noise, for step n (1..N);
        ``noise`` is a (batch, latent_dim) array or None for none. Raises
        ``SamplingError`` at step n if eps_bar is not finite."""
        a = smallnet.activate(self._layers[0].activation,
                              (self.u + self.time_rows[n]) + self._biases)
        for l in self._layers[1:-1]:
            a = smallnet.activate(l.activation, a @ l.w.T + l.b)
        a *= self._coefs  # (w+1) a_c and w a_u, mixed into a preallocated buffer
        a = a[0] if len(a) == 1 else np.subtract(a[0], a[1], out=self._mixed)
        if not (self._out_finite and np.isfinite(a).all()):
            raise SamplingError("denoiser produced non-finite noise estimate", n)
        u = alpha * self.u + beta * (a @ self._m.T + self._m_b)
        if self._r is not None:
            self._r *= alpha
        if noise is not None:
            u += noise @ self._w_x.T
            if self._r is None:
                self._r = np.zeros_like(self._x_N)
            self._r += noise
        self.u = u
        self._s = alpha * self._s + beta * a
        self._g *= alpha
        self._k = alpha * self._k + beta

    def x(self) -> np.ndarray:
        x = self._g * self._x_N + self._s @ self._out.w.T + self._k * self._out.b
        return x if self._r is None else x + self._r


def _sample(denoiser: Denoiser, condition: np.ndarray, w: float, n_samples: int,
            rng: np.random.Generator, steps: list[int], alpha: np.ndarray, beta: np.ndarray,
            sigma: np.ndarray) -> np.ndarray:
    """Draws x_N ~ N(0, I), then takes x <- alpha x + beta eps_bar(x, n) + sigma z
    for each step n of ``steps`` in turn, with that step's row of the table
    (alpha, beta, sigma); z ~ N(0, I) is drawn after x_N, and only where sigma > 0."""
    shape = (n_samples, denoiser.latent_dim)
    traj = GuidedTrajectory(denoiser, condition, w, rng.standard_normal(shape), steps)
    for n, a, b, s in zip(steps, alpha.tolist(), beta.tolist(), sigma.tolist()):
        traj.step(n, a, b, s * rng.standard_normal(shape) if s > 0 else None)
    return traj.x()


def sample_ddpm(
    denoiser: Denoiser,
    condition: np.ndarray,
    w: float,
    seed: int,
    n_samples: int = 1,
) -> np.ndarray:
    """Ancestral sampling: x_N ~ N(0, I), then posterior steps down to x_0.

    At each step the guided eps estimate gives x0_hat, the posterior mean is
    taken, and sqrt(posterior_var) noise is added (none at n=1). Deterministic
    for a fixed seed. Returns (n_samples, latent_dim).
    """
    sched = denoiser.sched
    steps = list(range(sched.N, 0, -1))
    i = np.asarray(steps) - 1
    # abar at each step and at the one before it (abar_0 = 1)
    ab = sched.alpha_bar[i]
    ab_prev = np.append(ab[1:], 1.0)
    # the posterior mean's coefficients of x0 and x_n; at n = 1 the mean is x0,
    # where the formula gives coef_xn = 0 exactly but coef_x0 = 1 only to rounding
    coef_x0 = np.sqrt(ab_prev) * sched.beta[i] / (1.0 - ab)
    coef_x0[-1] = 1.0
    coef_xn = np.sqrt(sched.alpha[i]) * (1.0 - ab_prev) / (1.0 - ab)
    root_ab = np.sqrt(ab)
    return _sample(denoiser, condition, w, n_samples, smallnet.spawn_rng(seed, 707), steps,
                   coef_x0 / root_ab + coef_xn, -coef_x0 * np.sqrt(1.0 - ab) / root_ab,
                   np.sqrt(sched.posterior_var[i]))


def ddim_timesteps(N: int, steps: int) -> list[int]:
    """``steps`` evenly spaced values of 1..N in descending order: N first and,
    for ``steps`` >= 2, 1 last."""
    if not (1 <= steps <= N):
        raise ValidationError(f"steps must be in 1..{N}, got {steps}")
    ts = np.unique(np.round(np.linspace(N, 1, steps)).astype(int))[::-1]
    return [int(t) for t in ts]


def sample_ddim(
    denoiser: Denoiser,
    condition: np.ndarray,
    w: float,
    steps: int,
    seed: int,
    n_samples: int = 1,
) -> np.ndarray:
    """Deterministic DDIM (eta = 0) over an evenly spaced timestep subsequence.

    Only the starting draw x_N consumes randomness; steps=1 reduces to the
    single-step x0 estimate.
    """
    sched = denoiser.sched
    ts = ddim_timesteps(sched.N, steps)
    # abar at each step, and at the next one (1 after the last)
    ab = sched.alpha_bar[np.asarray(ts) - 1]
    ab_next = np.append(ab[1:], 1.0)
    root_ab, root_ab_next = np.sqrt(ab), np.sqrt(ab_next)
    return _sample(denoiser, condition, w, n_samples, smallnet.spawn_rng(seed, 708), ts,
                   root_ab_next / root_ab,
                   np.sqrt(1.0 - ab_next) - root_ab_next * np.sqrt(1.0 - ab) / root_ab,
                   np.zeros(len(ts)))

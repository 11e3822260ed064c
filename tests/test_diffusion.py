import ast
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from melodygen import diffusion as df
from melodygen import smallnet
from melodygen.config import DiffusionConfig
from melodygen.errors import SamplingError, ShapeError, ValidationError
from conftest import net_eps, reference_ddim, reference_ddpm
from fdcheck import central_diff_grad, check_grads, max_rel_err, sample_coords

SCHED_10 = df.make_schedule(10, 1e-2, 0.1)


def tiny_denoiser(latent_dim=4, cond_dim=3, seed=0, hidden=16, sched=SCHED_10, null=None):
    """A denoiser of (1, 1, latent_dim) latents with time_embed_dim 8, a fusion
    map of 2-wide rows, the schedule ``sched`` and, when given, the learned
    null ``null``. A list ``hidden`` gives one tanh layer per width; ``create``
    builds only one, so that net is built directly."""
    if isinstance(hidden, int):
        config = DiffusionConfig(cond_dim=cond_dim, hidden=hidden, time_embed_dim=8)
        den = df.Denoiser.create((1, 1, latent_dim), 2, config, seed)
    else:
        net = smallnet.DenseNet.create([latent_dim + 8 + cond_dim, *hidden, latent_dim], "tanh",
                                       smallnet.spawn_rng(seed, 606))
        den = df.Denoiser(net, df.ConditionFusion.create(2, cond_dim, seed), sched,
                          (1, 1, latent_dim), time_embed_dim=8)
    den.sched = sched
    if null is not None:
        den.fusion.null_condition = null
    return den


class TestSchedule:
    def test_two_step_product(self):
        s = df.make_schedule(2, 0.1, 0.1)
        assert np.allclose(s.alpha_bar, [0.9, 0.81])

    def test_posterior_var_first_step_zero(self):
        s = df.make_schedule(10, 1e-4, 0.02)
        assert s.posterior_var[0] == 0.0

    def test_terminal_alpha_bar_small(self):
        # independent oracle: plain python product of (1 - beta_i)
        n = 1000
        betas = [1e-4 + (0.02 - 1e-4) * i / (n - 1) for i in range(n)]
        prod = 1.0
        for b in betas:
            prod *= 1.0 - b
        s = df.make_schedule(n, 1e-4, 0.02)
        assert s.alpha_bar[-1] == pytest.approx(prod, rel=1e-9)
        assert s.alpha_bar[-1] < 1e-2

    def test_alpha_bar_strictly_decreasing(self):
        s = df.make_schedule(100, 1e-4, 0.02)
        assert np.all(np.diff(s.alpha_bar) < 0)

    def test_posterior_var_bounded_by_beta(self):
        s = df.make_schedule(100, 1e-4, 0.02)
        assert np.all(s.posterior_var >= 0)
        assert np.all(s.posterior_var <= s.beta + 1e-15)

    def test_invalid_ranges(self):
        with pytest.raises(ValidationError):
            df.make_schedule(10, 0.0, 0.02)
        with pytest.raises(ValidationError):
            df.make_schedule(10, 0.05, 0.02)
        with pytest.raises(ValidationError):
            df.make_schedule(10, 0.1, 1.0)


class InputNet:
    """A net stub that keeps the input it is given and answers zeros; built for
    ``tiny_denoiser``'s widths (time_embed_dim 8, cond_dim 3)."""

    dtype = np.dtype(np.float64)

    def forward_cached(self, inp):
        self.inp = inp
        return np.zeros((len(inp), inp.shape[1] - 8 - 3)), None

    def backward_cached(self, cache, upstream, input_cols):
        return [], np.zeros((len(upstream), 3))


def forward_marginal(sched, x0, steps, noise):
    """The x_n rows that ``training_step`` feeds the net for rows ``x0`` at
    ``steps`` with ``noise``."""
    den = tiny_denoiser(latent_dim=x0.shape[1], sched=sched)
    den.net = InputNet()
    rows = np.zeros((len(x0), 2))
    df.training_step(den, x0, rows, rows, steps=steps, noise=noise,
                     uncond=np.zeros(len(x0), dtype=bool))
    return den.net.inp[:, :x0.shape[1]]


class TestForwardMarginal:
    def test_zero_noise(self):
        s = df.make_schedule(10, 1e-2, 0.1)
        x0 = np.array([[1.0, -2.0]])
        xn = forward_marginal(s, x0, np.array([4]), np.zeros((1, 2)))
        assert np.allclose(xn, math.sqrt(s.alpha_bar[3]) * x0)

    def test_terminal_is_mostly_noise(self):
        s = df.make_schedule(1000, 1e-4, 0.02)
        x0 = np.array([[5.0]])
        eps = np.array([[1.3]])
        xn = forward_marginal(s, x0, np.array([1000]), eps)
        assert abs(xn[0, 0] - eps[0, 0]) < 0.35  # sqrt(1-abar)~1, sqrt(abar)*5 small

    def test_marginal_statistics_monte_carlo(self):
        s = df.make_schedule(100, 1e-4, 0.02)
        rng = smallnet.spawn_rng(30)
        n_draws = 100_000
        x0 = np.full((n_draws, 1), 0.7)
        for n in (1, 50, 100):
            eps = rng.standard_normal((n_draws, 1))
            xn = forward_marginal(s, x0, np.full(n_draws, n), eps)
            ab = s.alpha_bar[n - 1]
            target_mean, target_var = math.sqrt(ab) * 0.7, 1 - ab
            se_mean = math.sqrt(target_var / n_draws)
            assert abs(xn.mean() - target_mean) < 3 * se_mean + 1e-12
            se_var = target_var * math.sqrt(2.0 / (n_draws - 1))
            assert abs(xn.var() - target_var) < 3 * se_var


def ddpm_table(sched):
    """The (steps, alpha, beta, sigma) table ``sample_ddpm`` hands the shared
    sampling loop; no denoiser runs."""
    tables = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(df, "_sample", lambda *args: tables.append(args[-4:]))
        df.sample_ddpm(SimpleNamespace(sched=sched), None, 0.0, seed=0)
    return tables[0]


class TestDdpmStepTable:
    """x' = alpha x_n + beta eps + sigma z is the posterior step at x0_hat =
    (x_n - sqrt(1-abar_n) eps) / sqrt(abar_n)."""

    def test_last_step_is_x0_hat_without_noise(self):
        s = df.make_schedule(10, 1e-2, 0.1)
        steps, alpha, beta, sigma = ddpm_table(s)
        root_ab = math.sqrt(s.alpha_bar[0])
        assert steps == list(range(10, 0, -1))
        assert alpha[-1] == 1.0 / root_ab
        assert beta[-1] == -math.sqrt(1.0 - s.alpha_bar[0]) / root_ab
        assert sigma[-1] == 0.0 and np.all(sigma[:-1] > 0.0)

    def test_noiseless_forward_lands_on_the_previous_marginal(self):
        # with x_n = sqrt(abar_n) x0 (eps = 0), the posterior mean collapses
        # to sqrt(abar_{n-1}) x0
        s = df.make_schedule(50, 1e-3, 0.05)
        _, alpha, _, _ = ddpm_table(s)
        for n in (2, 10, 50):
            assert alpha[50 - n] * math.sqrt(s.alpha_bar[n - 1]) == pytest.approx(
                math.sqrt(s.alpha_bar[n - 2]), rel=1e-12)

    def test_coefficients_against_symbolic_oracle(self):
        import sympy
        s = df.make_schedule(40, 1e-3, 0.04)
        _, alpha_n, beta_n, sigma_n = ddpm_table(s)
        abn, abp, beta, alpha = sympy.symbols("abn abp beta alpha", positive=True)
        coef_x0 = sympy.sqrt(abp) * beta / (1 - abn)
        coef_xn = sympy.sqrt(alpha) * (1 - abp) / (1 - abn)
        step_alpha = coef_x0 / sympy.sqrt(abn) + coef_xn
        step_beta = -coef_x0 * sympy.sqrt(1 - abn) / sympy.sqrt(abn)
        var = (1 - abp) / (1 - abn) * beta
        rng = smallnet.spawn_rng(31)
        for n in rng.integers(2, 41, size=5):
            n = int(n)
            subs = {abn: s.alpha_bar[n - 1], abp: s.alpha_bar[n - 2],
                    beta: s.beta[n - 1], alpha: s.alpha[n - 1]}
            for got, want in ((alpha_n, step_alpha), (beta_n, step_beta),
                              (sigma_n ** 2, var)):
                assert got[40 - n] == pytest.approx(float(want.evalf(subs=subs)), rel=1e-12)


class TestFusion:
    def test_zero_map_gives_zero(self):
        fusion = df.ConditionFusion(W=np.zeros((8, 3)), b=np.zeros(3),
                                    null_condition=np.zeros(3))
        c = fusion.forward(np.ones((2, 4)), np.ones((2, 4)))
        assert c.shape == (2, 3) and np.all(c == 0.0)

    def test_identity_map_is_concatenation(self):
        fusion = df.ConditionFusion(W=np.eye(8), b=np.zeros(8), null_condition=np.zeros(8))
        q, m = np.arange(4.0)[None, :], np.arange(10.0, 14.0)[None, :]
        c = fusion.forward(q, m)
        assert np.allclose(c, np.concatenate([q, m], axis=1))

    def test_zero_padding_ablation(self):
        rng = smallnet.spawn_rng(32)
        fusion = df.ConditionFusion.create(4, 3, seed=0)
        q = rng.standard_normal((3, 4))
        c = fusion.forward(q, np.zeros_like(q))
        expected = np.concatenate([q, np.zeros((3, 4))], axis=1) @ fusion.W + fusion.b
        assert np.allclose(c, expected)
        assert np.allclose(c[1], fusion.W.T @ np.concatenate([q[1], np.zeros(4)]) + fusion.b)

    def test_dim_mismatch(self):
        fusion = df.ConditionFusion.create(4, 3, seed=0)
        with pytest.raises(ShapeError):
            fusion.forward(np.zeros((1, 5)), np.zeros((1, 5)))
        with pytest.raises(ShapeError):
            fusion.forward(np.zeros((2, 4)), np.zeros((1, 4)))


def reference_training_step(den, x0, q, m, n, eps, uncond):
    """training_step's arithmetic as whole-array expressions, with the full
    input gradient of the net sliced afterwards and the fusion map's
    gradients written out. x_n and out - eps are formed in float64 and each
    rounded once into the net's dtype."""
    dtype, fusion = den.net.dtype, den.fusion
    inputs = np.concatenate([q, m], axis=1)
    c_eff = np.where(uncond[:, None], fusion.null_condition[None, :], inputs @ fusion.W + fusion.b)
    ab = den.sched.alpha_bar[n - 1][:, None]
    x_n = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
    inp = np.concatenate([x_n, df.time_embedding(n, den.time_embed_dim), c_eff], axis=1)
    out, cache = den.net.forward_cached(inp.astype(dtype))
    diff = (out - eps).astype(dtype)
    loss = float(np.mean(np.sum(diff * diff, axis=1, dtype=np.float64)))
    grads, d_inp = den.net.backward_cached(cache, 2.0 * diff / len(x0))
    d_c_eff = d_inp[:, den.latent_dim + den.time_embed_dim:].astype(np.float64)
    d_cond = np.where(uncond[:, None], 0.0, d_c_eff)
    d_null = d_c_eff[uncond].sum(axis=0) if uncond.any() else np.zeros(den.cond_dim)
    return loss, grads + [inputs.T @ d_cond, d_cond.sum(axis=0), d_null]


def draws(rng, sched, batch, latent_dim, uncond_prob):
    """One step's steps, noise and condition-dropout mask, drawn in the
    training loop's order."""
    steps = rng.integers(1, sched.N + 1, size=batch)
    noise = rng.standard_normal((batch, latent_dim))
    return steps, noise, rng.random(batch) < uncond_prob


def fusion_grads(den, grads):
    """The fusion map's (dW, db, d_null) of a training step's gradients."""
    assert len(grads) == len(den.named_parameters())
    return grads[-3:]


class TestTrainingStep:
    def test_oracle_denoiser_zero_loss(self):
        # a net stub that always answers with the step's exact noise: the loss
        # collapses to 0
        den = tiny_denoiser()
        rng = smallnet.spawn_rng(34)
        x0 = rng.standard_normal((6, 4))
        n = rng.integers(1, 11, size=6)
        eps = rng.standard_normal((6, 4))

        class OracleNet:
            dtype = np.dtype(np.float64)

            def forward_cached(self, inp):
                return eps, ("cache", inp.shape)

            def backward_cached(self, cache, upstream, input_cols=slice(None)):
                return [], np.zeros(cache[1])[:, input_cols]

        den.net = OracleNet()
        rows = np.zeros((6, 2))
        loss, _ = df.training_step(den, x0, rows, rows, steps=n, noise=eps,
                                   uncond=np.ones(6, dtype=bool))
        assert loss == 0.0

    @pytest.mark.parametrize("latent_dim, batch, dtype", [
        (4, 6, np.float64), (5000, 7, np.float64), (5000, 7, np.float32),
    ], ids=["4-6", "5000-7", "5000-7-float32"])
    def test_matches_reference_and_keeps_noise(self, latent_dim, batch, dtype):
        # latent 5000: long rows, over which a second rounding of x_n or of
        # out - eps into a float32 net shows in the loss and the gradients
        data = smallnet.spawn_rng(40)
        den = tiny_denoiser(latent_dim=latent_dim, seed=9, sched=df.make_schedule(30, 1e-3, 0.05),
                            null=data.standard_normal(3))
        den.net = den.net.astype(dtype)
        x0 = data.standard_normal((batch, latent_dim))
        q, m = data.standard_normal((batch, 2)), data.standard_normal((batch, 2))
        n, eps, uncond = draws(smallnet.spawn_rng(41), den.sched, batch, latent_dim, 0.5)
        assert uncond.any() and not uncond.all()
        eps_before = eps.copy()
        loss, grads = df.training_step(den, x0, q, m, steps=n, noise=eps, uncond=uncond)
        assert np.array_equal(eps, eps_before)
        ref_loss, ref_grads = reference_training_step(den, x0, q, m, n, eps, uncond)
        assert loss == ref_loss
        # the condition columns' gradient is its own BLAS product, which may
        # round differently from the same columns of the full one
        for a, r in zip(fusion_grads(den, grads), ref_grads[-3:]):
            assert a.dtype == np.float64
            if dtype == np.float64:
                assert np.allclose(a, r, rtol=1e-14, atol=1e-15)
            else:
                assert np.allclose(a, r, rtol=1e-5, atol=1e-5 * np.abs(r).max())
        for g, r in zip(grads[:-3], ref_grads[:-3]):
            assert g.dtype == dtype and np.array_equal(g, r)

    def test_float32_denoiser_steps_in_float32_and_tracks_float64(self):
        # latent 5000: long rows; both nets hold the same values
        data = smallnet.spawn_rng(42)
        sched, null = df.make_schedule(30, 1e-3, 0.05), data.standard_normal(3)
        den32 = tiny_denoiser(latent_dim=5000, seed=10, sched=sched, null=null)
        den32.net = den32.net.astype(np.float32)
        den64 = tiny_denoiser(latent_dim=5000, seed=10, sched=sched, null=null)
        den64.net = den32.net.astype(np.float64)
        x0, q, m = (data.standard_normal((7, 5000)), data.standard_normal((7, 2)),
                    data.standard_normal((7, 2)))
        n, eps, uncond = draws(smallnet.spawn_rng(43), sched, 7, 5000, 0.5)
        assert uncond.any() and not uncond.all()
        (l32, g32), (l64, g64) = (df.training_step(den, x0, q, m, steps=n, noise=eps,
                                                   uncond=uncond) for den in (den32, den64))
        assert type(l32) is float and l32 == pytest.approx(l64, rel=1e-6)
        for a32, a64 in zip(g32[:-3], g64[:-3]):
            assert a32.dtype == np.float32 and a64.dtype == np.float64
            assert np.allclose(a32, a64, rtol=1e-4, atol=1e-5 * np.abs(a64).max())
        for a32, a64 in zip(fusion_grads(den32, g32), fusion_grads(den64, g64)):
            assert a32.dtype == a64.dtype == np.float64
            assert np.allclose(a32, a64, rtol=1e-4, atol=1e-5 * np.abs(a64).max())
        assert all(p.dtype == np.float32 for p in den32.net.named_parameters().values())

    @pytest.mark.parametrize("field, value, error", [
        ("steps", np.array([1, 2, 0, 3]), ValidationError),
        ("steps", np.array([1, 2, 11, 3]), ValidationError),
        ("steps", np.ones(5, dtype=int), ValidationError),
        ("noise", np.zeros((4, 5)), ShapeError),
        ("uncond", np.ones(4, dtype=int), ShapeError),
        ("uncond", np.ones(3, dtype=bool), ShapeError),
        ("queries", np.zeros((4, 3)), ShapeError),
        ("queries", np.zeros((3, 2)), ShapeError),
        ("melodies", np.zeros((3, 2)), ShapeError),
        ("x0", np.zeros(4), ShapeError),
    ], ids=["step_0", "step_past_N", "steps_length", "noise_shape", "int_mask", "mask_length",
            "queries_width", "queries_rows", "melodies_rows", "x0_vector"])
    def test_bad_inputs_rejected(self, field, value, error):
        den = tiny_denoiser()
        args = {"x0": np.zeros((4, 4)), "queries": np.zeros((4, 2)),
                "melodies": np.zeros((4, 2)), "steps": np.ones(4, dtype=int),
                "noise": np.zeros((4, 4)), "uncond": np.zeros(4, dtype=bool)}
        args[field] = value
        with pytest.raises(error):
            df.training_step(den, **args)

    def test_zero_denoiser_loss_near_latent_dim(self):
        # E||eps||^2 = latent_dim for a zero predictor (chi-square mean)
        latent_dim = 6
        den = tiny_denoiser(latent_dim=latent_dim, sched=df.make_schedule(50, 1e-3, 0.05))
        for layer in den.net.layers:
            layer.w[:] = 0.0
            layer.b[:] = 0.0
        rng = smallnet.spawn_rng(35)
        rows = np.zeros((32, 2))
        losses = []
        for _ in range(200):
            n, eps, uncond = draws(rng, den.sched, 32, latent_dim, 1.0)
            loss, _ = df.training_step(den, np.zeros((32, latent_dim)), rows, rows, steps=n,
                                       noise=eps, uncond=uncond)
            losses.append(loss)
        n_total = 200 * 32
        se = math.sqrt(2.0 * latent_dim / n_total)  # var of chi2_k mean
        assert abs(np.mean(losses) - latent_dim) < 3 * se

    @pytest.mark.parametrize("uncond_prob", [0.0, 1.0])
    def test_dropout_sends_gradient_to_the_null_or_the_map(self, uncond_prob):
        """Every row dropped: only the null learns. None dropped: the null
        gets no gradient and the map does."""
        den = tiny_denoiser(sched=df.make_schedule(20, 1e-3, 0.05))
        rng = smallnet.spawn_rng(36)
        x0, q, m = (rng.standard_normal((8, 4)), rng.standard_normal((8, 2)),
                    rng.standard_normal((8, 2)))
        n, eps, uncond = draws(rng, den.sched, 8, 4, uncond_prob)
        _, grads = df.training_step(den, x0, q, m, steps=n, noise=eps, uncond=uncond)
        d_w, d_b, d_null = fusion_grads(den, grads)
        if uncond_prob == 1.0:
            assert np.all(d_w == 0.0) and np.all(d_b == 0.0) and np.any(d_null != 0.0)
        else:
            assert np.any(d_w != 0.0) and np.any(d_b != 0.0) and np.all(d_null == 0.0)

    def test_gradients_match_finite_differences_through_the_fusion_map(self):
        """The loss of a whole step, condition fusion and null included, against
        every parameter the optimizer binds, fusion.W, fusion.b and
        fusion.null_condition among them."""
        rng = smallnet.spawn_rng(44)
        den = tiny_denoiser(seed=2, sched=df.make_schedule(20, 1e-3, 0.05),
                            null=rng.standard_normal(3))
        x0, q, m = (rng.standard_normal((6, 4)), rng.standard_normal((6, 2)),
                    rng.standard_normal((6, 2)))
        n, eps, uncond = draws(rng, den.sched, 6, 4, 0.5)
        assert uncond.any() and not uncond.all()
        params = den.named_parameters()
        assert list(params)[-3:] == ["fusion.W", "fusion.b", "fusion.null_condition"]
        check_grads(lambda: df.training_step(den, x0, q, m, steps=n, noise=eps, uncond=uncond),
                    list(params.values()), rng)

    def test_denoiser_gradients_match_finite_differences(self):
        den = tiny_denoiser(seed=2)
        s = df.make_schedule(20, 1e-3, 0.05)
        rng = smallnet.spawn_rng(38)
        x0 = rng.standard_normal((5, 4))
        cond = rng.standard_normal((5, 3))
        # freeze the step's randomness so the loss is a pure function of params
        n = rng.integers(1, 21, size=5)
        eps = rng.standard_normal((5, 4))
        ab = s.alpha_bar[n - 1][:, None]
        xn = np.sqrt(ab) * x0 + np.sqrt(1 - ab) * eps
        inp = np.concatenate([xn, df.time_embedding(n, den.time_embed_dim), cond], axis=1)

        def loss():
            out = den.net.forward(inp)
            d = out - eps
            return float(np.mean(np.sum(d * d, axis=1)))

        out, cache = den.net.forward_cached(inp)
        grads, _ = den.net.backward_cached(cache, 2.0 * (out - eps) / 5)
        worst = 0.0
        for p, g in zip(den.net.named_parameters().values(), grads):
            for coord in sample_coords(rng, p.shape, 3):
                num = central_diff_grad(loss, p, [coord])[coord]
                worst = max(worst, max_rel_err(float(g[coord]), num))
        assert worst <= 1e-4


def guided_step(den, x, n, c, w):
    """eps_bar(x, n) as ``GuidedTrajectory`` forms it: one step with alpha 0
    and beta 1."""
    traj = df.GuidedTrajectory(den, c, w, x, [n])
    traj.step(n, 0.0, 1.0)
    return traj.x()


class TestGuidedEstimate:
    """One guided step against full forwards of the net."""

    def test_w_zero_is_conditional_branch(self):
        rng = smallnet.spawn_rng(39)
        x = rng.standard_normal((2, 4))
        c = rng.standard_normal(3)
        den = tiny_denoiser(seed=3, null=rng.standard_normal(3))
        assert np.allclose(guided_step(den, x, 5, c, 0.0), net_eps(den, x, 5, c),
                           rtol=0, atol=1e-12)

    def test_equal_branches_cancel(self):
        rng = smallnet.spawn_rng(40)
        x = rng.standard_normal((2, 4))
        c = rng.standard_normal(3)
        den = tiny_denoiser(seed=4, null=c)
        for w in (0.0, 1.0, 3.0, 7.5):
            out = guided_step(den, x, 3, c, w)  # null == cond
            assert np.allclose(out, net_eps(den, x, 3, c), rtol=0, atol=1e-12)

    def test_w3_is_4cond_minus_3uncond(self):
        rng = smallnet.spawn_rng(41)
        x = rng.standard_normal((2, 4))
        c = rng.standard_normal(3)
        null = rng.standard_normal(3)
        den = tiny_denoiser(seed=5, null=null)
        expected = 4.0 * net_eps(den, x, 2, c) - 3.0 * net_eps(den, x, 2, null)
        assert np.allclose(guided_step(den, x, 2, c, 3.0), expected, rtol=0, atol=1e-12)

    def test_affine_in_w(self):
        rng = smallnet.spawn_rng(42)
        x, c, null = rng.standard_normal((2, 4)), rng.standard_normal(3), rng.standard_normal(3)
        den = tiny_denoiser(seed=6, null=null)
        e0, e1, e3 = (guided_step(den, x, 4, c, w) for w in (0.0, 1.0, 3.0))
        assert np.allclose(e3, e0 + 3.0 * (e1 - e0), atol=1e-10)


class TestSamplers:
    def test_ddim_timesteps(self):
        assert df.ddim_timesteps(100, 1) == [100]
        assert df.ddim_timesteps(10, 10) == [10, 9, 8, 7, 6, 5, 4, 3, 2, 1]
        ts = df.ddim_timesteps(1000, 100)
        assert ts[0] == 1000 and ts[-1] == 1 and len(ts) == 100
        assert all(a > b for a, b in zip(ts, ts[1:]))
        with pytest.raises(ValidationError):
            df.ddim_timesteps(100, 0)
        with pytest.raises(ValidationError):
            df.ddim_timesteps(100, 101)

    def test_single_step_schedule_is_x0_formula(self):
        den = tiny_denoiser(seed=7, sched=df.make_schedule(1, 0.5, 0.5))
        c = np.zeros(3)
        x = df.sample_ddpm(den, c, 0.0, seed=9, n_samples=2)
        rng = smallnet.spawn_rng(9, 707)
        x_n = rng.standard_normal((2, 4))
        eps = net_eps(den, x_n, 1, np.zeros(3))
        expected = (x_n - math.sqrt(0.5) * eps) / math.sqrt(0.5)
        assert np.allclose(x, expected, atol=1e-12)

    def test_ddim_steps_one_equals_single_estimate(self):
        s = df.make_schedule(50, 1e-3, 0.05)
        den = tiny_denoiser(seed=8, sched=s)
        c = np.zeros(3)
        x = df.sample_ddim(den, c, 0.0, steps=1, seed=10, n_samples=3)
        rng = smallnet.spawn_rng(10, 708)
        x_n = rng.standard_normal((3, 4))
        eps = net_eps(den, x_n, 50, c)
        ab = s.alpha_bar[-1]
        expected = (x_n - math.sqrt(1 - ab) * eps) / math.sqrt(ab)
        assert np.allclose(x, expected, atol=1e-12)

    def test_ddim_deterministic_per_seed(self):
        den = tiny_denoiser(seed=9, sched=df.make_schedule(30, 1e-3, 0.05))
        c = np.ones(3) * 0.2
        a = df.sample_ddim(den, c, 2.0, steps=10, seed=11, n_samples=2)
        b = df.sample_ddim(den, c, 2.0, steps=10, seed=11, n_samples=2)
        assert np.array_equal(a, b)

    def test_perfect_oracle_recovers_x0(self):
        # a denoiser that reports the exact noise that produced x_n: a single
        # reverse step must return x0 to numerical precision
        s = df.make_schedule(1, 0.3, 0.3)
        x0_true = np.array([[0.8, -1.1]])
        eps_true = np.array([[0.5, 0.25]])
        x1 = forward_marginal(s, x0_true, np.array([1]), eps_true)
        _, alpha, beta, _ = ddpm_table(s)
        assert np.allclose(alpha[0] * x1 + beta[0] * eps_true, x0_true, rtol=0, atol=1e-12)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nan_denoiser_aborts_with_step(self):
        den = tiny_denoiser(seed=10, sched=df.make_schedule(5, 1e-2, 0.1))
        den.net.layers[0].w[0, 0] = 1.0
        # force non-finite output by poisoning a bias after construction
        den.net.layers[-1].b[:] = np.inf
        with pytest.raises(SamplingError) as e:
            df.sample_ddpm(den, np.zeros(3), 1.0, seed=12)
        assert e.value.step == 5  # fails on the first (highest) step

    def test_equal_conditions_identical_outputs(self):
        # the zero-melody ablation only changes the condition vector; if two
        # conditions are equal the sampler output is bit-identical
        den = tiny_denoiser(seed=11, sched=df.make_schedule(20, 1e-3, 0.05))
        c = np.array([0.1, -0.2, 0.3])
        a = df.sample_ddim(den, c.copy(), 3.0, steps=5, seed=13)
        b = df.sample_ddim(den, c.copy(), 3.0, steps=5, seed=13)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("sampler, draws", [
        (lambda den, c: df.sample_ddpm(den, c, 3.0, seed=14, n_samples=2), 6),
        (lambda den, c: df.sample_ddim(den, c, 3.0, steps=4, seed=14, n_samples=2), 1),
    ], ids=["ddpm", "ddim"])
    def test_noise_is_drawn_only_where_sigma_is_positive(self, monkeypatch, sampler, draws):
        """x_N, then one z per step with sigma > 0: every DDPM step but n = 1
        (posterior variance 0), and no DDIM step (eta = 0). A z drawn where
        sigma = 0 leaves x unchanged, so only the draw count can show it."""
        shapes, spawn = [], smallnet.spawn_rng

        class Counted:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, shape):
                shapes.append(shape)
                return self.rng.standard_normal(shape)

        c = np.full(3, 0.1)
        den = tiny_denoiser(seed=12, sched=df.make_schedule(6, 1e-3, 0.05), null=c)
        plain = sampler(den, c)
        monkeypatch.setattr(smallnet, "spawn_rng", lambda *keys: Counted(spawn(*keys)))
        assert np.array_equal(sampler(den, c), plain)
        assert shapes == [(2, den.latent_dim)] * draws


class Untouchable:
    def __getattr__(self, name):
        raise AssertionError(f"denoiser net used ({name})")


class TestFusedGuidance:
    """The samplers' fused guidance against the two-forward reference loops."""

    SCHED = df.make_schedule(20, 1e-3, 0.05)

    def make(self, hidden, per_row, seed=0):
        """(denoiser, condition, the denoiser's learned null)."""
        rng = smallnet.spawn_rng(100 + seed)
        c = rng.standard_normal((3, 5) if per_row else 5)
        den = tiny_denoiser(latent_dim=12, cond_dim=5, seed=seed, hidden=hidden,
                            sched=self.SCHED, null=rng.standard_normal(5))
        return den, c, den.fusion.null_condition

    @pytest.mark.parametrize("hidden", [16, [8, 6]], ids=["h16", "h8-6"])
    @pytest.mark.parametrize("per_row", [False, True], ids=["broadcast", "per_row"])
    @pytest.mark.parametrize("w", [0.0, 1.0, 3.0, 7.5])
    def test_samplers_match_the_two_forward_reference(self, hidden, per_row, w):
        den, c, _ = self.make(hidden, per_row)
        ddim = df.sample_ddim(den, c, w, steps=7, seed=21, n_samples=3)
        ddpm = df.sample_ddpm(den, c, w, seed=22, n_samples=3)
        assert np.allclose(ddim, reference_ddim(den, c, w, 7, 21, 3), rtol=0, atol=1e-12)
        assert np.allclose(ddpm, reference_ddpm(den, c, w, 22, 3), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("per_row", [False, True], ids=["broadcast", "per_row"])
    def test_null_equal_to_condition_is_the_conditional_branch(self, per_row):
        den, c, _ = self.make([8, 6], per_row, seed=1)
        den.fusion.null_condition = c
        for w in (1.0, 3.0, 7.5):
            guided = df.sample_ddim(den, c, w, steps=7, seed=23, n_samples=3)
            cond = df.sample_ddim(den, c, 0.0, steps=7, seed=23, n_samples=3)
            assert np.allclose(guided, cond, rtol=0, atol=1e-12)

    def test_w_zero_never_reads_the_null(self):
        den, c, null = self.make(16, False, seed=2)
        null[...] = np.nan
        x = df.sample_ddpm(den, c, 0.0, seed=24, n_samples=3)
        null[...] = 0.0
        assert np.array_equal(x, df.sample_ddpm(den, c, 0.0, seed=24, n_samples=3))

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("batch", [1, 3])
    def test_non_finite_null_alone_raises_at_the_first_step(self, batch):
        """The null branch shares the conditional branch's fused pass; a NaN
        there alone still stops both samplers at their first step."""
        den, c, null = self.make(16, False, seed=4)
        null[2] = np.nan
        with pytest.raises(SamplingError) as e:
            df.sample_ddim(den, c, 3.0, steps=7, seed=29, n_samples=batch)
        assert e.value.step == df.ddim_timesteps(self.SCHED.N, 7)[0]
        with pytest.raises(SamplingError) as e:
            df.sample_ddpm(den, c, 3.0, seed=29, n_samples=batch)
        assert e.value.step == self.SCHED.N

    def test_negative_w_rejected_before_the_denoiser_runs(self):
        den, c, _ = self.make(16, False)
        den.net = Untouchable()
        with pytest.raises(ValidationError):
            df.sample_ddim(den, c, -0.5, steps=7, seed=25)
        with pytest.raises(ValidationError):
            df.sample_ddpm(den, c, -0.5, seed=25)

    def test_condition_rows_must_match_samples(self):
        den, c, null = self.make(16, True)
        with pytest.raises(ShapeError):
            df.sample_ddim(den, c, 3.0, steps=7, seed=26, n_samples=2)
        den.fusion.null_condition = null[:4]
        with pytest.raises(ShapeError):
            df.sample_ddpm(den, c[0], 3.0, seed=26, n_samples=3)

    @pytest.mark.parametrize("hidden", [16, [8, 6]], ids=["h16", "h8-6"])
    @pytest.mark.parametrize("per_row", [False, True], ids=["broadcast", "per_row"])
    def test_hidden_product_tracks_the_latent(self, monkeypatch, hidden, per_row):
        """After every DDIM and DDPM step, u is the latent's layer-0 product."""
        den, c, _ = self.make(hidden, per_row, seed=3)
        w_x = den.net.layers[0].w[:, :den.latent_dim]
        step, steps_seen = df.GuidedTrajectory.step, []

        def checked_step(traj, n, *args):
            step(traj, n, *args)
            assert np.allclose(traj.u, traj.x() @ w_x.T, rtol=0, atol=1e-12)
            steps_seen.append(n)

        monkeypatch.setattr(df.GuidedTrajectory, "step", checked_step)
        df.sample_ddim(den, c, 3.0, steps=7, seed=27, n_samples=3)
        df.sample_ddpm(den, c, 3.0, seed=28, n_samples=3)
        assert steps_seen == df.ddim_timesteps(self.SCHED.N, 7) + list(range(self.SCHED.N, 0, -1))


class TestHiddenLayerRequired:
    def test_create_refuses_a_net_without_hidden_layer(self):
        with pytest.raises(ValidationError, match="hidden layer"):
            tiny_denoiser(hidden=0)

    def test_load_refuses_a_net_without_hidden_layer(self, tmp_path):
        den = tiny_denoiser()
        den.net = smallnet.DenseNet.create([4 + 8 + 3, 4], "tanh", smallnet.spawn_rng(0))
        path = tmp_path / "diffusion.ckpt"
        den.save(path)
        with pytest.raises(ValidationError, match="no hidden layer"):
            df.Denoiser.load(path)


def quantized(den):
    """``den`` with every weight replaced in place by the float32 value a
    checkpoint stores for it."""
    for p in den.named_parameters().values():
        p[...] = smallnet.as_stored(p)
    return den


class TestStoredSamplerConstants:
    SCHED = df.make_schedule(20, 1e-3, 0.05)

    def saved(self, tmp_path, hidden=16):
        den = tiny_denoiser(latent_dim=12, cond_dim=5, seed=4, hidden=hidden, sched=self.SCHED,
                            null=smallnet.spawn_rng(6).standard_normal(5))
        path = tmp_path / "diffusion.ckpt"
        den.save(path)
        return den, path

    @pytest.mark.parametrize("hidden", [16, [8, 6]], ids=["h16", "h8-6"])
    def test_round_trip_stores_the_constants_of_the_loaded_weights(self, tmp_path, hidden):
        _, path = self.saved(tmp_path, hidden)
        den = df.Denoiser.load(path)
        stored = den.sampler_constants()
        den.stored_constants = None
        formed = den.sampler_constants()
        first = den.net.layers[0].w.shape[0]
        assert [a.shape for a in stored] == [(first, den.net.layers[-1].w.shape[1]), (first,)]
        for s, f in zip(stored, formed):
            assert np.array_equal(s, f)

    @pytest.mark.parametrize("w", [0.0, 3.0])
    def test_samplers_from_loaded_and_quantized_denoisers_are_bit_identical(self, tmp_path, w):
        den, path = self.saved(tmp_path)
        loaded, in_memory = df.Denoiser.load(path), quantized(den)
        assert in_memory.stored_constants is None
        c = smallnet.spawn_rng(5).standard_normal((3, 5))
        for sample in (
            lambda d: df.sample_ddim(d, c, w, steps=7, seed=31, n_samples=3),
            lambda d: df.sample_ddpm(d, c, w, seed=32, n_samples=3),
        ):
            assert np.array_equal(sample(loaded), sample(in_memory))

    @pytest.mark.parametrize("name", df.SAMPLER_ARRAYS)
    def test_missing_array_is_refused_by_name(self, tmp_path, name):
        _, path = self.saved(tmp_path)
        arrays, meta = smallnet.load_checkpoint(path)
        del arrays[name]
        smallnet.save_checkpoint(path, arrays, meta)
        with pytest.raises(ValidationError) as e:
            df.Denoiser.load(path)
        assert str(path) in str(e.value) and repr(name) in str(e.value)
        assert "rerun train-diffusion" in str(e.value)

    @pytest.mark.parametrize("name, edit, problem", [
        ("sampler.M", lambda a: a[:, :-1], "has shape"),
        ("sampler.m_b", lambda a: a[None, :], "has shape"),
        ("sampler.M", lambda a: np.where(a == a.flat[0], np.nan, a), "is not finite"),
        ("sampler.m_b", lambda a: np.full_like(a, np.inf), "is not finite"),
    ], ids=["M_shape", "m_b_shape", "M_nan", "m_b_inf"])
    def test_damaged_array_is_refused_by_name(self, tmp_path, name, edit, problem):
        _, path = self.saved(tmp_path)
        arrays, meta = smallnet.load_checkpoint(path)
        arrays[name] = edit(arrays[name])
        smallnet.save_checkpoint(path, arrays, meta, exact=df.SAMPLER_ARRAYS)
        with pytest.raises(ValidationError, match=f"{name} {problem}.*rerun train-diffusion"):
            df.Denoiser.load(path)


def test_time_embedding_refuses_an_odd_dim():
    with pytest.raises(ValidationError, match="must be even"):
        df.time_embedding(np.array([1, 2]), 7)


@pytest.mark.parametrize("steps", [df.ddim_timesteps(200, 100), list(range(200, 0, -1)),
                                   [7]], ids=["ddim", "ddpm", "one_step"])
def test_step_table_time_rows_equal_the_per_step_embedding(steps):
    """The stacked time product is bit-equal to each step's own row product, at
    tiny widths and at the pipeline's (time_embed_dim 64, hidden 128)."""
    for latent, cond, embed, hidden in ((12, 5, 8, 16), (16, 64, 64, 128)):
        den = df.Denoiser.create((1, 1, latent), 4, DiffusionConfig(
            cond_dim=cond, hidden=hidden, time_embed_dim=embed), seed=6)
        w_t = den.net.layers[0].w[:, latent:latent + embed]
        table = df.time_embedding(np.asarray(steps), embed)
        traj = df.GuidedTrajectory(den, np.zeros(cond), 3.0, np.zeros((1, latent)), steps)
        assert list(traj.time_rows) == steps
        for row, n in zip(table, steps):
            per_step = df.time_embedding(np.array([n]), embed)[0]
            assert np.array_equal(row, per_step)
            assert np.array_equal(traj.time_rows[n], per_step @ w_t.T)


def test_only_diffusion_knows_what_diffusion_ckpt_holds(tmp_path):
    """The layout of diffusion.ckpt stays behind ``Denoiser``: no other module
    names one of its meta keys, or makes a noise schedule or a fusion map."""
    path = tmp_path / "diffusion.ckpt"
    tiny_denoiser().save(path)
    meta = smallnet.load_checkpoint(path)[1]
    # clmp.ckpt's meta holds an embed_dim of its own
    keys = (set(meta) | set(meta["extra"])) - {"embed_dim"}
    users = set()
    for path in Path(df.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or (
                node.name if isinstance(node, ast.alias) else None)
            if name in ("make_schedule", "ConditionFusion") or (
                    isinstance(node, ast.Constant) and node.value in keys):
                users.add(path.stem)
    assert users <= {"diffusion"}, users

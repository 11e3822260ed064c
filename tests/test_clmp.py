import hashlib

import numpy as np
import pytest

from melodygen import clmp, smallnet
from melodygen import melody_codec as mc
from melodygen.config import ClmpConfig
from melodygen.errors import ValidationError
from melodygen.signal import DB_FLOOR
from conftest import SIGNAL, golden_key
from fdcheck import central_diff_grad, max_rel_err, sample_coords


def toy_melody(pitches=(60, 64, 67), dur=40, rest=0):
    return tuple(mc.MelodyTriplet(mc.pitch_name(p), dur, rest) for p in pitches)


def toy_mel(rng, frames=24, bins=16):
    return DB_FLOOR + 60.0 * rng.random((frames, bins))


def toy_triples(n, seed=0, bins=16):
    rng = smallnet.spawn_rng(seed)
    words = ["calm", "bright", "slow", "fast", "deep", "high", "airy", "warm"]
    out = []
    for i in range(n):
        text = " ".join(rng.choice(words, size=4)) + f" item{i}"
        melody = toy_melody(tuple(int(p) for p in rng.integers(40, 90, size=4)))
        out.append(clmp.Triple(f"t{i}", text, melody, toy_mel(rng, bins=bins)))
    return out


def batch_features(batch):
    """Text, wave and per-token melody features of aligned triples."""
    return (clmp.features("text", [t.text for t in batch]),
            clmp.features("waveform", [t.mel for t in batch]),
            clmp.features("melody", [t.melody for t in batch]))


def batch_loss(model, batch):
    """The training loss of ``model`` on one batch of triples."""
    return clmp._loss_and_grads(model, *batch_features(batch))[0]


def toy_model(seed=0, bins=16):
    return clmp.ClmpModel.create(ClmpConfig(embed_dim=16, hidden=24, token_embed_dim=8),
                                 wave_dim=2 * bins, seed=seed)


class TestFeaturizeText:
    def test_deterministic(self):
        a = clmp.featurize_text("fast arpeggio in a high register")
        b = clmp.featurize_text("fast arpeggio in a high register")
        assert np.array_equal(a, b)

    def test_whitespace_normalization(self):
        a = clmp.featurize_text("fast  arpeggio")
        b = clmp.featurize_text(" fast arpeggio ")
        assert np.array_equal(a, b)

    def test_case_insensitive(self):
        assert np.array_equal(clmp.featurize_text("Fast ARPEGGIO"),
                              clmp.featurize_text("fast arpeggio"))

    def test_unit_norm_and_dim(self):
        v = clmp.featurize_text("a drone")
        assert v.shape == (256,)
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            clmp.featurize_text("   ")

    def test_disjoint_vocabularies_near_orthogonal(self):
        # independent oracle: reconstruct each text's sparse signed-hash vector
        # from the gram hashes alone, and predict the cosine from collisions
        def oracle_vector(text):
            tokens = text.split()
            grams = tokens + [f"{a} {b}" for a, b in zip(tokens, tokens[1:])]
            v = np.zeros(256)
            for g in grams:
                h = clmp._stable_hash(g)
                v[h % 256] += 1.0 if (h >> 63) & 1 else -1.0
            return v / np.linalg.norm(v)

        rng = smallnet.spawn_rng(17)
        vocab_a = [f"aa{i}" for i in range(60)]
        vocab_b = [f"bb{i}" for i in range(60)]
        cosines = []
        for _ in range(20):
            ta = " ".join(rng.choice(vocab_a, size=16))
            tb = " ".join(rng.choice(vocab_b, size=16))
            fa, fb = clmp.featurize_text(ta), clmp.featurize_text(tb)
            predicted = float(oracle_vector(ta) @ oracle_vector(tb))
            assert float(fa @ fb) == pytest.approx(predicted, abs=1e-12)
            cosines.append(abs(float(fa @ fb)))
        # collision noise is ~N(0, grams^2/dim)/grams: near-orthogonal on average
        assert np.mean(cosines) <= 0.1


class TestFeaturizeWave:
    def test_constant_grid(self):
        m = np.full((10, 8), -20.0)
        v = clmp.featurize_wave(m)
        assert np.allclose(v[8:], 0.0)  # std half
        assert np.allclose(v[:8], v[0])  # equal mean half

    def test_time_shuffle_invariant(self):
        rng = smallnet.spawn_rng(18)
        m = toy_mel(rng)
        shuffled = m[rng.permutation(m.shape[0])]
        assert np.allclose(clmp.featurize_wave(m), clmp.featurize_wave(shuffled))

    def test_octave_pair_distinguishable(self):
        from melodygen.signal import mel_spectrogram, synthesize_melody
        low = synthesize_melody(toy_melody((48, 50, 52), dur=60), (1.0,), SIGNAL.sample_rate)
        high = synthesize_melody(toy_melody((60, 62, 64), dur=60), (1.0,), SIGNAL.sample_rate)
        a = clmp.featurize_wave(mel_spectrogram(low, SIGNAL))
        b = clmp.featurize_wave(mel_spectrogram(high, SIGNAL))
        assert float(a @ b) < 0.99


class TestEmbed:
    @pytest.mark.parametrize("modality", ["text", "waveform", "melody"])
    def test_batch_rows_equal_one_item_batches(self, modality):
        model = toy_model()
        triples = toy_triples(7, seed=19)
        items = [{"text": t.text, "waveform": t.mel, "melody": t.melody}[modality]
                 for t in triples]
        batch = clmp.embed(model, modality, items)
        assert batch.shape == (7, model.embed_dim)
        singles = np.concatenate([clmp.embed(model, modality, [item]) for item in items])
        assert np.allclose(batch, singles, rtol=0.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(batch, axis=1), 1.0, rtol=0.0, atol=1e-12)

    def test_mean_pool_repeat_invariance(self):
        one, five = clmp.embed(toy_model(), "melody", [toy_melody((60,)), toy_melody((60,) * 5)])
        assert np.allclose(one, five)

    def test_mean_pool_and_its_gradient_equal_a_per_melody_loop(self):
        """Bit for bit: each pooled row is its melody's own mean (a segment sum
        such as np.add.reduceat adds in another order), and each token gets an
        even share of its row's gradient."""
        model = toy_model()
        rng = smallnet.spawn_rng(23)
        melodies = clmp.features("melody", [toy_melody(tuple(int(p) for p in rng.integers(
            40, 90, size=n))) for n in (1, 3, 9, 17)])
        path = clmp._MelodyPath(model, melodies)
        tok = model.melody_token_embed.forward(np.concatenate(melodies))
        bounds = np.cumsum([0] + [len(m) for m in melodies])
        pooled = np.stack([tok[a:b].mean(axis=0) for a, b in zip(bounds, bounds[1:])])
        assert np.array_equal(path.head_path.raw, model.melody_head.forward(pooled))

        d_emb = rng.standard_normal(path.emb.shape)
        _, d_pooled = path.head_path.backward(d_emb, slice(None))
        d_tok = np.concatenate([np.tile(d_pooled[i] / len(m), (len(m), 1))
                                for i, m in enumerate(melodies)])
        reference, _ = model.melody_token_embed.backward_cached(path.tok_cache, d_tok, None)
        for g, r in zip(path.backward(d_emb)[0], reference):
            assert np.array_equal(g, r)

    def test_unknown_modality(self):
        with pytest.raises(ValidationError):
            clmp.embed(toy_model(), "video", [np.zeros(4)])


class TestContrastiveLoss:
    def test_random_batch_near_log_n(self):
        # independent random query/candidate clouds: each directed term
        # concentrates near log N
        rng = smallnet.spawn_rng(20)
        n = 8
        losses = []
        for _ in range(100):
            a = rng.standard_normal((n, 16))
            a /= np.linalg.norm(a, axis=1, keepdims=True)
            b = rng.standard_normal((n, 16))
            b /= np.linalg.norm(b, axis=1, keepdims=True)
            loss, _, _ = clmp._directed_infonce(a @ b.T, tau=1.0)
            losses.append(loss)
        assert abs(np.mean(losses) - np.log(n)) < 0.2

    def test_perfect_alignment_small_tau_near_zero(self):
        n, d = 4, 8
        emb = np.eye(n, d)
        loss, _, _ = clmp._directed_infonce(emb @ emb.T, tau=0.01)
        assert loss < 1e-6

    def test_symmetric_batch_identity(self):
        # transposing the similarity matrix gives exactly the other direction
        rng = smallnet.spawn_rng(21)
        a = rng.standard_normal((6, 16))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b = rng.standard_normal((6, 16))
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        s = a @ b.T
        l_ba_via_transpose, _, _ = clmp._directed_infonce(s.T, tau=0.3)
        l_ba_direct, _, _ = clmp._directed_infonce(b @ a.T, tau=0.3)
        assert l_ba_via_transpose == pytest.approx(l_ba_direct, rel=1e-12)

    def test_directed_terms_nonnegative(self):
        rng = smallnet.spawn_rng(22)
        for _ in range(50):
            e = rng.standard_normal((5, 8))
            e /= np.linalg.norm(e, axis=1, keepdims=True)
            f = rng.standard_normal((5, 8))
            f /= np.linalg.norm(f, axis=1, keepdims=True)
            loss, _, _ = clmp._directed_infonce(e @ f.T, tau=0.5)
            assert loss >= 0.0

    def test_tau_positive_structurally(self):
        model = toy_model()
        model.log_tau[0] = -50.0
        assert model.tau > 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradients_match_finite_differences(self, seed):
        bins = 16
        model = toy_model(seed=seed, bins=bins)
        batch = toy_triples(5, seed=seed, bins=bins)
        text, wave, melody = batch_features(batch)

        def loss():
            return clmp._loss_and_grads(model, text, wave, melody)[0]

        _, grads = clmp._loss_and_grads(model, text, wave, melody)
        params = model.named_parameters().values()
        rng = smallnet.spawn_rng(900 + seed)
        worst = 0.0
        for p, g in zip(params, grads):
            for coord in sample_coords(rng, p.shape, 3):
                num = central_diff_grad(loss, p, [coord])[coord]
                worst = max(worst, max_rel_err(float(g[coord]), num))
        assert worst <= 1e-4


class TestTraining:
    def test_loss_decreases_over_first_epochs(self):
        model = toy_model(seed=3)
        triples = toy_triples(40, seed=3)
        result = clmp.train_clmp(model, triples, ClmpConfig(
            batch_size=8, epochs=5, learning_rate=1e-3), seed=3)
        curve = result.loss_curve
        assert all(curve[i + 1] < curve[i] for i in range(4))

    def test_zero_lr_keeps_parameters_and_loss(self):
        model = toy_model(seed=4)
        before = [p.copy() for p in model.named_parameters().values()]
        triples = toy_triples(16, seed=4)
        fixed_batch = triples[:8]
        loss_before = batch_loss(model, fixed_batch)
        clmp.train_clmp(model, triples, ClmpConfig(
            batch_size=8, epochs=3, learning_rate=0.0), seed=4)
        for a, b in zip(before, model.named_parameters().values()):
            assert np.array_equal(a, b)
        assert batch_loss(model, fixed_batch) == loss_before

    def test_same_seed_bit_identical_checkpoints(self, tmp_path):
        def run(path):
            model = toy_model(seed=5)
            clmp.train_clmp(model, toy_triples(16, seed=5), ClmpConfig(
                batch_size=8, epochs=3, learning_rate=1e-3), seed=5)
            model.save(path)

        run(tmp_path / "a.json")
        run(tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_corpus_smaller_than_batch_rejected(self):
        with pytest.raises(ValidationError, match="clmp.batch_size"):
            clmp.train_clmp(toy_model(), toy_triples(4), ClmpConfig(batch_size=8), seed=0)

    def test_checkpoint_roundtrip_preserves_embeddings(self, tmp_path):
        model = toy_model(seed=6)
        path = tmp_path / "m.json"
        model.save(path)
        back = clmp.ClmpModel.load(path)
        text = ["gentle rising line"]
        assert np.allclose(clmp.embed(model, "text", text), clmp.embed(back, "text", text),
                           atol=1e-6)


# SHA-256 of a float64 train_clmp run (the loss curve's repr, then each
# trained weight's float64 bytes in named_parameters() order), keyed by
# golden_key(). The golden clmp.ckpt pin stores float32, so it misses drift
# below float32 resolution in the float64 training arithmetic.
GOLDEN_FLOAT64_CLMP_SHA256 = {
    ("x86_64", "2.4.6", "scipy-openblas"):
        "ff659e8133e82f36802babc8064e246de36b711498937d1b4002b5f57dc1c1ad",
}


def test_float64_training_matches_golden_hash():
    key = golden_key()
    if key not in GOLDEN_FLOAT64_CLMP_SHA256:
        pytest.skip(f"no golden float64 CLMP hash pinned for {key}")
    rng = smallnet.spawn_rng(24)

    def triple(i, n_notes):  # 1 to 17 notes, so the mean pool sees many lengths
        words = " ".join(rng.choice(["bright", "slow", "deep", "airy"], size=3))
        melody = toy_melody(tuple(int(p) for p in rng.integers(40, 90, size=n_notes)))
        return clmp.Triple(f"t{i}", f"calm line item{i} {words}", melody, toy_mel(rng))

    triples = [triple(i, n) for i, n in enumerate(rng.integers(1, 18, size=24))]
    model = toy_model(seed=24)
    result = clmp.train_clmp(model, triples, ClmpConfig(batch_size=8, epochs=3,
                                                        learning_rate=1e-3), seed=24)
    digest = hashlib.sha256(repr(result.loss_curve).encode())
    for p in model.named_parameters().values():
        digest.update(p.tobytes())
    assert digest.hexdigest() == GOLDEN_FLOAT64_CLMP_SHA256[key]


class TestEvalRetrieval:
    def test_perfect_alignment_gives_ones(self):
        # identical per-item embeddings across modalities: every metric is 1
        model = toy_model(seed=7)
        triples = toy_triples(12, seed=7)
        emb = np.eye(12, 16)
        out = {}
        for d in clmp.DIRECTIONS:
            sims = emb @ emb.T
            diag = np.diag(sims)
            ranks = 1 + (sims > diag[:, None]).sum(axis=1)
            out[d] = float(np.mean(ranks <= 1))
        assert all(v == 1.0 for v in out.values())

    def test_true_mate_ranked_11th_scores_zero(self):
        # craft rank-11 geometry directly on the rank computation
        sims = np.zeros((12, 12))
        for i in range(12):
            sims[i, i] = 0.5
            others = [j for j in range(12) if j != i][:10]
            for j in others:
                sims[i, j] = 0.9
        diag = np.diag(sims)
        ranks = 1 + (sims > diag[:, None]).sum(axis=1)
        assert np.all(ranks == 11)
        assert np.mean(np.where(ranks <= 10, 1.0 / ranks, 0.0)) == 0.0

    def test_metrics_monotone_in_k_and_bounded(self):
        model = toy_model(seed=8)
        triples = toy_triples(16, seed=8)
        table = clmp.eval_retrieval(model, triples)
        for d, row in table.items():
            assert 0.0 <= row["r1"] <= row["r5"] <= row["r10"] <= 1.0
            assert 0.0 <= row["map10"] <= 1.0

    def test_small_eval_set_rejected(self):
        with pytest.raises(ValidationError):
            clmp.eval_retrieval(toy_model(), toy_triples(5))

    def test_chance_level_r1(self):
        # untrained random models on random data: R@1 concentrates near 1/n
        rng = smallnet.spawn_rng(23)
        n = 64
        r1s = []
        for _ in range(50):
            q = rng.standard_normal((n, 8))
            c = rng.standard_normal((n, 8))
            q /= np.linalg.norm(q, axis=1, keepdims=True)
            c /= np.linalg.norm(c, axis=1, keepdims=True)
            sims = q @ c.T
            diag = np.diag(sims)
            ranks = 1 + (sims > diag[:, None]).sum(axis=1)
            r1s.append(float(np.mean(ranks <= 1)))
        assert abs(np.mean(r1s) - 1.0 / n) < 3.0 * np.sqrt((1 / n) * (1 - 1 / n) / (n * 50)) + 0.005

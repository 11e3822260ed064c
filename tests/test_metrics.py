import numpy as np
import pytest

from melodygen import metrics, smallnet
from melodygen.errors import ValidationError


# two rows +-c: mean 0 and variance 2 c^2, exactly; n = 2 > d = 1, so no
# regularization
def pm(c, shift=0.0):
    return np.array([[shift + c], [shift - c]])


class TestFrechet:
    def test_same_samples_give_zero(self):
        rng = smallnet.spawn_rng(0)
        v = rng.standard_normal((50, 6))
        assert metrics.frechet(v, v) <= 1e-6

    def test_equal_variances_shifted_by_one(self):
        # variance 2 each, means 0 and 1: only the mean term remains
        assert metrics.frechet(pm(1.0), pm(1.0, shift=1.0)) == pytest.approx(1.0, abs=1e-9)

    def test_variance_eight_vs_two(self):
        # (sqrt(8) - sqrt(2))^2 = 2
        assert metrics.frechet(pm(2.0), pm(1.0)) == pytest.approx(2.0, abs=1e-9)

    def test_symmetry(self):
        rng = smallnet.spawn_rng(1)
        a = rng.standard_normal((40, 5))
        b = 1.0 + 0.5 * rng.standard_normal((40, 5))
        assert metrics.frechet(a, b) == pytest.approx(metrics.frechet(b, a), abs=1e-9)

    def test_triangle_inequality_spot_checks(self):
        # Fréchet distance between Gaussians is a metric: check sqrt values
        rng = smallnet.spawn_rng(2)
        samples = [rng.standard_normal(4)
                   + rng.standard_normal((60, 4)) @ np.diag(0.5 + rng.random(4))
                   for _ in range(3)]
        dab = np.sqrt(metrics.frechet(samples[0], samples[1]))
        dbc = np.sqrt(metrics.frechet(samples[1], samples[2]))
        dac = np.sqrt(metrics.frechet(samples[0], samples[2]))
        assert dac <= dab + dbc + 1e-9

    def test_matrix_sqrt_squares_back(self):
        rng = smallnet.spawn_rng(3)
        for _ in range(5):
            m = rng.standard_normal((6, 6))
            cov = m @ m.T
            root = metrics._sqrtm_psd(cov)
            assert np.linalg.norm(root @ root - cov) <= 1e-8 * max(1, np.linalg.norm(cov))

    def test_regularization_exactly_when_n_le_d(self):
        # constant rows fit covariance 0, plus 1e-6 * I when n <= d: against
        # an n > d fit of covariance 0 and the same mean, only Tr(1e-6 * I) =
        # d * 1e-6 remains
        low, high = np.zeros((2, 2)), np.zeros((3, 2))
        assert metrics.frechet(low, high) == pytest.approx(2e-6, abs=1e-15)
        assert metrics.frechet(high, low) == pytest.approx(2e-6, abs=1e-15)
        assert metrics.frechet(high, high + 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError, match="feature dims differ"):
            metrics.frechet(pm(1.0), np.zeros((2, 2)))

    @pytest.mark.parametrize("shape", [(1, 3), (5,), (2, 2, 2)])
    def test_non_sample_matrix_rejected(self, shape):
        with pytest.raises(ValidationError, match=r"need an \(n>=2, d\) matrix"):
            metrics.frechet(np.zeros(shape), np.zeros((4, 3)))


def make_probe(classes=("a", "b"), seed=0):
    rng = smallnet.spawn_rng(seed)
    net = smallnet.DenseNet.create([4, 8, len(classes)], "tanh", rng)
    return metrics.ProbeClassifier(net=net, classes=tuple(classes))


class TestProbe:
    def _separable(self, n_classes=4, n_per=60, seed=5):
        rng = smallnet.spawn_rng(seed)
        feats, labels = [], []
        for c in range(n_classes):
            center = np.zeros(8)
            center[c] = 3.0
            feats.append(center + 0.3 * rng.standard_normal((n_per, 8)))
            labels += [f"class{c}"] * n_per
        return np.concatenate(feats), labels

    def test_well_separated_classes_high_accuracy(self):
        feats, labels = self._separable()
        probe = metrics.train_probe(feats, labels, seed=5)
        assert probe.holdout_accuracy >= 0.9

    def test_shuffled_labels_chance_accuracy(self):
        feats, labels = self._separable()
        rng = smallnet.spawn_rng(6)
        shuffled = [labels[i] for i in rng.permutation(len(labels))]
        probe = metrics.train_probe(feats, shuffled, seed=6)
        assert probe.holdout_accuracy <= 0.5  # chance is 0.25 for 4 classes

    def test_probabilities_sum_to_one(self):
        probe = make_probe()
        rng = smallnet.spawn_rng(7)
        p = probe.predict_proba(rng.standard_normal((10, 4)))
        assert np.allclose(p.sum(axis=1), 1.0)
        assert np.all(p >= 0)

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            metrics.train_probe(np.zeros((10, 3)), ["x"] * 10, seed=0)


class TestPairedKl:
    def test_identical_rows_zero(self):
        probe = make_probe(seed=8)
        feats = smallnet.spawn_rng(8).standard_normal((6, 4))
        assert metrics.paired_kl(probe, feats, feats.copy()) == pytest.approx(0.0, abs=1e-12)

    def test_mean_of_row_by_row_kl_from_reference_to_generated(self):
        """Row i of the generated features is scored against row i of the
        reference ones only, as KL(reference || generated)."""
        probe = make_probe(classes=("a", "b", "c"), seed=14)
        rng = smallnet.spawn_rng(14)
        gen, ref = rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
        per_row = [metrics.kl_divergence(probe.predict_proba(r[None])[0],
                                         probe.predict_proba(g[None])[0])
                   for g, r in zip(gen, ref)]
        assert metrics.paired_kl(probe, gen, ref) == pytest.approx(np.mean(per_row), rel=1e-12)
        assert metrics.paired_kl(probe, gen, ref[::-1]) != pytest.approx(np.mean(per_row))

    def test_two_class_closed_form(self):
        assert metrics.kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == \
            pytest.approx(np.log(2), abs=1e-3)

    def test_nonnegative_on_random_posteriors(self):
        rng = smallnet.spawn_rng(9)
        for _ in range(1000):
            p = rng.random(3)
            p /= p.sum()
            q = rng.random(3)
            q /= q.sum()
            assert metrics.kl_divergence(p, q) >= -1e-12

    @pytest.mark.parametrize("gen_shape, ref_shape", [
        ((5, 4), (6, 4)), ((6, 4), (5, 4)), ((3, 4), (3, 2)), ((0, 4), (0, 4)),
    ], ids=["fewer_generated", "fewer_reference", "other_width", "empty"])
    def test_misaligned_or_empty_rows_rejected(self, gen_shape, ref_shape):
        probe = make_probe(seed=10)
        with pytest.raises(ValidationError, match="aligned"):
            metrics.paired_kl(probe, np.zeros(gen_shape), np.zeros(ref_shape))


class TestInceptionLike:
    def test_identical_posteriors_give_one(self):
        probe = make_probe(seed=11)
        x = np.tile(np.arange(4.0), (8, 1))
        assert metrics.inception_like(probe, x) == pytest.approx(1.0, abs=1e-9)

    def test_distinct_one_hots_give_k(self):
        # bypass the net: compute on synthetic posteriors via the same formula
        k = 5
        p = np.eye(k)
        p_bar = p.mean(axis=0)
        scores = [metrics.kl_divergence(row, p_bar) for row in p]
        value = float(np.exp(np.mean(scores)))
        assert value == pytest.approx(k, rel=1e-3)

    def test_bounds(self):
        probe = make_probe(classes=("a", "b", "c"), seed=12)
        rng = smallnet.spawn_rng(12)
        for _ in range(20):
            v = metrics.inception_like(probe, rng.standard_normal((6, 4)))
            assert 1.0 - 1e-9 <= v <= 3.0 + 1e-9

    def test_too_few_samples(self):
        probe = make_probe(seed=13)
        with pytest.raises(ValidationError):
            metrics.inception_like(probe, np.zeros((1, 4)))

"""Distribution metrics for generated audio: Fréchet distance between
Gaussian fits of two feature sample matrices, paired KL between probe
posteriors, and an Inception-style diversity score.

The published audio classifier is replaced by a small trained probe (or the
wave featurizer directly), so absolute values are NOT comparable with
published benchmark numbers; only orderings and trends are meaningful here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import smallnet
from .errors import ValidationError

_PROB_FLOOR = 1e-6


def _sqrtm_psd(c: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(c)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def _gaussian_fit(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mean, covariance) of an (n, d) sample matrix.

    When n <= d the sample covariance is rank-deficient; 1e-6 * I is added
    so the Fréchet computation stays defined.
    """
    v = np.asarray(vectors, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] < 2:
        raise ValidationError(f"need an (n>=2, d) matrix, got {v.shape}")
    n, d = v.shape
    mean = v.mean(axis=0)
    cov = np.atleast_2d(np.cov(v, rowvar=False))
    cov = (cov + cov.T) / 2.0
    if n <= d:
        cov = cov + 1e-6 * np.eye(d)
    return mean, cov


def frechet(a: np.ndarray, b: np.ndarray) -> float:
    """Fréchet distance between the Gaussian fits (``_gaussian_fit``) of the
    (n, d) sample matrices ``a`` and ``b``, as FAD (Kilgour et al., 2019)
    computes it: ||mu_a - mu_b||^2 + Tr(S_a + S_b - 2 (S_a S_b)^{1/2}).

    The cross term uses the symmetric form sqrt(S_a)^T S_b sqrt(S_a), whose
    eigenvalues are clipped at zero before the square root.
    """
    (mean_a, cov_a), (mean_b, cov_b) = _gaussian_fit(a), _gaussian_fit(b)
    if mean_a.shape != mean_b.shape:
        raise ValidationError(f"feature dims differ: {mean_a.shape} vs {mean_b.shape}")
    diff = mean_a - mean_b
    sa = _sqrtm_psd(cov_a)
    inner = sa @ cov_b @ sa
    vals = np.clip(np.linalg.eigvalsh((inner + inner.T) / 2.0), 0.0, None)
    value = float(diff @ diff + np.trace(cov_a) + np.trace(cov_b) - 2.0 * np.sqrt(vals).sum())
    return max(value, 0.0)


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted by each row's max."""
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    return p / p.sum(axis=1, keepdims=True)


@dataclass
class ProbeClassifier:
    net: smallnet.DenseNet
    classes: tuple[str, ...]
    holdout_accuracy: float = float("nan")

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        return _softmax(self.net.forward(features))


# the probe's one training recipe
PROBE_HIDDEN = 64
PROBE_EPOCHS = 60
PROBE_BATCH_SIZE = 32
PROBE_LEARNING_RATE = 3e-3
PROBE_HOLDOUT_FRACTION = 0.2


def train_probe(features: np.ndarray, labels: list[str], seed: int) -> ProbeClassifier:
    """Softmax classifier over feature vectors; reports held-out accuracy."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != len(labels):
        raise ValidationError(f"features {x.shape} do not match {len(labels)} labels")
    classes = tuple(sorted(set(labels)))
    if len(classes) < 2:
        raise ValidationError("probe needs at least two classes")
    y = np.array([classes.index(l) for l in labels])

    rng = smallnet.spawn_rng(seed, 808)
    order = rng.permutation(len(y))
    n_hold = max(1, int(len(y) * PROBE_HOLDOUT_FRACTION))
    hold, train = order[:n_hold], order[n_hold:]
    if len(train) < 2:
        raise ValidationError("not enough samples to train the probe")

    net = smallnet.DenseNet.create([x.shape[1], PROBE_HIDDEN, len(classes)], "tanh", rng)
    opt = smallnet.Optimizer(net.named_parameters("probe."), PROBE_LEARNING_RATE)
    eye = np.eye(len(classes))
    for _ in range(PROBE_EPOCHS):
        perm = rng.permutation(len(train))
        for b in range(0, len(train), PROBE_BATCH_SIZE):
            idx = train[perm[b:b + PROBE_BATCH_SIZE]]
            logits, cache = net.forward_cached(x[idx])
            d_logits = (_softmax(logits) - eye[y[idx]]) / len(idx)
            grads, _ = net.backward_cached(cache, d_logits, None)
            opt.step(grads)

    probe = ProbeClassifier(net=net, classes=classes)
    pred = probe.predict_proba(x[hold]).argmax(axis=1)
    probe.holdout_accuracy = float(np.mean(pred == y[hold]))
    return probe


def kl_divergence(p_ref: np.ndarray, p_gen: np.ndarray) -> float:
    """KL(ref || gen) with both posteriors floored at 1e-6 before the log."""
    p = np.maximum(np.asarray(p_ref, dtype=np.float64), _PROB_FLOOR)
    q = np.maximum(np.asarray(p_gen, dtype=np.float64), _PROB_FLOOR)
    return float(np.sum(p * (np.log(p) - np.log(q))))


def paired_kl(probe: ProbeClassifier, generated: np.ndarray, reference: np.ndarray) -> float:
    """Mean KL(reference || generated) between probe posteriors over aligned
    (n, d) feature rows: row i of ``generated`` was made from the prompt of
    reference row i."""
    if np.shape(generated) != np.shape(reference) or len(reference) == 0:
        raise ValidationError(f"need aligned (n>=1, d) feature rows, got generated "
                              f"{np.shape(generated)} and reference {np.shape(reference)}")
    p_ref, p_gen = probe.predict_proba(reference), probe.predict_proba(generated)
    return float(np.mean([kl_divergence(r, g) for r, g in zip(p_ref, p_gen)]))


def inception_like(probe: ProbeClassifier, generated: np.ndarray) -> float:
    """exp(mean_x KL(p(y|x) || mean posterior)); 1 = no diversity, k = max."""
    if len(generated) < 2:
        raise ValidationError(f"need at least 2 samples, got {len(generated)}")
    p = probe.predict_proba(generated)
    p_bar = p.mean(axis=0)
    scores = [kl_divergence(row, p_bar) for row in p]
    return float(np.exp(np.mean(scores)))

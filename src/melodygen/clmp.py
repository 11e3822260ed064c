"""Tri-modal contrastive alignment of text, waveform, and melody.

The two heavy encoders are replaced by deterministic featurizers (hashed
token bag for text, per-bin mel statistics for audio); only small projection
heads, a melody token embedder, and a temperature are trained. The loss is
standard InfoNCE, one directed term per ordered modality pair (six terms,
averaged), with a single learnable temperature shared by all terms and
parameterized as exp(log_tau) so positivity is structural.

Convention: similarities are divided by tau (logits = <a, b> / tau), and
log_tau is initialized to log(0.07).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import smallnet
from .config import ClmpConfig
from .errors import ValidationError
from .melody_codec import N_BINS, Melody

TEXT_DIM = 256
_TEXT_HASH_KEY = b"melodygen.text.v1"  # fixed: featurization must never drift

DIRECTIONS = ("W2T", "T2W", "W2M", "M2W", "T2M", "M2T")
MIN_RETRIEVAL_ITEMS = 10  # R@10 needs at least ten candidates per query

_TOKEN_FEATURE_DIM = 128 + 2  # one-hot pitch + scaled duration/rest bins

# ClmpModel's nets, in parameter order; each also names its checkpoint arrays
NETS = ("text_head", "wave_head", "melody_token_embed", "melody_head")


def _stable_hash(token: str) -> int:
    h = hashlib.blake2b(token.encode("utf-8"), key=_TEXT_HASH_KEY, digest_size=8)
    return int.from_bytes(h.digest(), "little")


def tokenize(text: str) -> list[str]:
    """The lowercase words of ``text``, as the text featurizer reads them; '#'
    is kept so that note names like f#5 stay one token."""
    out, cur = [], []
    for ch in text.lower():
        if ch.isalnum() or ch == "#":
            cur.append(ch)
        elif cur:
            out.append("".join(cur))
            cur = []
    if cur:
        out.append("".join(cur))
    return out


def featurize_text(text: str) -> np.ndarray:
    """Hashed bag of unigrams + bigrams, signed, L2-normalized, dim 256."""
    tokens = tokenize(text)
    if not tokens:
        raise ValidationError("text has no tokens")
    grams = list(tokens) + [f"{a} {b}" for a, b in zip(tokens, tokens[1:])]
    v = np.zeros(TEXT_DIM)
    for g in grams:
        h = _stable_hash(g)
        sign = 1.0 if (h >> 63) & 1 else -1.0
        v[h % TEXT_DIM] += sign
    norm = np.linalg.norm(v)
    if norm > 0:
        v /= norm
    return v


def featurize_wave(mel: np.ndarray) -> np.ndarray:
    """Per-mel-bin mean and std over the frames of the (T, F) mel grid
    ``mel``, concatenated and L2-normalized."""
    mean = mel.mean(axis=0)
    std = mel.std(axis=0)
    v = np.concatenate([mean, std])
    norm = np.linalg.norm(v)
    if norm > 0:
        v /= norm
    return v


def melody_token_features(seq: Melody) -> np.ndarray:
    """(L, 130): one-hot pitch plus duration/rest bins scaled to [0, 1]."""
    if len(seq) == 0:
        raise ValidationError("cannot featurize an empty melody")
    notes = np.array([(t.pitch, t.duration_bin, t.rest_bin) for t in seq])
    feats = np.zeros((len(seq), _TOKEN_FEATURE_DIM))
    feats[np.arange(len(seq)), notes[:, 0]] = 1.0
    feats[:, 128:] = notes[:, 1:] / (N_BINS - 1)
    return feats


@dataclass
class ClmpModel:
    text_head: smallnet.DenseNet
    wave_head: smallnet.DenseNet
    melody_token_embed: smallnet.DenseNet
    melody_head: smallnet.DenseNet
    log_tau: np.ndarray  # shape (1,)
    embed_dim: int

    @classmethod
    def create(cls, config: ClmpConfig, wave_dim: int, seed: int) -> "ClmpModel":
        """Seeded init of the widths in ``config``; ``wave_dim`` is the
        waveform featurizer's width, twice the mel bin count."""
        rng = smallnet.spawn_rng(seed, 101)
        hidden, embed_dim, token_dim = config.hidden, config.embed_dim, config.token_embed_dim
        return cls(
            text_head=smallnet.DenseNet.create([TEXT_DIM, hidden, embed_dim], "tanh", rng),
            wave_head=smallnet.DenseNet.create([wave_dim, hidden, embed_dim], "tanh", rng),
            melody_token_embed=smallnet.DenseNet.create([_TOKEN_FEATURE_DIM, token_dim],
                                                        "identity", rng),
            melody_head=smallnet.DenseNet.create([token_dim, hidden, embed_dim], "tanh", rng),
            log_tau=np.array([np.log(0.07)]),
            embed_dim=embed_dim,
        )

    @property
    def tau(self) -> float:
        return float(np.exp(self.log_tau[0]))

    def named_parameters(self) -> dict[str, np.ndarray]:
        named = {}
        for name, net in self._nets().items():
            named.update(net.named_parameters(f"{name}."))
        return {**named, "log_tau": self.log_tau}

    def save(self, path) -> None:
        meta = {"embed_dim": self.embed_dim,
                "nets": {name: smallnet.net_meta(net) for name, net in self._nets().items()}}
        smallnet.save_checkpoint(path, self.named_parameters(), meta)

    @classmethod
    def load(cls, path) -> "ClmpModel":
        arrays, meta = smallnet.load_checkpoint(path)
        with smallnet.checkpoint_keys(path):
            nets = {name: smallnet.net_from_state(arrays, meta["nets"][name], f"{name}.")
                    for name in NETS}
            return cls(log_tau=arrays["log_tau"], embed_dim=int(meta["embed_dim"]), **nets)

    def _nets(self) -> dict[str, smallnet.DenseNet]:
        return {name: getattr(self, name) for name in NETS}


def _normalize_rows(h: np.ndarray):
    norms = np.linalg.norm(h, axis=1, keepdims=True)
    if np.any(norms < 1e-12):
        raise ValidationError("cannot normalize a zero embedding")
    return h / norms, norms


def _normalize_rows_backward(h: np.ndarray, y: np.ndarray, norms: np.ndarray, dy: np.ndarray):
    # y = h / ||h||; dL/dh = (dy - y * <y, dy>) / ||h||
    inner = np.sum(y * dy, axis=1, keepdims=True)
    return (dy - y * inner) / norms


class _HeadPath:
    """Forward/backward for features -> head -> unit-normalized embedding."""

    def __init__(self, head: smallnet.DenseNet, feats: np.ndarray):
        self.head = head
        self.raw, self.cache = head.forward_cached(feats)
        self.emb, self.norms = _normalize_rows(self.raw)

    def backward(self, d_emb: np.ndarray, input_cols=None):
        """(head grads, feature grads in ``input_cols``, or None by default)."""
        d_raw = _normalize_rows_backward(self.raw, self.emb, self.norms, d_emb)
        return self.head.backward_cached(self.cache, d_raw, input_cols)


class _MelodyPath:
    """Token features -> token embed net -> mean pool -> head -> normalize."""

    def __init__(self, model: ClmpModel, melodies: list[np.ndarray]):
        self.model = model
        self.lengths = np.array([len(m) for m in melodies])
        tok, self.tok_cache = model.melody_token_embed.forward_cached(
            np.concatenate(melodies, axis=0))
        # each melody's own mean: np.add.reduceat sums in another order, so
        # its pooled rows differ in the last bits
        pooled = np.stack([t.mean(axis=0) for t in np.split(tok, np.cumsum(self.lengths)[:-1])])
        self.head_path = _HeadPath(model.melody_head, pooled)
        self.emb = self.head_path.emb

    def backward(self, d_emb: np.ndarray):
        head_grads, d_pooled = self.head_path.backward(d_emb, slice(None))
        d_tok = np.repeat(d_pooled / self.lengths[:, None], self.lengths, axis=0)
        embed_grads, _ = self.model.melody_token_embed.backward_cached(self.tok_cache, d_tok,
                                                                       None)
        return embed_grads, head_grads


def features(modality: str, items) -> np.ndarray | list[np.ndarray]:
    """Featurizer output for a batch: (n, d) for text and waveform, one (L, 130)
    token array per item for melody; training, embedding and evaluation all use it."""
    if modality == "text":
        return np.stack([featurize_text(t) for t in items])
    if modality == "waveform":
        return np.stack([featurize_wave(m) for m in items])
    if modality == "melody":
        return [melody_token_features(s) for s in items]
    raise ValidationError(f"unknown modality {modality!r}")


def embed(model: ClmpModel, modality: str, items) -> np.ndarray:
    """(n, embed_dim) unit rows, one per item. ``items`` are caption strings
    for "text", (T, F) mel grid arrays for "waveform" and melodies (tuples of
    triplets) for "melody"."""
    return embed_features(model, modality, features(modality, items))


def embed_features(model: ClmpModel, modality: str, feats) -> np.ndarray:
    """(n, embed_dim) unit rows from the ``features`` of n items."""
    if modality == "melody":
        return _MelodyPath(model, feats).emb
    return _HeadPath(model.text_head if modality == "text" else model.wave_head, feats).emb


def _directed_infonce(sim: np.ndarray, tau: float):
    """L = -(1/N) sum_i log softmax_j(sim_ij / tau)_i.

    Returns (loss, dL/dsim, dL/dlog_tau_contribution).
    """
    n = sim.shape[0]
    logits = sim / tau
    m = logits.max(axis=1, keepdims=True)
    logz = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
    loss = float(np.mean(logz - np.diag(logits)))
    p = np.exp(logits - logz[:, None])
    dlogits = (p - np.eye(n)) / n
    d_sim = dlogits / tau
    d_log_tau = float(np.sum(dlogits * (-logits)))
    return loss, d_sim, d_log_tau


# ordered (query, candidate) modality pairs: the six directed loss terms
_PAIR_ORDER = (("m", "w"), ("w", "m"), ("w", "t"), ("t", "w"), ("t", "m"), ("m", "t"))


def _loss_and_grads(model: ClmpModel, text_feats, wave_feats, melody_feats):
    """(total loss, grads in ``named_parameters`` order) of one contrastive
    batch, through all three encode paths."""
    text = _HeadPath(model.text_head, text_feats)
    wave = _HeadPath(model.wave_head, wave_feats)
    melody = _MelodyPath(model, melody_feats)
    tau = model.tau
    emb = {"t": text.emb, "w": wave.emb, "m": melody.emb}
    d_emb = {k: np.zeros_like(v) for k, v in emb.items()}
    total = 0.0
    d_log_tau = 0.0
    scale = 1.0 / len(_PAIR_ORDER)
    for a, b in _PAIR_ORDER:
        loss, d_sim, d_lt = _directed_infonce(emb[a] @ emb[b].T, tau)
        total += scale * loss
        d_emb[a] += scale * (d_sim @ emb[b])
        d_emb[b] += scale * (d_sim.T @ emb[a])
        d_log_tau += scale * d_lt

    text_grads, _ = text.backward(d_emb["t"])
    wave_grads, _ = wave.backward(d_emb["w"])
    embed_grads, melody_head_grads = melody.backward(d_emb["m"])
    return total, (text_grads + wave_grads + embed_grads + melody_head_grads
                   + [np.array([d_log_tau])])


@dataclass
class TrainResult:
    loss_curve: list[float]


def train_clmp(model: ClmpModel, texts: list[str], mels, melodies: list[Melody],
               config: ClmpConfig, seed: int) -> TrainResult:
    """Batch-gradient training with Adam on aligned items: caption ``texts[i]``,
    (T, F) mel grid ``mels[i]`` and ``melodies[i]``; loss recorded per epoch.

    Features are computed once up front (they are deterministic). Epoch order
    is a seeded shuffle; a trailing partial batch is dropped so every step
    sees exactly ``batch_size`` items.
    """
    n = len(texts)
    if n < config.batch_size:
        raise ValidationError(f"clmp.batch_size={config.batch_size} is more than the "
                              f"{n} training items")
    text = features("text", texts)
    wave = features("waveform", mels)
    melody = features("melody", melodies)

    rng = smallnet.spawn_rng(seed, 202)
    opt = smallnet.Optimizer(model.named_parameters(), config.learning_rate)
    curve = []
    n_batches = n // config.batch_size
    for _ in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for b in range(n_batches):
            idx = order[b * config.batch_size:(b + 1) * config.batch_size]
            loss, grads = _loss_and_grads(model, text[idx], wave[idx], [melody[i] for i in idx])
            opt.step(grads)
            epoch_loss += loss
        curve.append(epoch_loss / n_batches)
    return TrainResult(loss_curve=curve)


def retrieval_scores(sims: np.ndarray) -> dict:
    """R@1/5/10 and mAP@10 of the (n, n) query-by-candidate similarities
    ``sims``, whose diagonal holds each query's true mate.

    mAP@10 is mean(1/rank) with rank > 10 scored as 0 (one relevant item per
    query). Ranks count strictly-greater similarities, so exact ties do not
    push the mate down.
    """
    ranks = 1 + (sims > np.diag(sims)[:, None]).sum(axis=1)
    return {
        "r1": float(np.mean(ranks <= 1)),
        "r5": float(np.mean(ranks <= 5)),
        "r10": float(np.mean(ranks <= 10)),
        "map10": float(np.mean(np.where(ranks <= 10, 1.0 / ranks, 0.0))),
    }


def eval_retrieval(text: np.ndarray, waveform: np.ndarray, melody: np.ndarray) -> dict:
    """``retrieval_scores`` for each of ``DIRECTIONS`` over the ``embed``
    rows of aligned items, one array per modality; the true mate is the same
    item."""
    if len(text) < MIN_RETRIEVAL_ITEMS:
        raise ValidationError(f"evaluation set needs >= {MIN_RETRIEVAL_ITEMS} items, "
                              f"got {len(text)}")
    emb = {"T": text, "W": waveform, "M": melody}
    return {d: retrieval_scores(emb[d[0]] @ emb[d[2]].T) for d in DIRECTIONS}

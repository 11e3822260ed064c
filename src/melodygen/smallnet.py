"""Dense networks with hand-written gradients, Adam, and binary checkpoints.

Everything here is plain numpy. A net computes in the dtype of its parameters:
float64, or float32 for a net built from float32 arrays (``DenseNet.astype``),
and Adam updates each parameter in that parameter's dtype. Gradients are
computed by explicit reverse-mode passes (no autograd), which keeps the
arithmetic auditable and lets finite-difference oracles check every trainable
module in the package.
The backward pass computes only the input-gradient columns its caller asks
for, and Adam updates each parameter in place, a cache-sized block at a time,
with the textbook update's arithmetic in the textbook order.

Parameters are named once: ``DenseNet.named_parameters(prefix)`` is the one
insertion-ordered name -> array dict of a net (``{prefix}w{i}``,
``{prefix}b{i}``), and each model builds its own ``named_parameters()`` from
its nets'. ``Optimizer`` binds that dict, and a model's checkpoint stores the
same arrays under the same names.

Randomness: all seeded streams use numpy's PCG64 generator (a counter-based
generator whose output stream is pinned by the numpy random API and identical
across platforms for a given seed). Child streams are derived through
``SeedSequence`` so per-record / per-run seeds never collide.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, GradientError, ShapeError, ValidationError

ACTIVATIONS = ("relu", "tanh", "identity")

CHECKPOINT_FORMAT_VERSION = 2


def spawn_rng(seed: int, *keys: int) -> np.random.Generator:
    """Derived stream for (seed, key...) so sub-tasks get independent noise."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *keys])))


def activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    return z


def _act_grad(name: str, z: np.ndarray) -> np.ndarray:
    """Derivative of a non-identity activation at ``z``."""
    # relu derivative at exactly 0 is taken as 0
    if name == "relu":
        return (z > 0.0).astype(z.dtype)
    t = np.tanh(z)
    return 1.0 - t * t


@dataclass
class DenseLayer:
    w: np.ndarray  # (out, in)
    b: np.ndarray  # (out,)
    activation: str

    def __post_init__(self):
        # float32 parameters stay float32; anything else becomes float64
        dtype = (np.float32 if np.asarray(self.w).dtype == np.asarray(self.b).dtype == np.float32
                 else np.float64)
        self.w = np.asarray(self.w, dtype=dtype)
        self.b = np.asarray(self.b, dtype=dtype)
        if self.w.ndim != 2 or self.b.ndim != 1 or self.w.shape[0] != self.b.shape[0]:
            raise ShapeError(
                f"layer wants w (out,in) and b (out,), got {self.w.shape} and {self.b.shape}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValidationError(f"unknown activation {self.activation!r}")
        if not (np.all(np.isfinite(self.w)) and np.all(np.isfinite(self.b))):
            raise ValidationError("layer parameters must be finite")


class DenseNet:
    """A fixed stack of affine layers with {relu, tanh, identity} activations.

    Maps batches ``(n, in)`` to ``(n, out)``. ``backward_cached`` returns the
    exact reverse-mode gradient of the forward map (summed over the batch for
    parameters); identity layers pass their upstream gradient through
    unmultiplied. Every layer has the same dtype, ``dtype``, in which the
    passes take their inputs and upstream gradients and compute everything.
    """

    def __init__(self, layers: list[DenseLayer]):
        if not layers:
            raise ValidationError("a DenseNet needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.w.shape[1] != prev.w.shape[0]:
                raise ShapeError(
                    f"layer dims do not chain: {prev.w.shape[0]} -> {nxt.w.shape[1]}"
                )
        if len({l.w.dtype for l in layers}) > 1:
            raise ValidationError("a DenseNet's layers must share one dtype")
        self.layers = layers

    @classmethod
    def create(
        cls,
        dims: list[int],
        activations: list[str] | str,
        rng: np.random.Generator,
    ) -> "DenseNet":
        """Seeded init: weights uniform in ±1/sqrt(fan_in), biases zero.

        ``dims`` is [in, hidden..., out]; ``activations`` is one name per
        layer, or a single name meaning "that for every hidden layer and
        identity for the last".
        """
        n_layers = len(dims) - 1
        if n_layers < 1:
            raise ValidationError("dims must list at least input and output size")
        if isinstance(activations, str):
            activations = [activations] * (n_layers - 1) + ["identity"]
        if len(activations) != n_layers:
            raise ValidationError(
                f"need {n_layers} activations, got {len(activations)}"
            )
        layers = []
        for i in range(n_layers):
            fan_in = dims[i]
            w = rng.uniform(-1.0, 1.0, size=(dims[i + 1], fan_in)) / np.sqrt(fan_in)
            layers.append(DenseLayer(w, np.zeros(dims[i + 1]), activations[i]))
        return cls(layers)

    def astype(self, dtype) -> "DenseNet":
        """The same net with its parameters cast to ``dtype`` (float32 or float64)."""
        return DenseNet([DenseLayer(l.w.astype(dtype), l.b.astype(dtype), l.activation)
                         for l in self.layers])

    @property
    def dtype(self) -> np.dtype:
        """The dtype of every parameter, and of the passes' arithmetic."""
        return self.layers[0].w.dtype

    @property
    def in_dim(self) -> int:
        return self.layers[0].w.shape[1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].w.shape[0]

    def named_parameters(self, prefix: str = "") -> dict[str, np.ndarray]:
        """``{prefix}w{i}`` and ``{prefix}b{i}`` of each layer i, in layer order:
        the arrays themselves, so in-place updates stick."""
        named = {}
        for i, l in enumerate(self.layers):
            named[f"{prefix}w{i}"], named[f"{prefix}b{i}"] = l.w, l.b
        return named

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(f"input has shape {x.shape}, net expects (*, {self.in_dim})")
        return x

    def forward(self, x: np.ndarray) -> np.ndarray:
        y, _ = self.forward_cached(x)
        return y

    def forward_cached(self, x: np.ndarray):
        """Forward pass keeping per-layer inputs and pre-activations."""
        a = self._check_input(x)
        inputs, preacts = [], []
        for l in self.layers:
            inputs.append(a)
            z = a @ l.w.T
            z += l.b
            preacts.append(z)
            a = activate(l.activation, z)
        return a, (inputs, preacts)

    def backward_cached(self, cache, upstream: np.ndarray, input_cols=slice(None)):
        """Gradients from a cached forward.

        Returns ``(grads, input_grad)`` where grads is a list in
        ``named_parameters()`` order, summed over the batch.
        ``input_grad`` holds the input columns ``input_cols`` selects (all by
        default); ``input_cols=None`` skips it and returns None.
        """
        inputs, preacts = cache
        g = np.asarray(upstream, dtype=self.dtype)
        if g.shape != (inputs[0].shape[0], self.out_dim):
            raise ShapeError(
                f"upstream grad has shape {np.asarray(upstream).shape}, "
                f"expected (*, {self.out_dim})"
            )
        grads: list[np.ndarray] = [None] * (2 * len(self.layers))
        for i in range(len(self.layers) - 1, -1, -1):
            l = self.layers[i]
            dz = g if l.activation == "identity" else g * _act_grad(l.activation, preacts[i])
            grads[2 * i] = dz.T @ inputs[i]
            grads[2 * i + 1] = dz.sum(axis=0)
            if i:
                g = dz @ l.w
        if input_cols is None:
            return grads, None
        return grads, dz @ self.layers[0].w[:, input_cols]


# Elementwise passes over large arrays (Adam, the denoiser's training glue) run
# this many elements at a time, so their temporaries stay in cache
CACHE_BLOCK = 16384


class Optimizer:
    """Adam over a fixed name -> array dict (a model's ``named_parameters()``),
    bound at construction, where the moment buffers are allocated. ``step``
    takes the gradients as a list in the dict's order.

    Each parameter is updated in place, in its own dtype, ``CACHE_BLOCK``
    elements at a time, through two reused scratch buffers of that dtype; per
    element the arithmetic and its order are the textbook update's.
    """

    betas = (0.9, 0.999)
    eps = 1e-8

    def __init__(self, named: dict[str, np.ndarray], learning_rate: float):
        if not (0.0 < learning_rate or learning_rate == 0.0):
            raise ValidationError("learning_rate must be >= 0")
        for name, p in named.items():
            if not p.flags.c_contiguous:
                raise ShapeError(f"parameter {name} is not contiguous and cannot be "
                                 "updated in place")
        self.named = dict(named)
        self.learning_rate = learning_rate
        self.step_count = 0
        self._m = [np.zeros_like(p) for p in self.named.values()]
        self._v = [np.zeros_like(p) for p in self.named.values()]
        self._scratch = {p.dtype: np.empty((2, CACHE_BLOCK), p.dtype)
                         for p in self.named.values()}

    def _checked(self, grads) -> list[np.ndarray]:
        """The gradients cast to their parameters' dtypes, once every check
        passed; raises before anything is updated. A gradient that overflows
        its parameter's dtype is non-finite there and is rejected."""
        if len(grads) != len(self.named):
            raise ShapeError(f"{len(grads)} gradients for {len(self.named)} parameters")
        out = []
        for (name, p), g in zip(self.named.items(), grads):
            with np.errstate(over="ignore"):
                g = np.asarray(g, dtype=p.dtype)
            if p.shape != g.shape:
                raise ShapeError(f"gradient shape {g.shape} != parameter shape "
                                 f"{p.shape} for {name}")
            if not np.isfinite(g).all():
                raise GradientError("non-finite gradient, update rejected", name)
            out.append(g)
        return out

    def step(self, grads: list[np.ndarray]) -> None:
        """Apply one bias-corrected update in place. Rejects non-finite grads,
        leaving parameters, moments and ``step_count`` unchanged."""
        grads = self._checked(grads)
        self.step_count += 1
        b1, b2 = self.betas
        bc1 = 1.0 - b1**self.step_count
        bc2 = 1.0 - b2**self.step_count
        lr, eps = self.learning_rate, self.eps
        for p, g, m, v in zip(self.named.values(), grads, self._m, self._v):
            p, g, m, v = p.reshape(-1), g.reshape(-1), m.reshape(-1), v.reshape(-1)
            for start in range(0, p.size, CACHE_BLOCK):
                blk = slice(start, start + CACHE_BLOCK)
                pb, gb, mb, vb = p[blk], g[blk], m[blk], v[blk]
                t, u = self._scratch[p.dtype][:, :pb.size]
                # m = b1 m + (1-b1) g;  v = b2 v + ((1-b2) g) g
                mb *= b1
                np.multiply(1.0 - b1, gb, out=t)
                mb += t
                vb *= b2
                np.multiply(1.0 - b2, gb, out=t)
                t *= gb
                vb += t
                # p -= lr * ((m / bc1) / (sqrt(v / bc2) + eps))
                np.divide(vb, bc2, out=t)
                np.sqrt(t, out=t)
                t += eps
                np.divide(mb, bc1, out=u)
                u /= t
                u *= lr
                pb -= u


# --- checkpoint I/O -----------------------------------------------------
#
# A checkpoint is one binary file, all integers little-endian:
#
#   offset  size  field
#   0       4     magic b"MGCK"
#   4       4     u32 format_version (2)
#   8       8     u64 header length H
#   16      H     UTF-8 JSON header, compact with sorted keys:
#                 {"arrays": [[name, shape], ...], "meta": {...}}
#                 with the arrays in sorted-name order
#   16+H    ...   each array's payload, in header order, back to back
#
# An array's payload is float32 ("<f4"): values are quantized on save, so a
# load -> save round trip is byte-exact, and float32 parameters (the
# denoiser's, which train-diffusion trains in float32) are stored exactly.
# An array the writer names in ``exact`` is stored as float64 ("<f8")
# instead, bit for bit, and its header entry carries that type as a third
# element: [name, shape, "<f8"]. Entries without it are float32, so a
# checkpoint with no exact array has the bytes it always had. Two writers
# name exact arrays: features.ckpt (the corpus mel grids) and diffusion.ckpt
# (the sampler's hidden-space constants, formed from the float32 weights it
# stores). The payload sizes must account for every byte of the file, whose
# size a load takes from its descriptor before it reads each payload straight
# into the array it returns: an exact one as stored, a float32 one widened once.
# Files are written to ``<path>.tmp`` and then renamed over ``path``, so a
# failed write leaves any previous checkpoint intact.

CHECKPOINT_MAGIC = b"MGCK"
_PREAMBLE = struct.Struct("<4sIQ")


_EXACT = "<f8"


def save_checkpoint(path, arrays: dict[str, np.ndarray], meta: dict | None = None,
                    exact: tuple[str, ...] = ()) -> None:
    """Write ``arrays`` and ``meta``; the arrays named in ``exact`` keep their
    float64 values bit for bit, the others are stored as float32."""
    payloads = [(k, np.asarray(v, dtype=np.float64), _EXACT if k in exact else "<f4")
                for k, v in sorted(arrays.items())]
    entries = [[k, list(a.shape)] + ([dtype] if dtype == _EXACT else [])
               for k, a, dtype in payloads]
    header = json.dumps({"arrays": entries, "meta": meta or {}},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    preamble = _PREAMBLE.pack(CHECKPOINT_MAGIC, CHECKPOINT_FORMAT_VERSION, len(header))
    write_atomic(path, itertools.chain([preamble, header],
                                       (a.astype(dtype, copy=False).tobytes()
                                        for _, a, dtype in payloads)))


def write_atomic(path, chunks) -> None:
    """Write the byte strings of ``chunks`` to ``<path>.tmp``, then rename it over
    ``path``: a failed write leaves any previous file intact and no ``.tmp``."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _parse_header(raw: bytes, path) -> tuple[list[tuple[str, tuple[int, ...], str]], dict]:
    start = _PREAMBLE.size
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"checkpoint {path}: unparseable header ({e})", start) from e
    entries = doc.get("arrays") if isinstance(doc, dict) else None
    meta = doc.get("meta") if isinstance(doc, dict) else None
    if not isinstance(entries, list) or not isinstance(meta, dict):
        raise FormatError(f"checkpoint {path}: header wants an 'arrays' list and a "
                          "'meta' object", start)
    specs = []
    for entry in entries:
        ok = (isinstance(entry, list) and len(entry) in (2, 3) and isinstance(entry[0], str)
              and isinstance(entry[1], list)
              and all(type(d) is int for d in entry[1])
              and entry[2:] in ([], [_EXACT]))
        if not ok:
            raise FormatError(f"checkpoint {path}: bad array entry {entry!r} in header",
                              start)
        name, shape = entry[:2]
        if any(d < 0 for d in shape):
            raise FormatError(f"checkpoint {path}: array {name!r} has a negative "
                              f"dimension in shape {shape}", start)
        specs.append((name, tuple(shape), _EXACT if entry[2:] else "<f4"))
    if len({name for name, _, _ in specs}) != len(specs):
        raise FormatError(f"checkpoint {path}: an array name is listed twice", start)
    return specs, meta


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint written by ``save_checkpoint``.

    A file that is not a checkpoint of this format (no magic, or another
    format_version) raises ``ValidationError``; a checkpoint whose bytes do
    not add up raises ``FormatError`` with the byte offset of the fault.
    """
    with open(path, "rb") as f:
        file_size = os.fstat(f.fileno()).st_size
        preamble = f.read(_PREAMBLE.size)
        if not CHECKPOINT_MAGIC.startswith(preamble[:len(CHECKPOINT_MAGIC)]):
            raise ValidationError(
                f"{path} is not a melodygen checkpoint (no {CHECKPOINT_MAGIC!r} magic; "
                "files of an older format are not read); rerun the stage that writes it"
            )
        if len(preamble) < _PREAMBLE.size:
            raise FormatError(f"checkpoint {path}: file too short for the "
                              f"{_PREAMBLE.size}-byte preamble", file_size)
        _, version, header_len = _PREAMBLE.unpack(preamble)
        if version != CHECKPOINT_FORMAT_VERSION:
            raise ValidationError(
                f"checkpoint {path}: format_version {version!r} not supported "
                f"(expected {CHECKPOINT_FORMAT_VERSION}); rerun the stage that writes it"
            )
        offset = _PREAMBLE.size + header_len
        if offset > file_size:
            raise FormatError(f"checkpoint {path}: header length {header_len} runs past "
                              f"the end of the {file_size}-byte file", 8)
        specs, meta = _parse_header(f.read(header_len), path)
        arrays = {}
        for name, shape, dtype in specs:
            size, have = np.dtype(dtype).itemsize * math.prod(shape), file_size - offset
            if size <= have:
                a = np.empty(shape, dtype)
                have = f.readinto(a.reshape(-1).view(np.uint8))
            if have < size:
                raise FormatError(f"checkpoint {path}: array {name!r} truncated (wants "
                                  f"{size} bytes, has {have})", offset)
            arrays[name] = a.astype(np.float64, copy=False)
            offset += size
    if offset != file_size:
        raise FormatError(f"checkpoint {path}: {file_size - offset} trailing bytes after "
                          "the last array", offset)
    return arrays, meta


def net_meta(net: DenseNet) -> dict:
    """The checkpoint meta of a net; its arrays are ``named_parameters()``."""
    return {"activations": [l.activation for l in net.layers]}


def net_from_state(arrays: dict[str, np.ndarray], meta: dict, prefix: str = "") -> DenseNet:
    """Rebuild a net from its ``named_parameters(prefix)`` and ``net_meta``. The
    net takes the arrays as its parameters without copying them
    (``load_checkpoint`` returns fresh ones).
    A missing array or meta key raises ``KeyError``; see ``checkpoint_keys``."""
    return DenseNet([DenseLayer(arrays[f"{prefix}w{i}"], arrays[f"{prefix}b{i}"], act)
                     for i, act in enumerate(meta["activations"])])


@contextlib.contextmanager
def checkpoint_keys(path, stage: str = "the stage that writes it"):
    """Turns a ``KeyError`` raised while reading the arrays and meta of the
    checkpoint at ``path`` into a ``ValidationError`` naming the file and the
    key: the file is another kind of checkpoint, or an older layout, and
    ``stage`` writes a current one."""
    try:
        yield
    except KeyError as e:
        raise ValidationError(f"checkpoint {path} has no {e.args[0]!r}: it is another kind "
                              f"of checkpoint or an older layout; rerun {stage}") from None


def as_stored(a: np.ndarray) -> np.ndarray:
    """The float64 values ``load_checkpoint`` returns for ``a`` stored as a
    float32 array entry."""
    return np.asarray(a, dtype=np.float64).astype(np.float32).astype(np.float64)

"""Desk-scale byte-level transformer language model with manual backprop.

Pre-norm decoder blocks (single attention head, 4x GELU MLP, tied input and
output embeddings), trained with Adam. No autograd anywhere: every gradient
is computed by hand, with the attention weights differentiated through the
selected scoring variant. Everything runs in float64 and is deterministic
given (seed, config, corpus), whatever the CPU count: the train step and eval
split their work into fixed pieces, run them side by side on the CPUs the
process may use (the train step only on those its BLAS leaves free), and
combine the results in a fixed order. The pieces run on the calling thread
and on daemon helper threads that are kept across calls (_run_all): each
helper is started by the first call that needs it, waits idle between calls
and keeps its malloc arena, so no step pays for a fresh thread or arena. A
forked child starts with no helper.

Importing this module, and so the sasoftmax package, sets two glibc malloc
thresholds for the whole process (_keep_freed_heap): freed blocks stay mapped
and are reused by the next step, chunk or stencil instead of being
page-faulted in again. The process's RSS therefore does not shrink after a
peak; the peak itself moved by under 1% in the median of perfbench's runs.
Off glibc nothing is set.

scipy is imported only by the first GELU (_erf): by forward_loss,
evaluate_ppl, attention_maps and train, and so by the train, eval and dump
commands. Importing the package, the kernels, the gradient oracles and the
saturation sweep load no scipy, and save its ~23 MB of RSS and 0.25-0.3 s of
start-up.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import itertools
import json
import math
import os
import struct
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .attention import AttentionInput, attention_backward, attention_forward
from .errors import (
    CacheMismatch,
    CheckpointError,
    ConfigError,
    CorpusTooSmall,
    NonFiniteGradient,
    NonFiniteInput,
    ShapeMismatch,
    TextTooShort,
    UnknownSymbol,
    _is_int,
    _require_positive,
    _require_real,
)
from .variants import DEFAULT_EPS, VariantKind

LN_EPS = 1e-5
CHECKPOINT_MAGIC = b"SAXLM001"
# evaluate_ppl runs max(1, _EVAL_CHUNK_POSITIONS // seq_len) windows per
# forward: 7 windows at the default seq_len of 64. Freed blocks stay in the
# heap (_keep_freed_heap), so no chunk size page-faults its temporaries in
# again: an eval of the bundled corpus at the default config took 3 minor
# faults per call at 5 to 16 windows. Larger chunks spread the per-chunk
# Python work over more positions and run faster (two threads: ~720 ms per
# call at 5 windows, ~590 ms at 8, ~520 ms at 16), but each thread holds one
# chunk's temporaries, so the peak grows with the chunk: perfbench's
# eval_corpus peaked at 85.5 MB of RSS at 5 windows, 86.7 MB at 7, 87.3 MB at
# 8 and 91.8 MB at 16. 7 is the largest chunk within 2% of the peak at 5
# (BENCH_train.json kept_heap). The peak does not grow with the text, and a
# window's losses have the same bits at any chunk size and on any thread.
_EVAL_CHUNK_POSITIONS = 448
# forward_loss splits the batch into micro-batches of this many windows (the
# last one may be shorter), and backward sums their gradients in micro-batch
# order, so the gradients have the same bits whatever the worker count. It
# does not depend on the CPU count. 8 splits the default batch of 16 in two:
# with one BLAS thread at two workers a default step took 16-19 ms per kind,
# against 21-25 ms in micro-batches of 4 and 23-26 ms in one of 16
# (BENCH_train.json kept_heap).
_TRAIN_SHARD_WINDOWS = 8


@dataclass(frozen=True)
class TrainConfig:
    corpus_path: str
    kind: VariantKind = VariantKind.BASELINE
    layers: int = 2
    d_model: int = 32
    seq_len: int = 64
    batch: int = 16
    steps: int = 2000
    lr: float = 3e-3
    adam_betas: tuple[float, float] = (0.9, 0.95)
    adam_eps: float = 1e-8
    seed: int = 0
    rope: bool = True
    rope_base: float = 10000.0
    eps: float = DEFAULT_EPS
    init_std: float = 0.02

    def __post_init__(self):
        if not isinstance(self.kind, VariantKind):
            raise ConfigError(f"kind must be a VariantKind, got {self.kind!r}")
        for name in ("layers", "d_model", "seq_len", "batch", "steps", "seed"):
            if not _is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("layers", "d_model", "seq_len", "batch"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("steps", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("lr", "adam_eps", "eps", "rope_base"):
            _require_positive(name, getattr(self, name))
        _require_real("init_std", self.init_std)
        # written as `not ok` so that NaN fails too
        if not (0.0 <= self.init_std < math.inf):
            raise ConfigError(f"init_std must be >= 0 and finite, got {self.init_std}")
        if not (isinstance(self.adam_betas, (tuple, list)) and len(self.adam_betas) == 2):
            raise ConfigError(f"adam_betas must be a pair of reals, got {self.adam_betas!r}")
        for beta in self.adam_betas:
            _require_real("adam_betas", beta)
        b1, b2 = self.adam_betas
        if not (0.0 < b1 < 1.0 and 0.0 < b2 < 1.0):
            raise ConfigError(f"adam betas must lie in (0, 1), got {self.adam_betas}")
        if not isinstance(self.rope, bool):
            raise ConfigError(f"rope must be a bool, got {self.rope!r}")
        if self.d_model % 2 != 0 and self.rope:
            raise ConfigError("rope requires an even d_model")


@dataclass
class RunMetrics:
    """Per-step training history."""

    loss: list[float] = field(default_factory=list)
    grad_norm: list[float] = field(default_factory=list)
    step_time: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.loss)


@dataclass(frozen=True)
class Vocabulary:
    """Byte-level vocabulary; ids are assigned by ascending byte value."""

    byte_values: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.byte_values)

    def _table(self) -> np.ndarray:
        table = np.full(256, -1, dtype=np.int64)
        table[list(self.byte_values)] = np.arange(self.size)
        return table

    def encode(self, data: bytes) -> np.ndarray:
        ids = self._table()[np.frombuffer(data, dtype=np.uint8)]
        if ids.size and ids.min() < 0:
            bad = int(np.frombuffer(data, dtype=np.uint8)[int(np.argmin(ids))])
            raise UnknownSymbol(f"byte 0x{bad:02x} is not in the vocabulary")
        return ids

    def decode(self, ids: np.ndarray) -> bytes:
        return bytes(self.byte_values[int(i)] for i in np.asarray(ids).ravel())


def load_corpus(path: str | Path) -> tuple[np.ndarray, Vocabulary]:
    """Read a UTF-8 text file and tokenize at the byte level."""
    data = Path(path).read_bytes()
    if len(data) < 2:
        raise CorpusTooSmall(f"corpus {path} has {len(data)} bytes; need at least 2")
    vocab = Vocabulary(byte_values=tuple(sorted(set(data))))
    return vocab.encode(data), vocab


# ---------------------------------------------------------------------------
# Parameters.
# ---------------------------------------------------------------------------

def param_names(cfg: TrainConfig) -> list[str]:
    names = ["embed"]
    for i in range(cfg.layers):
        names.extend(f"h{i}.{n}" for n in
                     ("ln1.g", "ln1.b", "wq", "wk", "wv", "wo", "ln2.g", "ln2.b", "w1", "w2"))
    names.extend(["lnf.g", "lnf.b"])
    return names


def _param_shapes(cfg: TrainConfig, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """Shape of every parameter, in param_names order."""
    d = cfg.d_model
    matrices = {"wq": (d, d), "wk": (d, d), "wv": (d, d), "wo": (d, d),
                "w1": (d, 4 * d), "w2": (4 * d, d)}
    shapes = {"embed": (vocab_size, d)}
    for name in param_names(cfg)[1:]:
        shapes[name] = matrices.get(name.split(".", 1)[1], (d,))
    return shapes


def init_params(cfg: TrainConfig, vocab_size: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Normal(0, init_std) weights, unit layer-norm gains, zero biases."""
    params: dict[str, np.ndarray] = {}
    for name, shape in _param_shapes(cfg, vocab_size).items():
        if len(shape) == 2:
            params[name] = rng.normal(0.0, cfg.init_std, shape)
        else:
            params[name] = np.ones(shape) if name.endswith(".g") else np.zeros(shape)
    return params


# ---------------------------------------------------------------------------
# Elementwise pieces and their backward rules.
# ---------------------------------------------------------------------------

# The per-micro-batch kernels call the ufunc reductions (np.add.reduce,
# np.maximum.reduce) straight, and divide a sum by its axis length in place
# for a mean: np.sum, np.max and np.mean run exactly these calls on an
# ndarray, so the bits are the same, but their Python wrappers hold the
# interpreter lock, which the micro-batches' threads queue for.

def _layer_norm(x, gain, bias):
    n = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True)
    mu /= n
    xhat = x - mu
    y = xhat * xhat
    var = np.add.reduce(y, axis=-1, keepdims=True)
    var /= n
    rstd = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= rstd
    np.multiply(gain, xhat, out=y)
    y += bias
    return y, (xhat, rstd)


def _layer_norm_backward(dy, gain, ctx):
    xhat, rstd = ctx
    n = xhat.shape[-1]
    tmp = dy * xhat
    dgain = np.add.reduce(tmp, axis=(0, 1))
    dbias = np.add.reduce(dy, axis=(0, 1))
    dx = dy * gain
    proj = np.add.reduce(np.multiply(dx, xhat, out=tmp), axis=-1, keepdims=True)
    proj /= n
    mean = np.add.reduce(dx, axis=-1, keepdims=True)
    mean /= n
    dx -= mean
    dx -= np.multiply(xhat, proj, out=tmp)
    dx *= rstd
    return dx, dgain, dbias


_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


@functools.cache
def _erf():
    """scipy.special.erf, imported by the first GELU, not with the module
    (see the module docstring). Two threads that run their first GELU at once
    are safe: Python's import lock for the module lets one of them import it
    while the other waits for it."""
    from scipy.special import erf

    return erf


def _gelu(x, keep):
    """x * Phi(x), and with keep its derivative Phi(x) + x * pdf(x) (else None)."""
    phi = x / _SQRT2
    _erf()(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    if not keep:
        phi *= x
        return phi, None
    h = x * phi
    pdf = -0.5 * x
    pdf *= x
    np.exp(pdf, out=pdf)
    pdf *= _INV_SQRT_2PI
    pdf *= x
    phi += pdf
    return h, phi


# ---------------------------------------------------------------------------
# Forward / backward.
# ---------------------------------------------------------------------------

def forward_loss(params: dict, inputs: np.ndarray, targets: np.ndarray,
                 cfg: TrainConfig) -> tuple[float, dict]:
    """Mean next-token cross-entropy (nats) plus a cache for backward.

    The batch runs through the forward in micro-batches of
    _TRAIN_SHARD_WINDOWS windows, side by side (_run_all). The loss is the
    mean of the concatenated per-position losses, so it has the bits one
    batch gives. The cache keeps one sub-cache per micro-batch ("shards"),
    the shared causal mask ("mask") and, per layer, the full-batch attention
    logits ("layers"[i]["z"]), whose rows the sub-caches' scores are views of.

    Ids must be integers in [0, vocab) (the rows of params["embed"]):
    UnknownSymbol otherwise. Unequal or non-2-D shapes, an empty batch or
    window, and ids that are not integers raise ShapeMismatch.
    """
    inputs, targets = _checked_batch(inputs, targets, params["embed"].shape[0])
    n = _TRAIN_SHARD_WINDOWS
    parts = _run_all(lambda lo: _forward(params, inputs[lo:lo + n], targets[lo:lo + n], cfg,
                                         keep=True),
                     range(0, len(inputs), n), _train_workers())
    nll = np.concatenate([part_nll for part_nll, _ in parts])
    shards = [shard for _, shard in parts]
    cache = {
        "cfg": cfg, "params": params, "mask": shards[0]["layers"][0]["attn"].mask,
        "layers": [{"z": _joined_scores(shards, i)} for i in range(cfg.layers)],
        "shards": shards,
    }
    return float(nll.mean()), cache


def _checked_batch(inputs, targets, vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
    """inputs and targets as arrays, after forward_loss's checks."""
    inputs = np.asarray(inputs)
    targets = np.asarray(targets)
    if inputs.shape != targets.shape or inputs.ndim != 2:
        raise ShapeMismatch(f"inputs {inputs.shape} and targets {targets.shape} must be equal 2-D")
    if inputs.size == 0:
        raise ShapeMismatch(f"a batch of shape {inputs.shape} holds no position")
    for name, ids in (("inputs", inputs), ("targets", targets)):
        if not np.issubdtype(ids.dtype, np.integer):
            raise ShapeMismatch(f"{name} must hold integer token ids, got dtype {ids.dtype}")
        for bad in (ids.min(), ids.max()):
            if not 0 <= bad < vocab_size:
                raise UnknownSymbol(f"{name} holds token id {bad}, outside [0, {vocab_size})")
    return inputs, targets


def _joined_scores(shards: list[dict], i: int) -> np.ndarray:
    """Layer i's attention logits over the whole batch. With more than one
    shard they are copied into one array, and each shard's cache is given a
    view of its rows in place of its own, so the logits are held once."""
    caches = [shard["layers"][i]["attn"] for shard in shards]
    if len(caches) == 1:
        return caches[0].scores
    z = np.concatenate([c.scores for c in caches])
    lo = 0
    for shard, c in zip(shards, caches):
        hi = lo + len(c.scores)
        shard["layers"][i]["attn"] = dataclasses.replace(c, scores=z[lo:hi])
        lo = hi
    return z


def _forward(params: dict, inputs: np.ndarray, targets: np.ndarray,
             cfg: TrainConfig, keep: bool) -> tuple[np.ndarray, dict | None]:
    """The (B, T) next-token cross-entropy of every position of a checked
    batch, and with keep the cache _backward reads; without keep the cache
    is None and no layer's intermediates outlive the layer."""
    b, t = inputs.shape
    x = params["embed"][inputs]
    layers = []
    for i in range(cfg.layers):
        x, ctx = _block(x, params, f"h{i}.", cfg, keep)
        if keep:
            layers.append(ctx)

    hf, lnf_ctx = _layer_norm(x, params["lnf.g"], params["lnf.b"])
    logits = hf @ params["embed"].T

    # logits becomes the shifted logits, then their exp, then the probabilities
    logits -= np.maximum.reduce(logits, axis=-1, keepdims=True)
    rows = np.arange(b)[:, np.newaxis]
    cols = np.arange(t)[np.newaxis, :]
    picked = logits[rows, cols, targets]
    np.exp(logits, out=logits)
    norm = np.add.reduce(logits, axis=-1, keepdims=True)
    # -log_softmax at the targets, from the gathered entries only
    nll = np.log(norm)[..., 0] - picked
    if not keep:
        return nll, None
    logits /= norm

    cache = {"inputs": inputs, "targets": targets, "layers": layers, "hf": hf,
             "lnf": lnf_ctx, "probs": logits}
    return nll, cache


def _block(x: np.ndarray, params: dict, pre: str, cfg: TrainConfig,
           keep: bool) -> tuple[np.ndarray, dict | None]:
    """One pre-norm decoder block, x + attn(ln1(x)) and then + mlp(ln2(.)),
    and the context backward reads if keep.

    Its temporaries die when it returns. Without keep, the attention
    intermediates are released before the MLP runs, so an inference forward
    holds one sublayer's temporaries at a time.
    """
    a, ln1_ctx = _layer_norm(x, params[pre + "ln1.g"], params[pre + "ln1.b"])
    att, attn = attention_forward(AttentionInput(
        a @ params[pre + "wq"], a @ params[pre + "wk"], a @ params[pre + "wv"],
        kind=cfg.kind, rope=cfg.rope, rope_base=cfg.rope_base, eps=cfg.eps))
    x_mid = att @ params[pre + "wo"]
    x_mid += x
    ctx = {"a": a, "ln1": ln1_ctx, "attn": attn, "att": att} if keep else None
    del a, ln1_ctx, att, attn

    m_in, ln2_ctx = _layer_norm(x_mid, params[pre + "ln2.g"], params[pre + "ln2.b"])
    h, dgelu = _gelu(m_in @ params[pre + "w1"], keep)
    out = h @ params[pre + "w2"]
    out += x_mid
    if keep:
        ctx.update({"ln2": ln2_ctx, "m_in": m_in, "h": h, "dgelu": dgelu})
    return out, ctx


def _wgrad(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Weight gradient of y = x @ w, summed over every leading axis.

    Flattening the (B, T) axes makes it one 2-D matmul, which runs in BLAS;
    the equivalent einsum over "btd,bte->de" does not.
    """
    return x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])


def backward(cache: dict) -> dict[str, np.ndarray]:
    """Exact gradients of the mean cross-entropy for every parameter.

    Each micro-batch's backward runs side by side (_run_all) and gives the
    gradients of its losses' sum over the whole batch's position count; they
    are summed in micro-batch order, so their bits do not depend on the
    worker count. A batch of one micro-batch gets one backward's bits.
    """
    if "shards" not in cache:
        raise CacheMismatch("cache was not produced by forward_loss")
    cfg: TrainConfig = cache["cfg"]
    params = cache["params"]
    shards = cache["shards"]
    positions = sum(shard["inputs"].size for shard in shards)
    parts = _run_all(lambda shard: _backward(params, cfg, shard, positions), shards,
                     _train_workers())
    grads = parts[0]
    for part in parts[1:]:
        for name, g in part.items():
            grads[name] += g
    return grads


def _backward(params: dict, cfg: TrainConfig, cache: dict,
              positions: int) -> dict[str, np.ndarray]:
    """Gradients of the sum of one _forward cache's losses, over positions."""
    inputs = cache["inputs"]
    targets = cache["targets"]
    b, t = inputs.shape

    dlogits = cache["probs"].copy()
    rows = np.arange(b)[:, np.newaxis]
    cols = np.arange(t)[np.newaxis, :]
    dlogits[rows, cols, targets] -= 1.0
    dlogits /= positions

    grads = {name: None for name in param_names(cfg)}
    dhf = dlogits @ params["embed"]
    dx, grads["lnf.g"], grads["lnf.b"] = _layer_norm_backward(dhf, params["lnf.g"], cache["lnf"])

    # Each layer's large temporaries are deleted once read, so they are freed
    # before the next layer allocates its own.
    for i in reversed(range(cfg.layers)):
        pre = f"h{i}."
        ctx = cache["layers"][i]

        # x_out = x_mid + mlp(ln2(x_mid)); dh becomes the gradient at the
        # GELU's input
        dh = dx @ params[pre + "w2"].T
        grads[pre + "w2"] = _wgrad(ctx["h"], dx)
        dh *= ctx["dgelu"]
        dm_in = dh @ params[pre + "w1"].T
        grads[pre + "w1"] = _wgrad(ctx["m_in"], dh)
        del dh
        dx_mid, grads[pre + "ln2.g"], grads[pre + "ln2.b"] = _layer_norm_backward(
            dm_in, params[pre + "ln2.g"], ctx["ln2"])
        del dm_in
        dx_mid += dx

        # x_mid = x + attention(ln1(x)) @ wo
        grads[pre + "wo"] = _wgrad(ctx["att"], dx_mid)
        g = attention_backward(ctx["attn"], dx_mid @ params[pre + "wo"].T)
        da = g.dq @ params[pre + "wq"].T
        da += g.dk @ params[pre + "wk"].T
        da += g.dv @ params[pre + "wv"].T
        a = ctx["a"]
        grads[pre + "wq"] = _wgrad(a, g.dq)
        grads[pre + "wk"] = _wgrad(a, g.dk)
        grads[pre + "wv"] = _wgrad(a, g.dv)
        del g
        dx, grads[pre + "ln1.g"], grads[pre + "ln1.b"] = _layer_norm_backward(
            da, params[pre + "ln1.g"], ctx["ln1"])
        del da
        dx += dx_mid

    # The tied embedding is read twice: as the logits' weight and as the
    # token lookup. The lookup's scatter-add of dx into the rows of repeated
    # token ids is the one-hot (B*T, V) matrix's transpose times dx.
    onehot = np.zeros((b * t, params["embed"].shape[0]))
    onehot[np.arange(b * t), inputs.ravel()] = 1.0
    grads["embed"] = _wgrad(dlogits, cache["hf"]) + _wgrad(onehot, dx)
    return grads


def global_grad_norm(grads: dict[str, np.ndarray]) -> float:
    total = 0.0
    for name in grads:
        g = grads[name]
        total += float(np.add.reduce(g * g, axis=None))
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# Adam.
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]


def init_adam(params: dict[str, np.ndarray]) -> AdamState:
    return AdamState(
        step=0,
        m={n: np.zeros_like(p) for n, p in params.items()},
        v={n: np.zeros_like(p) for n, p in params.items()},
    )


def adam_step(params: dict, grads: dict, state: AdamState,
              cfg: TrainConfig) -> tuple[dict, AdamState]:
    """One bias-corrected Adam update; no weight decay, no clipping."""
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NonFiniteGradient(f"gradient for {name!r} is not finite at step {state.step + 1}")
    b1, b2 = cfg.adam_betas
    state.step += 1
    t = state.step
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for name, g in grads.items():
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        params[name] -= cfg.lr * (m / c1) / (np.sqrt(v / c2) + cfg.adam_eps)
    return params, state


# ---------------------------------------------------------------------------
# Training loop and evaluation.
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    params: dict[str, np.ndarray]
    metrics: RunMetrics
    vocab: Vocabulary
    config: TrainConfig


def sample_windows(tokens: np.ndarray, seq_len: int, batch: int,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    starts = rng.integers(0, len(tokens) - seq_len, size=batch)
    idx = starts[:, np.newaxis] + np.arange(seq_len)[np.newaxis, :]
    return tokens[idx], tokens[idx + 1]


def train(cfg: TrainConfig) -> TrainResult:
    """Run the full training loop; deterministic given (seed, config, corpus).

    A loss that is not finite raises NonFiniteInput at its step (counted
    from 1, as NonFiniteGradient counts them). A gradient norm that is not
    finite raises NonFiniteGradient at its step, also when every gradient
    entry is finite and only their sum of squares overflows."""
    tokens, vocab = load_corpus(cfg.corpus_path)
    if len(tokens) < cfg.seq_len + 1:
        raise CorpusTooSmall(
            f"corpus has {len(tokens)} tokens; need at least seq_len+1 = {cfg.seq_len + 1}")
    rng = np.random.default_rng(cfg.seed)
    params = init_params(cfg, vocab.size, rng)
    state = init_adam(params)
    metrics = RunMetrics()
    for step in range(1, cfg.steps + 1):
        t0 = time.perf_counter()
        inputs, targets = sample_windows(tokens, cfg.seq_len, cfg.batch, rng)
        loss, cache = forward_loss(params, inputs, targets, cfg)
        if not math.isfinite(loss):
            raise NonFiniteInput(f"loss is not finite at step {step}")
        grads = backward(cache)
        norm = global_grad_norm(grads)
        params, state = adam_step(params, grads, state, cfg)
        # after adam_step, which names the parameter of a non-finite entry
        if not math.isfinite(norm):
            raise NonFiniteGradient(f"gradient norm is not finite at step {step}")
        metrics.loss.append(loss)
        metrics.grad_norm.append(norm)
        metrics.step_time.append(time.perf_counter() - t0)
    return TrainResult(params=params, metrics=metrics, vocab=vocab, config=cfg)


def evaluate_ppl(params: dict, cfg: TrainConfig, vocab: Vocabulary,
                 text: str | bytes) -> float:
    """exp(mean next-token cross-entropy) over non-overlapping windows.

    Windows advance by seq_len so every position is predicted at most once;
    a trailing fragment shorter than one window is dropped. The windows run
    through the forward in chunks of about _EVAL_CHUNK_POSITIONS positions,
    run side by side (_run_all). Peak memory is about one chunk's
    temporaries per thread and does not grow with the text; each window's
    losses are the bits one batch of all windows gives, whatever the thread
    count. A chunk's error is raised as _run_all raises it: the first failing
    chunk in text order wins. A perplexity that is not finite raises
    NonFiniteInput.
    """
    data = text.encode("utf-8") if isinstance(text, str) else bytes(text)
    ids = vocab.encode(data)
    t = cfg.seq_len
    if len(ids) < t + 1:
        raise TextTooShort(f"need at least seq_len+1 = {t + 1} tokens, got {len(ids)}")
    n_windows = (len(ids) - 1) // t
    chunk = max(1, _EVAL_CHUNK_POSITIONS // t)
    nll = np.empty((n_windows, t))

    def run_chunk(lo: int) -> None:
        hi = min(lo + chunk, n_windows)
        idx = (np.arange(lo, hi) * t)[:, np.newaxis] + np.arange(t)[np.newaxis, :]
        nll[lo:hi] = _forward(params, ids[idx], ids[idx + 1], cfg, keep=False)[0]

    _run_all(run_chunk, range(0, n_windows, chunk), _workers())
    loss = float(nll.mean())
    ppl = float(np.exp(loss))
    if not math.isfinite(ppl):
        raise NonFiniteInput(f"perplexity is not finite (mean loss {loss})")
    return ppl


def _workers() -> int:
    """How many CPUs this process may run on: the threads evaluate_ppl
    runs its chunks on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _train_workers() -> int:
    """How many threads the train step runs its micro-batches on: the CPUs
    this process may run on, shared out among the most threads a loaded
    OpenBLAS runs one call on; 1 where no OpenBLAS can be asked.

    A multi-threaded OpenBLAS serialises the train step's calls made at once
    from several threads, while its own threads spin: the default step took
    ~30 ms at two workers on a two-CPU host against ~26 ms at one, with
    OpenBLAS at two threads, and ~18 ms at two workers with OpenBLAS at one.
    Eval's smaller calls do not lose this way: with OpenBLAS at two threads
    an eval of the bundled corpus took ~900 ms on two threads against
    ~1250 ms on one (BENCH_train.json kept_heap), so _workers() leaves the
    BLAS out.
    """
    cpus = _workers()
    getters = _openblas_thread_getters()
    blas = max(get() for get in getters) if getters else cpus
    return max(1, cpus // blas)


@functools.lru_cache(maxsize=1)
def _openblas_thread_getters() -> tuple:
    """openblas_get_num_threads of every OpenBLAS mapped into this process
    at the first call; none off Linux. numpy's OpenBLAS runs every BLAS call
    of the package. scipy bundles another, mapped only once the first GELU
    imports scipy.special (_erf), so a first call before that lists numpy's
    alone; scipy's runs none of the package's calls."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = _openblas_paths(maps)
    except OSError:
        return ()
    getters = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # gone from disk or not loadable by this path
            continue
        for prefix, suffix in itertools.product(("openblas", "scipy_openblas"), ("", "64_")):
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                getters.append(getter)
                break
    return tuple(getters)


def _openblas_paths(maps_lines) -> list[str]:
    """The files mapped into a process whose name holds "openblas", once
    each, from the lines of its /proc/PID/maps; not those deleted from disk
    since they were mapped. A path may hold spaces."""
    paths = set()
    for line in maps_lines:
        fields = line.rstrip("\n").split(maxsplit=5)
        if (len(fields) == 6 and not fields[5].endswith(" (deleted)")
                and "openblas" in fields[5].rsplit("/", 1)[-1]):
            paths.add(fields[5])
    return sorted(paths)


def _keep_freed_heap() -> None:
    """Have glibc keep freed blocks mapped for reuse, for the whole process.

    By default glibc maps each block above its mmap threshold (128 KiB at
    first) on its own and unmaps it when freed, and hands a heap's free top
    back to the kernel once it passes 128 KiB; a train step that drops its
    temporaries then page-faults them in again, zero-filled, the next step.
    Blocks up to 32 MiB (glibc's 64-bit maximum) now come from the heap, and
    up to 64 MiB of free top stays mapped. Both are needed: the trim
    threshold alone also freezes the mmap threshold at 128 KiB. Nothing is
    set where there is no mallopt or it refuses (it returns 0, as musl's
    does).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library to ask
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    if mallopt(-3, 32 << 20):  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_keep_freed_heap()


class _Inbox:
    """Where one helper waits for its next job. There is never more than one:
    a helper is lent again only once it is idle, after taking its job. The
    lock is held while the inbox is empty. (queue.SimpleQueue would do, but
    importing queue added ~0.1 MB to every process's RSS.)"""

    def __init__(self) -> None:
        self.job = None
        self.filled = threading.Lock()
        self.filled.acquire()

    def put(self, job) -> None:
        self.job = job
        self.filled.release()

    def take(self):
        self.filled.acquire()
        job, self.job = self.job, None
        return job


class _Helpers:
    """The daemon threads _run_all lends its items to, kept across calls.

    Each helper waits on its own inbox for one call's work at a time, and is
    idle again before that call can see it finish. A helper is started only
    when a call asks for more than have been started, so there are never
    more than the largest workers - 1 asked for. A kept thread keeps its
    malloc arena too, so the process's arena count stays fixed.
    """

    def __init__(self) -> None:
        self.forget()

    def forget(self) -> None:
        """No helper at all: at creation, and in a forked child, which has
        no thread but the one that forked."""
        self.lock = threading.Lock()
        self.idle: list[_Inbox] = []
        self.started = 0

    def borrow(self, n: int) -> list[_Inbox]:
        """The inboxes of up to n idle helpers. While fewer than n are idle
        and fewer than n have been started, a new helper is started first."""
        with self.lock:
            while len(self.idle) < n and self.started < n:
                inbox = _Inbox()
                threading.Thread(target=_serve, args=(inbox,), daemon=True,
                                 name=f"sasoftmax-helper-{self.started + 1}").start()
                self.started += 1
                self.idle.append(inbox)
            lent = self.idle[max(0, len(self.idle) - n):]
            del self.idle[len(self.idle) - len(lent):]
        return lent

    def give_back(self, inbox: _Inbox) -> None:
        with self.lock:
            self.idle.append(inbox)


def _serve(inbox: _Inbox) -> None:
    """A helper's life: run each job posted to its inbox. The job is called
    straight from take(), so no reference to the last call's items and
    results outlives it."""
    while True:
        inbox.take()()


_helpers = _Helpers()
if hasattr(os, "register_at_fork"):  # not on Windows
    os.register_at_fork(after_in_child=_helpers.forget)


def _run_all(fn, items, workers: int) -> list:
    """[fn(item) for item in items], the items run side by side.

    The calling thread runs items itself, beside up to workers - 1 idle
    helper threads (fewer if there are fewer items), each thread taking the
    next item in order. No thread takes a second item before every helper
    lent to the call has taken its first: a thread that ran two of the first
    items would hold both results at once, and its malloc arena would keep
    room for both from then on. Helpers are daemon threads kept across calls
    and started at the first call that needs them (_Helpers); with no helper
    free, as in a call made from inside an item or beside another thread's
    call, the caller runs every item alone. The call waits only for the
    helpers that took one of its items. Once an item raises, items not yet
    started are dropped, and when every taken item is done the error of the
    first failing item in order is raised as it is.
    """
    items = list(items)
    results = [None] * len(items)
    errors = {}
    lock = threading.Lock()
    changed = threading.Condition(lock)
    helpers = _helpers
    inboxes = helpers.borrow(min(workers, len(items)) - 1)
    taken = 0  # items started so far
    coming = len(inboxes)  # lent helpers that have not woken yet
    busy = 0  # helpers that took an item and are not idle again

    def work(helper: bool = False) -> bool:
        """Run the next items until none is left or one has failed; whether
        any item ran. A helper counts itself busy from its first item."""
        nonlocal taken, coming, busy
        took = False
        while True:
            with lock:
                if took:
                    changed.wait_for(lambda: errors or not coming)
                elif helper:
                    # woken, whether or not an item is left for it
                    coming -= 1
                    changed.notify_all()
                if errors or taken == len(items):
                    return took
                i = taken
                taken += 1
                if helper and not took:
                    busy += 1
            took = True
            try:
                results[i] = fn(items[i])
            except BaseException as exc:
                with lock:
                    errors[i] = exc
                    changed.notify_all()
                return took

    def lend(inbox: _Inbox) -> None:
        nonlocal busy
        took = work(helper=True)
        helpers.give_back(inbox)
        if took:
            with lock:
                busy -= 1
                changed.notify_all()

    for inbox in inboxes:
        inbox.put(functools.partial(lend, inbox))
    try:
        work()
    finally:
        with lock:
            taken = len(items)  # should the caller be interrupted, start no more
            changed.wait_for(lambda: not busy)
    if errors:
        raise errors[min(errors)]
    return results


def attention_maps(params: dict, cfg: TrainConfig, vocab: Vocabulary,
                   text: str | bytes) -> list[np.ndarray]:
    """Per-layer attention weight matrices for a single prompt (masked tail 0)."""
    data = text.encode("utf-8") if isinstance(text, str) else bytes(text)
    ids = vocab.encode(data)
    if len(ids) < 1:
        raise TextTooShort("prompt must contain at least one byte")
    x = params["embed"][ids[np.newaxis, :]]
    maps = []
    for i in range(cfg.layers):
        x, ctx = _block(x, params, f"h{i}.", cfg, keep=True)
        maps.append(ctx["attn"].weights[0])
    return maps


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------

def metrics_to_csv(metrics: RunMetrics, wall_times: bool = False) -> str:
    """CSV history. Wall-clock step times are recorded only on request so the
    default artifact is byte-reproducible across runs."""
    lines = ["step,loss,grad_norm,step_time_s"]
    for i in range(len(metrics)):
        dt = metrics.step_time[i] if wall_times else 0.0
        lines.append("%d,%.17g,%.17g,%.17g" % (i, metrics.loss[i], metrics.grad_norm[i], dt))
    return "\n".join(lines) + "\n"


# The TrainConfig fields a checkpoint keeps besides kind: the model's shape
# and arithmetic, all that evaluating it needs.
_MANIFEST_CONFIG = ("layers", "d_model", "seq_len", "rope", "rope_base", "eps")
# Manifest key -> JSON type; a float key also takes an int, and bool is
# accepted only where it is meant. The config keys have the types of
# TrainConfig's defaults.
_MANIFEST_TYPES = {
    "format_version": int, "kind": str,
    **{key: type(getattr(TrainConfig, key)) for key in _MANIFEST_CONFIG},
    "vocab": list, "params": list,
}


def _atomic_write(path: Path, data: str | bytes) -> None:
    """Write the whole file to <name>.tmp, then rename it over ``path``, so a
    reader never sees a partial file. Text is written as UTF-8."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
    tmp.replace(path)


def save_checkpoint(path: str | Path, params: dict, cfg: TrainConfig,
                    vocab: Vocabulary) -> None:
    """Single binary blob: magic, manifest length, JSON manifest, raw float64
    little-endian parameter buffers in manifest order."""
    manifest = {
        "format_version": 1,
        "kind": cfg.kind.value,
        **{key: getattr(cfg, key) for key in _MANIFEST_CONFIG},
        "vocab": list(vocab.byte_values),
        "params": [{"name": n, "shape": list(params[n].shape)} for n in params],
    }
    payload = json.dumps(manifest, sort_keys=True).encode("utf-8")
    blob = b"".join(np.ascontiguousarray(params[n], dtype="<f8").tobytes() for n in params)
    _atomic_write(Path(path), CHECKPOINT_MAGIC + struct.pack("<Q", len(payload)) + payload + blob)


def _is_json(value, want: type) -> bool:
    if isinstance(value, bool):
        return want is bool
    return isinstance(value, (int, float) if want is float else want)


def _read_manifest(manifest, path) -> tuple[TrainConfig, Vocabulary, dict[str, tuple[int, ...]]]:
    """Config, vocabulary and parameter shapes of a decoded manifest.

    Raises CheckpointError unless every key is present with its type, the
    config is valid, the vocab holds strictly ascending byte values, and the
    parameter list is exactly the one init_params makes for that config.
    """
    def bad(why: str) -> CheckpointError:
        return CheckpointError(f"{path} has a bad manifest: {why}")

    if not isinstance(manifest, dict):
        raise bad("not a JSON object")
    for key, want in _MANIFEST_TYPES.items():
        if key not in manifest:
            raise bad(f"no {key!r}")
        if not _is_json(manifest[key], want):
            raise bad(f"{key!r} must be {want.__name__}")
    if manifest["format_version"] != 1:
        raise bad(f"format_version {manifest['format_version']} is not 1")
    try:
        # float() refuses an int too large for the kernels' float64
        config = {key: float(manifest[key]) if _MANIFEST_TYPES[key] is float else manifest[key]
                  for key in _MANIFEST_CONFIG}
        cfg = TrainConfig(corpus_path="", kind=VariantKind.from_string(manifest["kind"]),
                          **config)
    except (ConfigError, OverflowError) as exc:
        raise bad(str(exc)) from None
    byte_values = manifest["vocab"]
    if not all(_is_json(b, int) and 0 <= b <= 255 for b in byte_values):
        raise bad("vocab entries must be byte values 0-255")
    # Vocabulary assigns ids by ascending byte value
    if any(a >= b for a, b in zip(byte_values, byte_values[1:])):
        raise bad("vocab byte values must be strictly ascending")
    vocab = Vocabulary(byte_values=tuple(byte_values))
    entries = manifest["params"]
    # every layer has parameters, so this bounds the expected list's size
    if cfg.layers > len(entries):
        raise bad(f"{len(entries)} parameters cannot hold {cfg.layers} layers")
    shapes = _param_shapes(cfg, vocab.size)
    expected = [{"name": name, "shape": list(shape)} for name, shape in shapes.items()]
    # == also equates 8.0 and True with 8 and 1, hence the type test
    if entries != expected or any(type(n) is not int for e in entries for n in e["shape"]):
        raise bad("parameter names or shapes do not match the config")
    return cfg, vocab, shapes


def load_checkpoint(path: str | Path) -> tuple[dict, TrainConfig, Vocabulary]:
    raw = Path(path).read_bytes()
    if raw[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint (bad magic header)")
    off = len(CHECKPOINT_MAGIC)
    if len(raw) < off + 8:
        raise CheckpointError(f"{path} is truncated inside its header")
    (payload_len,) = struct.unpack("<Q", raw[off:off + 8])
    off += 8
    try:
        manifest = json.loads(raw[off:off + payload_len].decode("utf-8"))
    # UnicodeDecodeError and JSONDecodeError are ValueErrors; RecursionError
    # is a manifest nested deeper than the decoder recurses
    except (ValueError, RecursionError) as exc:
        raise CheckpointError(f"{path} has an undecodable manifest: {exc}") from None
    off += payload_len
    cfg, vocab, shapes = _read_manifest(manifest, path)
    params: dict[str, np.ndarray] = {}
    for name, shape in shapes.items():
        count = math.prod(shape)
        if len(raw) < off + count * 8:
            raise CheckpointError(f"{path} is truncated inside parameter {name!r}")
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=off).reshape(shape)
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"{path} has a NaN or infinite value in parameter {name!r}")
        params[name] = arr.astype(np.float64)
        off += count * 8
    if off != len(raw):
        raise CheckpointError(f"{path} has {len(raw) - off} trailing bytes")
    return params, cfg, vocab

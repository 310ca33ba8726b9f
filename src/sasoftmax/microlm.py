"""Desk-scale byte-level transformer language model with manual backprop.

Pre-norm decoder blocks (single attention head, 4x GELU MLP, tied input and
output embeddings), trained with Adam. No autograd anywhere: every gradient
is computed by hand, with the attention weights differentiated through the
selected scoring variant. Everything runs in float64 and is deterministic
given (seed, config, corpus).
"""

from __future__ import annotations

import json
import math
import os
import struct
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import erf

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
    _require_positive,
)
from .variants import DEFAULT_EPS, VariantKind

LN_EPS = 1e-5
CHECKPOINT_MAGIC = b"SAXLM001"
# evaluate_ppl runs max(1, _EVAL_CHUNK_POSITIONS // seq_len) windows per
# forward: 5 windows at the default seq_len of 64. A chunk's temporaries then
# stay small enough for glibc to reuse the same heap from one chunk to the
# next. From 6 windows up they often go back to the kernel when freed and the
# next chunk page-faults them in again: one eval of the bundled corpus at the
# default config took under 10 minor faults per call in chunks of 2-5
# windows, ~50k-100k in 6-8 with two threads and ~234k in 32
# (BENCH_eval.json). Smaller chunks run slower: at 2 windows the per-chunk
# Python overhead dominates, and with two threads 4 windows took ~1000 ms per
# call against ~830 ms at 5 (the same at one thread). The chunks run on one
# thread per CPU the process may use (_eval_workers), so about that many
# chunks' temporaries are alive at once; the peak still does not grow with
# the text, and each chunk's losses have the same bits whichever thread
# computes them.
_EVAL_CHUNK_POSITIONS = 320


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
        for name in ("layers", "d_model", "seq_len", "batch"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("steps", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("lr", "adam_eps", "eps", "rope_base"):
            _require_positive(name, getattr(self, name))
        # written as `not ok` so that NaN fails too
        if not (0.0 <= self.init_std < math.inf):
            raise ConfigError(f"init_std must be >= 0 and finite, got {self.init_std}")
        b1, b2 = self.adam_betas
        if not (0.0 < b1 < 1.0 and 0.0 < b2 < 1.0):
            raise ConfigError(f"adam betas must lie in (0, 1), got {self.adam_betas}")
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

def _layer_norm(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    xhat = x - mu
    y = xhat * xhat
    var = np.mean(y, axis=-1, keepdims=True)
    rstd = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= rstd
    np.multiply(gain, xhat, out=y)
    y += bias
    return y, (xhat, rstd)


def _layer_norm_backward(dy, gain, ctx):
    xhat, rstd = ctx
    tmp = dy * xhat
    dgain = np.sum(tmp, axis=(0, 1))
    dbias = np.sum(dy, axis=(0, 1))
    dx = dy * gain
    proj = np.mean(np.multiply(dx, xhat, out=tmp), axis=-1, keepdims=True)
    dx -= dx.mean(axis=-1, keepdims=True)
    dx -= np.multiply(xhat, proj, out=tmp)
    dx *= rstd
    return dx, dgain, dbias


_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _gelu(x, keep):
    """x * Phi(x), and with keep its derivative Phi(x) + x * pdf(x) (else None)."""
    phi = x / _SQRT2
    erf(phi, out=phi)
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
    """Mean next-token cross-entropy (nats) plus a cache for backward."""
    nll, cache = _forward(params, inputs, targets, cfg, keep=True)
    return float(nll.mean()), cache


def _forward(params: dict, inputs: np.ndarray, targets: np.ndarray,
             cfg: TrainConfig, keep: bool) -> tuple[np.ndarray, dict | None]:
    """The (B, T) next-token cross-entropy of every position, and forward_loss's
    cache if keep; without keep the cache is None and no layer's
    intermediates outlive the layer."""
    inputs = np.asarray(inputs)
    targets = np.asarray(targets)
    if inputs.shape != targets.shape or inputs.ndim != 2:
        raise ShapeMismatch(f"inputs {inputs.shape} and targets {targets.shape} must be equal 2-D")
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
    logits -= logits.max(axis=-1, keepdims=True)
    rows = np.arange(b)[:, np.newaxis]
    cols = np.arange(t)[np.newaxis, :]
    picked = logits[rows, cols, targets]
    np.exp(logits, out=logits)
    norm = logits.sum(axis=-1, keepdims=True)
    # -log_softmax at the targets, from the gathered entries only
    nll = np.log(norm)[..., 0] - picked
    if not keep:
        return nll, None
    logits /= norm

    cache = {
        "cfg": cfg, "inputs": inputs, "targets": targets, "mask": layers[0]["attn"].mask,
        "layers": layers, "hf": hf, "lnf": lnf_ctx,
        "probs": logits, "params": params,
    }
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
    ctx = {"a": a, "ln1": ln1_ctx, "attn": attn, "z": attn.scores, "att": att} if keep else None
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
    """Exact gradients of the mean cross-entropy for every parameter."""
    if "probs" not in cache:
        raise CacheMismatch("cache was not produced by forward_loss")
    cfg: TrainConfig = cache["cfg"]
    params = cache["params"]
    inputs = cache["inputs"]
    targets = cache["targets"]
    b, t = inputs.shape

    dlogits = cache["probs"].copy()
    rows = np.arange(b)[:, np.newaxis]
    cols = np.arange(t)[np.newaxis, :]
    dlogits[rows, cols, targets] -= 1.0
    dlogits /= b * t

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
        total += float(np.sum(g * g))
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
        if not np.all(np.isfinite(g)):
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
    from 1, as NonFiniteGradient counts them)."""
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
    one thread per CPU the process may use running chunks side by side. Peak
    memory is about that many chunks' temporaries and does not grow with the
    text; each window's losses are the bits one batch of all windows gives,
    whatever the thread count. A chunk's error is raised as is, the first
    failing chunk in text order winning; chunks not yet started are then
    dropped, and no thread outlives the call. A perplexity that is not finite
    raises NonFiniteInput.
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

    starts = range(0, n_windows, chunk)
    pool = ThreadPoolExecutor(max_workers=min(_eval_workers(), len(starts)))
    try:
        for future in [pool.submit(run_chunk, lo) for lo in starts]:
            future.result()
    finally:
        pool.shutdown(cancel_futures=True)
    loss = float(nll.mean())
    ppl = float(np.exp(loss))
    if not math.isfinite(ppl):
        raise NonFiniteInput(f"perplexity is not finite (mean loss {loss})")
    return ppl


def _eval_workers() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


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

"""Single-head causal attention with a pluggable scoring variant and a
hand-written backward pass.

Inputs are stacks of shape (..., T, d); leading axes are batch axes, so one
call serves both a single head and the trainer's (B, T, d) batch. The forward
pass computes z = (QK^T) * (1/sqrt(d)) (+ bias), applies the selected scoring
function under the causal mask, and returns the weighted sum of values. The
backward pass maps the weight-space gradient to the logit gradient dz = dL/dz
(also dL/dbias) with the batched vector-Jacobian product, exact and O(T)
memory per query row, and returns dz with dq, dk and dv. It reads the softmax,
the scaler and the RoPE tables that the forward kept instead of recomputing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import CacheMismatch, NonFiniteInput, OddHeadDim, ShapeMismatch
from .variants import DEFAULT_EPS, VariantKind, _Scaler, _weight_vjp, _weights


def causal_mask(t: int) -> np.ndarray:
    """Boolean lower-triangular mask: row i may attend to columns j <= i.

    The array is read-only and shared by every call with the same t.
    """
    return _causal_mask(t)


@functools.lru_cache(maxsize=8)
def _causal_mask(t: int) -> np.ndarray:
    mask = np.tril(np.ones((t, t), dtype=bool))
    mask.flags.writeable = False
    return mask


@dataclass(frozen=True)
class AttentionInput:
    """q, k, v of shape (..., T, d); bias, if given, of shape (..., T, T)."""

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    kind: VariantKind = VariantKind.BASELINE
    bias: np.ndarray | None = None
    rope: bool = False
    rope_base: float = 10000.0
    eps: float = DEFAULT_EPS


@dataclass(frozen=True)
class AttentionCache:
    """Forward intermediates needed for the exact backward pass.

    weights = scaler * softmax; scaler is None for the baseline. cos/sin are
    the RoPE tables the forward rotated q and k with, None without rope.
    """

    q_rot: np.ndarray
    k_rot: np.ndarray
    v: np.ndarray
    scores: np.ndarray
    softmax: np.ndarray
    scaler: _Scaler | None
    weights: np.ndarray
    mask: np.ndarray
    eps: float
    scale: float
    rope_base: float
    cos: np.ndarray | None
    sin: np.ndarray | None


@dataclass(frozen=True)
class AttentionGrads:
    dq: np.ndarray
    dk: np.ndarray
    dv: np.ndarray
    dz: np.ndarray


def _as_stack(name: str, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2:
        raise ShapeMismatch(f"{name} must be at least 2-D (..., T, d), got shape {x.shape}")
    return x


def scaled_scores(q: np.ndarray, k: np.ndarray,
                  bias: np.ndarray | None = None) -> np.ndarray:
    """Causal logit stack z[..., i, j] = (q_i . k_j) * (1/sqrt(d)) (+ bias).

    Row i is live for columns j <= i; entries above the diagonal are computed
    but carry no meaning and are ignored downstream.
    """
    q = _as_stack("q", q)
    k = _as_stack("k", k)
    if q.shape != k.shape:
        raise ShapeMismatch(f"q {q.shape} and k {k.shape} must agree")
    z = q @ np.swapaxes(k, -1, -2)
    z *= 1.0 / np.sqrt(float(q.shape[-1]))
    if bias is not None:
        bias = _as_stack("bias", bias)
        if bias.shape != z.shape:
            raise ShapeMismatch(f"bias must have shape {z.shape}, got {bias.shape}")
        z += bias
    return z


def rope_tables(t: int, d: int, base: float = 10000.0) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin tables of shape (t, d//2) for rotary position embedding.

    The arrays are read-only and shared by every call with the same
    (t, d, base).
    """
    if d % 2 != 0:
        raise OddHeadDim(f"head dimension must be even for rotation pairs, got {d}")
    return _rope_tables(t, d, base)


@functools.lru_cache(maxsize=8)
def _rope_tables(t: int, d: int, base: float) -> tuple[np.ndarray, np.ndarray]:
    inv_freq = base ** (-np.arange(0, d, 2, dtype=np.float64) / d)
    angles = np.arange(t, dtype=np.float64)[:, np.newaxis] * inv_freq[np.newaxis, :]
    tables = np.cos(angles), np.sin(angles)
    for table in tables:
        table.flags.writeable = False
    return tables


def rope_rotate(x: np.ndarray, base: float = 10000.0) -> np.ndarray:
    """Rotate consecutive feature pairs of each row by its position angle.

    Row p, pair m rotates by p * base**(-2m/d); position 0 is unchanged and
    every row keeps its Euclidean norm.
    """
    x = np.asarray(x, dtype=np.float64)
    cos, sin = rope_tables(x.shape[-2], x.shape[-1], base)
    return _rotate(x, cos, sin)


def rope_rotate_back(grad: np.ndarray, base: float = 10000.0) -> np.ndarray:
    """Pull a gradient back through rope_rotate (rotation by the negated angle)."""
    grad = np.asarray(grad, dtype=np.float64)
    return _rotate_back(grad, *rope_tables(grad.shape[-2], grad.shape[-1], base))


def _rotate(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    even = x[..., 0::2]
    odd = x[..., 1::2]
    out = np.empty_like(x)
    out_even = np.multiply(even, cos, out=out[..., 0::2])
    out_even -= odd * sin
    out_odd = np.multiply(even, sin, out=out[..., 1::2])
    out_odd += odd * cos
    return out


def _rotate_back(grad: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """The pullback of _rotate(x, cos, sin): rotation by the negated angle."""
    return _rotate(grad, cos, -sin)


def attention_forward(inp: AttentionInput) -> tuple[np.ndarray, AttentionCache]:
    """output[..., i, :] = sum_{j<=i} weights[..., i, j] * v[..., j, :]."""
    q = _as_stack("q", inp.q)
    k = _as_stack("k", inp.k)
    v = _as_stack("v", inp.v)
    if q.shape != k.shape or q.shape != v.shape:
        raise ShapeMismatch(f"q {q.shape}, k {k.shape}, v {v.shape} must agree")
    for name, arr in (("q", q), ("k", k), ("v", v), ("bias", inp.bias)):
        if arr is not None and not np.all(np.isfinite(arr)):
            raise NonFiniteInput(f"{name} contains NaN or Inf")

    if inp.rope:
        cos, sin = rope_tables(q.shape[-2], q.shape[-1], inp.rope_base)
        q_rot, k_rot = _rotate(q, cos, sin), _rotate(k, cos, sin)
    else:
        cos = sin = None
        q_rot, k_rot = q, k
    scores = scaled_scores(q_rot, k_rot, inp.bias)
    if not np.all(np.isfinite(scores)):
        raise NonFiniteInput("attention scores contain NaN or Inf")
    mask = causal_mask(q.shape[-2])
    softmax, scaler, weights = _weights(scores, mask, inp.kind, inp.eps)
    out = weights @ v
    cache = AttentionCache(
        q_rot=q_rot, k_rot=k_rot, v=v, scores=scores, softmax=softmax, scaler=scaler,
        weights=weights, mask=mask, eps=inp.eps,
        scale=1.0 / np.sqrt(float(q.shape[-1])), rope_base=inp.rope_base,
        cos=cos, sin=sin)
    return out, cache


def attention_backward(cache: AttentionCache, d_out: np.ndarray) -> AttentionGrads:
    """Exact gradients of the attention output at q, k, v and the logits z.

    The weight-space gradient d_out @ v^T is pulled back to the logits by
    variants._weight_vjp, batched over every query row of every stack, from
    the softmax and scaler the forward kept.
    """
    d_out = np.asarray(d_out, dtype=np.float64)
    if d_out.shape != cache.v.shape:
        raise CacheMismatch(f"d_out shape {d_out.shape} does not match forward {cache.v.shape}")

    dv = np.swapaxes(cache.weights, -1, -2) @ d_out
    dw = d_out @ np.swapaxes(cache.v, -1, -2)
    dz = _weight_vjp(cache.mask, dw, cache.softmax, cache.scaler, cache.weights)

    dq_rot = dz @ cache.k_rot
    dq_rot *= cache.scale
    dk_rot = np.swapaxes(dz, -1, -2) @ cache.q_rot
    dk_rot *= cache.scale
    if cache.cos is not None:
        dq = _rotate_back(dq_rot, cache.cos, cache.sin)
        dk = _rotate_back(dk_rot, cache.cos, cache.sin)
    else:
        dq, dk = dq_rot, dk_rot
    return AttentionGrads(dq=dq, dk=dk, dv=dv, dz=dz)

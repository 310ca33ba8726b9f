"""Row-wise scoring kernels: softmax and its self-adjusting variants.

Each self-adjusting variant multiplies the softmax output elementwise by a
scaler (x - lo) / d built from the same logits; the kinds differ only in the
per-row lo and d:

    baseline:  softmax(x)
    v1:        lo = 0,              d = 1
    v2:        lo = x_min,          d = 1
    v3:        lo = x_min,          d = x_max - x_min + eps
    v4:        lo = min(x_min, 0),  d = max(x_max, 0) - lo + eps

The batched kernels take scores of shape (..., T) with a boolean mask of
live (causal) positions: extrema are taken over the live entries only, ties
resolve to the lowest index, and masked positions are forced to exactly 0 in
every output. variant_weights, variant_scaler and jacobians.variant_weight_vjp
raise ShapeMismatch unless the mask broadcasts to the scores' shape, and
EmptyRow unless every row has a live entry. masked_softmax and
masked_extrema, which the attention layer runs on its own causal mask, check
nothing. The single-row API (apply_variant, and the Jacobians built on it)
takes one row of live logits and no mask. All arithmetic is 64-bit.

_weight_vjp, next to the scaler whose gates it reads, is the one analytic
gradient in the package: the attention backward and every Jacobian in
jacobians run it.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, EmptyRow, NonFiniteInput, ShapeMismatch, _require_positive

DEFAULT_EPS = 1e-10


class VariantKind(enum.Enum):
    """Selects the scoring function applied to a logit row."""

    BASELINE = "baseline"
    V1 = "v1"
    V2 = "v2"
    V3 = "v3"
    V4 = "v4"

    @classmethod
    def from_string(cls, name: str) -> "VariantKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ConfigError(f"unknown variant {name!r} (expected one of: {valid})") from None


# Enum order doubles as the canonical serialization order.
ALL_KINDS = tuple(VariantKind)


def _ordered_kinds(kinds) -> tuple[VariantKind, ...]:
    """The distinct kinds in ALL_KINDS order. No kinds at all, or an entry
    that is not a VariantKind, is a ConfigError."""
    wanted = tuple(kinds)
    for k in wanted:
        if not isinstance(k, VariantKind):
            raise ConfigError(f"kinds must hold VariantKind values, got {k!r}")
    if not wanted:
        raise ConfigError("kinds must be non-empty")
    return tuple(k for k in ALL_KINDS if k in wanted)


def _checked_values(z) -> np.ndarray:
    """One row of live logits as a float64 array, checked for shape and values."""
    values = np.asarray(z, dtype=np.float64)
    if values.ndim != 1:
        raise ShapeMismatch(f"logit row must be 1-D, got shape {values.shape}")
    if values.shape[0] < 1:
        raise EmptyRow("logit row must have at least one entry")
    if not np.all(np.isfinite(values)):
        raise NonFiniteInput("logit entries must be finite")
    return values


def _check_batch(scores, mask, grad_w=None) -> None:
    """The batched kernels' input contract, read from shapes and the mask only:
    the mask (and an upstream gradient) broadcast to the scores' shape, and
    every row of the mask has a live entry."""
    target = np.shape(scores)
    if not target:
        raise ShapeMismatch("scores need a row axis, got a scalar")
    for name, a in (("mask", mask), ("grad_w", grad_w)):
        if a is None:
            continue
        try:
            ok = np.broadcast_shapes(np.shape(a), target) == target
        except ValueError:
            ok = False
        if not ok:
            raise ShapeMismatch(f"{name} shape {np.shape(a)} does not broadcast to "
                                f"the scores' shape {target}")
    if not np.all(np.any(np.atleast_1d(mask), axis=-1)):
        raise EmptyRow("every row of the mask needs a live entry")


# ---------------------------------------------------------------------------
# Masked array kernels. These operate on arrays of shape (..., T) with a
# boolean mask of live positions and are shared by the row API and the
# attention layer, so all paths compute identical values.
# ---------------------------------------------------------------------------

def masked_softmax(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row-stochastic softmax over masked rows; masked entries come out 0.

    Computed with per-row max subtraction. Every row of ``mask`` must have at
    least one live entry; a row without one comes out NaN, unchecked.
    """
    e = np.where(mask, scores, -np.inf)
    e -= np.max(e, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.sum(e, axis=-1, keepdims=True)
    return e


def masked_extrema(scores: np.ndarray, mask: np.ndarray):
    """(min, max, argmin, argmax) over the live entries of each row.

    np.argmin/np.argmax return the first occurrence, which gives the
    lowest-index tie rule needed for deterministic gradients.
    """
    hi_fill = np.where(mask, scores, np.inf)
    lo_fill = np.where(mask, scores, -np.inf)
    return (
        np.min(hi_fill, axis=-1),
        np.max(lo_fill, axis=-1),
        np.argmin(hi_fill, axis=-1),
        np.argmax(lo_fill, axis=-1),
    )


class _Scaler(NamedTuple):
    """A self-adjusting scaler c = u / d with u = x - lo, and its derivative.

    ``u`` has the shape of the scores and is 0 on masked entries. Everything
    else is per row, with a trailing axis of length 1, or a float where it is
    the same for every row. lo and hi follow at most the row's live min and
    max, so their gradients are two gates: dlo/dx[amin] and dhi/dx[amax]. A
    gate is None where lo (or d) is constant; otherwise d = hi - lo + eps, so
    dd/dx[amin] = -dlo/dx[amin].
    """

    u: np.ndarray
    d: np.ndarray | float
    amin: np.ndarray | None = None
    amax: np.ndarray | None = None
    lo_at_min: np.ndarray | float | None = None
    hi_at_max: np.ndarray | float | None = None


def _scaler(scores: np.ndarray, mask: np.ndarray, kind: VariantKind, eps: float) -> _Scaler:
    """lo, d and their gates for v1-v4; the one place the kinds differ."""
    if kind is VariantKind.V1:
        return _Scaler(np.where(mask, scores, 0.0), 1.0)
    mn, mx, amin, amax = (a[..., np.newaxis] for a in masked_extrema(scores, mask))
    if kind is VariantKind.V2:
        return _Scaler(np.where(mask, scores - mn, 0.0), 1.0, amin, amax, 1.0)
    if kind is VariantKind.V3:
        lo, hi, lo_live, hi_live = mn, mx, 1.0, 1.0
    elif kind is VariantKind.V4:
        # the clamps own the derivative only while strictly active
        lo, hi = np.minimum(mn, 0.0), np.maximum(mx, 0.0)
        lo_live = (mn < 0.0).astype(np.float64)
        hi_live = (mx > 0.0).astype(np.float64)
    else:
        raise ConfigError(f"kind must be a VariantKind, got {kind!r}")
    return _Scaler(np.where(mask, scores - lo, 0.0), hi - lo + eps, amin, amax,
                   lo_live, hi_live)


def variant_scaler(scores: np.ndarray, mask: np.ndarray, kind: VariantKind,
                   eps: float = DEFAULT_EPS) -> np.ndarray:
    """The self-adjusting multiplier applied to the softmax output.

    Masked entries are returned as 0 (their value is never used).
    """
    _require_positive("eps", eps)
    _check_batch(scores, mask)
    if kind is VariantKind.BASELINE:
        return np.where(mask, np.ones(np.shape(scores)), 0.0)
    sc = _scaler(scores, mask, kind, eps)
    return sc.u / sc.d


def _weights(scores: np.ndarray, mask: np.ndarray, kind: VariantKind,
             eps: float) -> tuple[np.ndarray, _Scaler | None, np.ndarray]:
    """(softmax, scaler, weights): the weights and the two factors their VJP
    reads. The scaler is None for the baseline, whose weights are the softmax.

    Every scoring path runs this or variant_scaler, so eps is checked here."""
    _require_positive("eps", eps)
    s = masked_softmax(scores, mask)
    if kind is VariantKind.BASELINE:
        return s, None, s
    sc = _scaler(scores, mask, kind, eps)
    w = sc.u / sc.d
    w *= s
    return s, sc, w


def variant_weights(scores: np.ndarray, mask: np.ndarray, kind: VariantKind,
                    eps: float = DEFAULT_EPS) -> np.ndarray:
    """scaler(x) * softmax(x) on live entries, exact 0 on masked ones."""
    _check_batch(scores, mask)
    return _weights(scores, mask, kind, eps)[2]


def _sub_at(a: np.ndarray, idx: np.ndarray, v: np.ndarray) -> None:
    """a[..., idx] -= v in place along the last axis, for any memory layout.

    idx has a's number of axes, a last axis of length 1, and broadcasts to
    a's other axes; v broadcasts to the shape they give.
    """
    np.put_along_axis(a, idx, np.take_along_axis(a, idx, axis=-1) - v, axis=-1)


def _weight_vjp(mask: np.ndarray, grad_w: np.ndarray, s: np.ndarray,
                sc: _Scaler | None, w: np.ndarray) -> np.ndarray:
    """dL/dz given dL/dw = grad_w, from the softmax s, scaler sc and weights
    w = c * s of the same scores, as _weights returns them; 0 where masked.
    The scaler passes gradient at the argmin/argmax by the gates of _scaler.
    """
    # dz starts as a masked copy of grad_w; every later step writes only dz
    # or gs, never an argument, and the masked entries are zeroed last.
    dz = np.where(mask, grad_w, 0.0)
    if sc is None:
        dz *= s
        dz -= s * np.sum(dz, axis=-1, keepdims=True)
    else:
        # Softmax part s_k * (g_k c_k - sum_j g_j w_j), then the scaler's
        # identity term, its lo gate and d's two gates (hi, -lo).
        gs = dz * s
        gs_sum = np.sum(gs, axis=-1, keepdims=True)
        dz *= w
        gw_sum = np.sum(dz, axis=-1, keepdims=True)
        dz -= s * gw_sum
        gs /= sc.d
        dz += gs
        if sc.lo_at_min is not None:
            _sub_at(dz, sc.amin, sc.lo_at_min * gs_sum / sc.d)
        if sc.hi_at_max is not None:
            # sum_j g_j s_j u_j / d^2 = gw_sum / d
            quot = gw_sum / sc.d
            _sub_at(dz, sc.amax, sc.hi_at_max * quot)
            _sub_at(dz, sc.amin, -sc.lo_at_min * quot)
    np.copyto(dz, 0.0, where=~mask)
    return dz


# ---------------------------------------------------------------------------
# Single-row API: one row of live logits, no mask.
# ---------------------------------------------------------------------------

def apply_variant(z, kind: VariantKind, eps: float = DEFAULT_EPS) -> np.ndarray:
    """The selected scoring function's weights for one row of live logits."""
    values = _checked_values(z)
    return variant_weights(values, np.ones(values.shape, dtype=bool), kind, eps)

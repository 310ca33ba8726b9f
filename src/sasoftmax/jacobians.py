"""Analytic Jacobians of the scoring variants and a finite-difference harness.

For a live row z with s = softmax(z), scaler c = (z - lo) / d and weights
w = c * s, the Jacobian entry J[j][k] = dw_j/dz_k splits into

    J[j][k] = dc[j][k] * s_j  +  c_j * s_j * (1[j=k] - s_k)

where the second term is the usual softmax Jacobian weighted by the scaler
and the first routes gradient through the scaler:

    dc[j][k] = (1[j=k] - dlo/dz_k) / d  -  c_j / d * dd/dz_k

lo and d follow at most the row's min and max, so dlo/dz and dd/dz are
nonzero only at the argmin/argmax (the lowest tied index). Where d is not
constant it is hi - lo + eps, so dd/dz = dhi/dz - dlo/dz. The two gates
dlo/dz[argmin] and dhi/dz[argmax] per kind come from variants._scaler, which
both the batched VJP and the closed form read. The v4 clamps min(x_min, 0) /
max(x_max, 0) pass gradient only while strictly active (x_min < 0,
x_max > 0); at the boundary the constant branch owns the derivative.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, _require_positive
from .variants import (
    DEFAULT_EPS,
    ALL_KINDS,
    VariantKind,
    _Scaler,
    _checked_values,
    _ordered_kinds,
    _weights,
    variant_weights,
)

FD_STEP = 1e-5
TIE_MARGIN_STEPS = 10.0
ABS_FLOOR = 1e-9
# perturbed columns per variant_weights call in _fd_full_rows
_FD_COLUMNS = 4


@dataclass(frozen=True)
class JacobianBlock:
    """Dense T x T matrix with entries[j][k] = dweight_j/dlogit_k."""

    entries: np.ndarray


class GradCheckReport(NamedTuple):
    """Outcome of comparing one analytic Jacobian against central differences.

    max_rel_err is the effective relative error: entries whose absolute error
    is at or below the absolute floor contribute 0, so
    passed == (max_rel_err <= tol_rel) holds by construction.
    """

    kind: VariantKind
    t: int
    sample: int
    max_abs_err: float
    max_rel_err: float
    worst_entry: tuple[int, int]
    passed: bool
    skipped_tie: bool


def _sub_at(a: np.ndarray, idx: np.ndarray, v: np.ndarray) -> None:
    """a[..., idx] -= v in place along the last axis, for any memory layout.

    idx has a's shape with a last axis of length 1; v broadcasts to it.
    """
    np.put_along_axis(a, idx, np.take_along_axis(a, idx, axis=-1) - v, axis=-1)


def _jacobian_full_rows(z: np.ndarray, kind: VariantKind, eps: float) -> np.ndarray:
    """Batched closed-form Jacobians for fully live rows. z: (N, T) -> (N, T, T),
    with the samples innermost in memory, as _fd_full_rows returns them."""
    z = np.asfortranarray(z, dtype=np.float64)
    s, sc, cs = _weights(z, np.ones_like(z, dtype=bool), kind, eps)

    # Scaler-weighted softmax part: diag(c*s) - outer(c*s, s).
    jac = -cs[:, :, np.newaxis] * s[:, np.newaxis, :]
    diag = np.arange(z.shape[1])
    jac[:, diag, diag] += cs
    if sc is None:
        return jac

    # Scaler part dc[j][k] * s_j with c = (z - lo) / d: the identity term,
    # then the lo gate and d's two gates (hi, -lo) in the argmin/argmax
    # columns of each row.
    jac[:, diag, diag] += s / sc.d
    if sc.lo_at_min is not None:
        _sub_at(jac, sc.amin[:, np.newaxis], (sc.lo_at_min * s / sc.d)[..., np.newaxis])
    if sc.hi_at_max is not None:
        quot = sc.u * s / (sc.d * sc.d)
        _sub_at(jac, sc.amax[:, np.newaxis], (sc.hi_at_max * quot)[..., np.newaxis])
        _sub_at(jac, sc.amin[:, np.newaxis], (-sc.lo_at_min * quot)[..., np.newaxis])
    return jac


def variant_jacobian(z, kind: VariantKind, eps: float = DEFAULT_EPS) -> JacobianBlock:
    """Closed-form Jacobian of apply_variant with respect to the logit row."""
    values = _checked_values(z)
    return JacobianBlock(entries=_jacobian_full_rows(values[np.newaxis, :], kind, eps)[0])


def fd_jacobian(z, kind: VariantKind, eps: float = DEFAULT_EPS,
                h: float = FD_STEP) -> JacobianBlock:
    """Central-difference Jacobian oracle of apply_variant."""
    values = _checked_values(z)
    return JacobianBlock(entries=_fd_full_rows(values[np.newaxis, :], kind, eps, h)[0])


def _tie_rows(z: np.ndarray, kind: VariantKind, h: float) -> np.ndarray:
    margin = TIE_MARGIN_STEPS * h
    n, t = z.shape
    tie = np.zeros(n, dtype=bool)
    if t > 1:
        gaps = np.diff(np.sort(z, axis=-1), axis=-1)
        tie |= gaps.min(axis=-1) < margin
    if kind is VariantKind.V4:
        tie |= np.abs(z.min(axis=-1)) < margin
        tie |= np.abs(z.max(axis=-1)) < margin
    return tie


def _fd_full_rows(z: np.ndarray, kind: VariantKind, eps: float, h: float) -> np.ndarray:
    """Batched central differences for fully live rows. z: (N, T) -> (N, T, T).

    The perturbed rows and the result hold the samples innermost in memory,
    whatever z's layout. A row has only a few entries, so each row reduction
    in the variant kernels then runs as T passes over contiguous samples, not
    as N passes of length T. Each call to variant_weights takes one sign of
    up to _FD_COLUMNS perturbed columns, which bounds the stencil's memory.
    Row sums of T >= 8 entries run in sequence rather than pairwise, so their
    low bits differ from a stencil on rows stored contiguously.
    """
    _require_positive("h", h)
    n, t = z.shape
    zt = np.asarray(z, dtype=np.float64).T
    out = np.empty((t, t, n))
    for k0 in range(0, t, _FD_COLUMNS):
        k1 = min(k0 + _FD_COLUMNS, t)
        cols = np.arange(k0, k1)
        at = (cols, np.arange(k1 - k0))
        # memory order (j, k, sample), viewed as (k, sample, j) rows
        rows = np.empty((t, k1 - k0, n))
        rows[...] = zt[:, np.newaxis, :]
        stacked = rows.transpose(1, 2, 0)
        mask = np.ones_like(stacked, dtype=bool)
        diff = out[:, k0:k1]
        rows[at] = zt[cols] + h
        diff[...] = variant_weights(stacked, mask, kind, eps).transpose(2, 0, 1)
        rows[at] = zt[cols] - h
        diff -= variant_weights(stacked, mask, kind, eps).transpose(2, 0, 1)
        diff /= 2.0 * h
    return out.transpose(2, 0, 1)


def gradcheck(samples: int, t_range: tuple[int, int] = (1, 8),
              kinds: tuple[VariantKind, ...] = ALL_KINDS,
              tol_rel: float = 1e-6, seed: int = 0,
              eps: float = DEFAULT_EPS, h: float = FD_STEP,
              abs_floor: float = ABS_FLOOR) -> list[GradCheckReport]:
    """Compare analytic and central-difference Jacobians on random rows.

    Draws ``samples`` rows with entries uniform in [-8, 8] for every
    (row length, kind) pair; rows where the finite-difference stencil could
    cross an extrema tie are reported with skipped_tie=True and not compared.
    Deterministic given the seed.

    At the default h and abs_floor, central differences are accurate to about
    the floor, so the floor zeroes nearly every entry's error and the check is
    in effect |analytic - fd| <= abs_floor per entry: at seed 7, 39 990 of the
    39 993 compared rows of gradcheck(1000, (1, 8)) have max_rel_err == 0.0.
    tol_rel only bites once abs_floor is lowered too.
    """
    if samples < 1:
        raise ConfigError(f"samples must be >= 1, got {samples}")
    _require_positive("tol_rel", tol_rel)
    t_lo, t_hi = t_range
    if not 1 <= t_lo <= t_hi:
        raise ConfigError(f"bad row-length range {t_range}")
    kinds = _ordered_kinds(kinds)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")

    rng = np.random.default_rng(seed)
    reports: list[GradCheckReport] = []
    for t in range(t_lo, t_hi + 1):
        for kind in kinds:
            z = rng.uniform(-8.0, 8.0, size=(samples, t))
            ties = _tie_rows(z, kind, h)
            analytic = _jacobian_full_rows(z, kind, eps)
            fd = _fd_full_rows(z, kind, eps, h)
            abs_err = np.abs(analytic - fd).reshape(samples, -1)
            # The effective relative error, built in place of its denominator.
            # A tie row reads as all-zero error, so it comes out with entry
            # (0, 0) and passes, since tol_rel > 0.
            eff_rel = np.maximum(np.abs(analytic), np.abs(fd)).reshape(samples, -1)
            np.divide(abs_err, eff_rel, out=eff_rel, where=eff_rel > 0)
            np.copyto(eff_rel, 0.0, where=(abs_err <= abs_floor) | ties[:, np.newaxis])
            max_abs = np.where(ties, 0.0, abs_err.max(axis=1))
            # Each row's reductions at once; argmax takes the first maximum,
            # so the worst entry is the lowest flat index among ties.
            worst = eff_rel.argmax(axis=1)
            max_rel = eff_rel[np.arange(samples), worst]
            rows = zip(max_abs.tolist(), max_rel.tolist(),
                       zip((worst // t).tolist(), (worst % t).tolist()),
                       (max_rel <= tol_rel).tolist(), ties.tolist())
            reports += [GradCheckReport(kind, t, i, *row) for i, row in enumerate(rows)]
    return reports


def reports_to_json(reports: list[GradCheckReport]) -> str:
    # json writes the worst_entry tuple as a list
    return json.dumps([{**r._asdict(), "kind": r.kind.value} for r in reports], indent=0)


def variant_weight_vjp(scores: np.ndarray, mask: np.ndarray, grad_w: np.ndarray,
                       kind: VariantKind, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Vector-Jacobian product: dL/dz given dL/dw, batched over rows.

    Equivalent to applying the transposed JacobianBlock of each row but in
    O(T) memory per row. Masked entries of the result are exactly 0.
    """
    scores = np.asarray(scores, dtype=np.float64)
    return _weight_vjp(mask, grad_w, *_weights(scores, mask, kind, eps))


def _weight_vjp(mask: np.ndarray, grad_w: np.ndarray, s: np.ndarray,
                sc: _Scaler | None, w: np.ndarray) -> np.ndarray:
    """variant_weight_vjp from the softmax s, scaler sc and weights w = c * s
    of the same scores, as variants._weights returns them; the attention
    backward passes the ones its forward kept."""
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

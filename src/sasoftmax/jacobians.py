"""The gradient oracles: public Jacobians and VJP of the scoring variants,
and the central-difference harness that checks them.

The one analytic gradient is variants._weight_vjp, the batched
vector-Jacobian product that the attention backward, and so the trainer,
runs. variant_weight_vjp is its checked public form. Every dense Jacobian
(variant_jacobian, gradcheck's analytic side and, through variant_jacobian,
the saturation sweep) is built from it: row j of a row's Jacobian is the VJP
of the basis vector e_j. Central differences (_fd_full_rows, gradcheck's other
side) are the independent oracle here; the entrywise closed form, with its
derivation, is a test oracle in tests/.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, _require_positive
from .variants import (
    DEFAULT_EPS,
    ALL_KINDS,
    VariantKind,
    _check_batch,
    _checked_values,
    _ordered_kinds,
    _weight_vjp,
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


def _jacobian_full_rows(z: np.ndarray, kind: VariantKind, eps: float) -> np.ndarray:
    """Batched Jacobians for fully live rows, z: (N, T) -> (N, T, T), with the
    samples innermost in memory, as _fd_full_rows returns them.

    One _weight_vjp call on a stack of the T basis vectors gives every row of
    every block. The rows carry a leading axis of length 1, so the scaler's
    argmin/argmax have the stack's number of axes, as variants._sub_at needs.
    """
    n, t = z.shape
    rows = np.asfortranarray(z, dtype=np.float64)[np.newaxis]
    mask = np.ones_like(rows, dtype=bool)
    # memory order (j, k, sample), viewed as (j, sample, k); basis[j, :, j] = 1
    basis = np.zeros((t, t, n)).transpose(0, 2, 1)
    basis[np.arange(t), :, np.arange(t)] = 1.0
    return _weight_vjp(mask, basis, *_weights(rows, mask, kind, eps)).transpose(1, 0, 2)


def variant_jacobian(z, kind: VariantKind, eps: float = DEFAULT_EPS) -> JacobianBlock:
    """Jacobian of apply_variant with respect to the logit row, built from the
    trainer's VJP: row j is variant_weight_vjp of the basis vector e_j."""
    values = _checked_values(z)
    return JacobianBlock(entries=_jacobian_full_rows(values[np.newaxis, :], kind, eps)[0])


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
              h: float = FD_STEP) -> list[GradCheckReport]:
    """Compare analytic and central-difference Jacobians on random rows.

    Draws ``samples`` rows with entries uniform in [-8, 8] for every
    (row length, kind) pair; rows where the finite-difference stencil could
    cross an extrema tie are reported with skipped_tie=True and not compared.
    Deterministic given the seed. The variants run at DEFAULT_EPS.

    At the default h, central differences are accurate to about the module's
    absolute floor ABS_FLOOR, so the floor zeroes nearly every entry's error
    and the check is in effect |analytic - fd| <= ABS_FLOOR per entry: at
    seed 7, 39 990 of the 39 993 compared rows of gradcheck(1000, (1, 8))
    have max_rel_err == 0.0. tol_rel only bites once ABS_FLOOR is lowered too.
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
            analytic = _jacobian_full_rows(z, kind, DEFAULT_EPS)
            fd = _fd_full_rows(z, kind, DEFAULT_EPS, h)
            abs_err = np.abs(analytic - fd).reshape(samples, -1)
            # The effective relative error, built in place of its denominator.
            # A tie row reads as all-zero error, so it comes out with entry
            # (0, 0) and passes, since tol_rel > 0.
            eff_rel = np.maximum(np.abs(analytic), np.abs(fd)).reshape(samples, -1)
            np.divide(abs_err, eff_rel, out=eff_rel, where=eff_rel > 0)
            np.copyto(eff_rel, 0.0, where=(abs_err <= ABS_FLOOR) | ties[:, np.newaxis])
            max_abs = np.where(ties, 0.0, abs_err.max(axis=1))
            # Each row's reductions at once; argmax takes the first maximum,
            # so the worst entry is the lowest flat index among ties.
            worst = eff_rel.argmax(axis=1)
            max_rel = eff_rel[np.arange(samples), worst]
            reports += map(GradCheckReport._make, zip(
                repeat(kind), repeat(t), range(samples), max_abs.tolist(), max_rel.tolist(),
                zip((worst // t).tolist(), (worst % t).tolist()),
                (max_rel <= tol_rel).tolist(), ties.tolist()))
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
    _check_batch(scores, mask, grad_w)
    grad_w = np.broadcast_to(grad_w, scores.shape)
    return _weight_vjp(mask, grad_w, *_weights(scores, mask, kind, eps))


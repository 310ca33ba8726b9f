"""The gradient oracles: public Jacobians and VJP of the scoring variants,
and the central-difference harness that checks them.

The one analytic gradient is variants._weight_vjp, the batched
vector-Jacobian product that the attention backward, and so the trainer,
runs. variant_weight_vjp is its checked public form. Every dense Jacobian
(variant_jacobian, gradcheck's analytic side and, through variant_jacobian,
the saturation sweep) is built from it: row j of a row's Jacobian is the VJP
of the basis vector e_j. variant_jacobian takes one row or an (N, T) stack of
rows, so the sweep makes one call per kind. Central differences
(_fd_full_rows, gradcheck's other side) are the independent oracle here; the
entrywise closed form, with its derivation, is a test oracle in tests/.

Both batched helpers hold the samples innermost in memory. A row sum of
T >= 8 entries then runs in sequence rather than pairwise, so at T >= 8 the
low bits of a stacked Jacobian can differ from the same row's on its own.
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, _is_int, _require_positive
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
_FD_COLUMNS = 8


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
    every block. The rows carry a leading axis of length 1, so the argmin/argmax
    found in them have the stack's number of axes, as variants._sub_at needs.
    """
    n, t = z.shape
    rows = np.asfortranarray(z, dtype=np.float64)[np.newaxis]
    mask = np.ones(t, dtype=bool)
    # memory order (j, k, sample), viewed as (j, sample, k); basis[j, :, j] = 1
    basis = np.zeros((t, t, n)).transpose(0, 2, 1)
    basis[np.arange(t), :, np.arange(t)] = 1.0
    return _weight_vjp(rows, mask, basis, *_weights(rows, mask, kind, eps)).transpose(1, 0, 2)


def variant_jacobian(z, kind: VariantKind, eps: float = DEFAULT_EPS) -> JacobianBlock:
    """Jacobian of apply_variant with respect to the logit row, built from the
    trainer's VJP: row j is variant_weight_vjp of the basis vector e_j.

    z is one row (T,), giving entries of shape (T, T), or a stack (N, T) of
    rows, giving (N, T, T) from one batched call. A stacked row's block equals
    its own call's bit for bit at T < 8; at T >= 8 the row sums run in another
    order, so the low bits can differ.
    """
    values = _checked_values(z, stack=True)
    entries = _jacobian_full_rows(np.atleast_2d(values), kind, eps)
    return JacobianBlock(entries=entries[0] if values.ndim == 1 else entries)


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
    mask = np.ones(t, dtype=bool)
    for k0 in range(0, t, _FD_COLUMNS):
        k1 = min(k0 + _FD_COLUMNS, t)
        cols = np.arange(k0, k1)
        at = (cols, np.arange(k1 - k0))
        # memory order (j, k, sample), viewed as (k, sample, j) rows
        rows = np.empty((t, k1 - k0, n))
        rows[...] = zt[:, np.newaxis, :]
        stacked = rows.transpose(1, 2, 0)
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

    The process's cyclic garbage collector is paused while the rows are built
    and left as the call found it, also when the call raises. Cycles made by
    other threads meanwhile wait until the call returns.
    """
    if not _is_int(samples):
        raise ConfigError(f"samples must be an integer, got {samples!r}")
    if samples < 1:
        raise ConfigError(f"samples must be >= 1, got {samples}")
    _require_positive("tol_rel", tol_rel)
    if not (isinstance(t_range, (tuple, list)) and len(t_range) == 2
            and all(map(_is_int, t_range))):
        raise ConfigError(f"t_range must be a pair of integers, got {t_range!r}")
    t_lo, t_hi = t_range
    if not 1 <= t_lo <= t_hi:
        raise ConfigError(f"bad row-length range {t_range}")
    kinds = _ordered_kinds(kinds)
    if not _is_int(seed):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")

    rng = np.random.default_rng(seed)
    reports: list[GradCheckReport] = []
    # Each row is a tracked tuple, so 40 000 of them set off many cyclic
    # collections; none is cyclic. Pause the GC as timeit does, and leave it
    # as the call found it.
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        for t in range(t_lo, t_hi + 1):
            # one (row, column) tuple per flat entry, shared by every row of this t
            entries = [divmod(e, t) for e in range(t * t)]
            for kind in kinds:
                z = rng.uniform(-8.0, 8.0, size=(samples, t))
                ties = _tie_rows(z, kind, h)
                # (t*t, samples) views in the blocks' memory order, no copies:
                # entry (j, k) of sample i is [j*t + k, i]
                analytic = _jacobian_full_rows(z, kind, DEFAULT_EPS).transpose(1, 2, 0)
                fd = _fd_full_rows(z, kind, DEFAULT_EPS, h).transpose(1, 2, 0)
                analytic, fd = analytic.reshape(t * t, samples), fd.reshape(t * t, samples)
                abs_err = np.subtract(analytic, fd)
                np.abs(abs_err, out=abs_err)
                # The effective relative error, built in place of its denominator.
                # A zero denominator means both entries are 0, so its 0/0 is
                # zeroed by the floor. A tie row reads as all-zero error, so it
                # comes out with entry (0, 0) and passes, since tol_rel > 0.
                eff_rel = np.maximum(np.abs(analytic, out=analytic), np.abs(fd, out=fd),
                                     out=analytic)
                with np.errstate(invalid="ignore"):
                    np.divide(abs_err, eff_rel, out=eff_rel)
                np.copyto(eff_rel, 0.0, where=(abs_err <= ABS_FLOOR) | ties)
                max_abs = np.where(ties, 0.0, abs_err.max(axis=0))
                # Each row's reductions at once. argmax copies its axis to the
                # end, so it runs only on rows whose largest error is not 0 (NaN
                # included); it takes the first maximum, so the worst entry is
                # the lowest flat index among ties, and (0, 0) on all-zero rows.
                max_rel = np.maximum.reduce(eff_rel, axis=0)
                worst = np.zeros(samples, dtype=np.intp)
                rows = np.flatnonzero(max_rel)
                worst[rows] = eff_rel.T[rows].argmax(axis=1)
                # tuple.__new__ is what GradCheckReport._make runs, without its
                # Python frame or length check: the 8-way zip fixes each row's arity
                reports += map(tuple.__new__, repeat(GradCheckReport), zip(
                    repeat(kind), repeat(t), range(samples), max_abs.tolist(), max_rel.tolist(),
                    map(entries.__getitem__, worst.tolist()),
                    (max_rel <= tol_rel).tolist(), ties.tolist()))
    finally:
        if gc_was_on:
            gc.enable()
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
    return _weight_vjp(scores, mask, grad_w, *_weights(scores, mask, kind, eps))


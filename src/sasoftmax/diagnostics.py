"""Quantitative gradient-vanishing diagnostics.

Saturation sweeps evaluate each variant's Jacobian on synthetic logit rows
where one entry is pushed away from the rest (the regime where softmax
saturates) and summarize it three ways so no single scalar hides the
behavior: the Frobenius norm, the diagonal entry at the distinguished
position, and the total absolute gradient the distinguished logit receives
from all weights (the column sum, i.e. what backprop actually delivers to
that logit). A sweep builds every Jacobian of a kind from one stacked
variant_jacobian call over all its gaps.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, EmptyHistory, LengthMismatch, NonFiniteInput, _is_int
from .microlm import RunMetrics, TrainConfig, _atomic_write
from .variants import ALL_KINDS, DEFAULT_EPS, VariantKind, _ordered_kinds
from .jacobians import variant_jacobian

PROFILES = ("one_peak", "one_trough", "uniform")


@dataclass(frozen=True)
class SweepSpec:
    """Sweep over peak offsets g for a fixed row length and set of variants."""

    gaps: tuple[float, ...]
    t: int = 4
    kinds: tuple[VariantKind, ...] = ALL_KINDS
    profile: str = "one_peak"

    def __post_init__(self):
        if not (isinstance(self.gaps, (tuple, list, np.ndarray)) and len(self.gaps) > 0
                and all(map(_is_finite_number, self.gaps))):
            raise ConfigError(
                f"gaps must be a non-empty sequence of finite numbers, got {self.gaps!r}")
        if not _is_int(self.t):
            raise ConfigError(f"t must be an integer, got {self.t!r}")
        if self.t < 2:
            raise ConfigError(f"sweep rows need t >= 2, got {self.t}")
        if self.profile not in PROFILES:
            raise ConfigError(f"profile must be one of {PROFILES}, got {self.profile!r}")
        _ordered_kinds(self.kinds)


def _is_finite_number(value) -> bool:
    # a finite Python or numpy real; bool is an int subclass but not a gap
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


class SweepRecord(NamedTuple):
    g: float
    kind: VariantKind
    frob_norm: float
    diag_peak: float
    rowgrad_sum: float


def profile_row(profile: str, g: float, t: int) -> np.ndarray:
    """The synthetic logit row for one sweep point; index 0 is distinguished."""
    z = np.zeros(t)
    if profile == "one_peak":
        z[0] = g
    elif profile == "one_trough":
        z[0] = -g
    elif profile != "uniform":
        raise ConfigError(f"unknown profile {profile!r}")
    return z


def saturation_sweep(spec: SweepSpec, eps: float = DEFAULT_EPS) -> list[SweepRecord]:
    """One record per (g, kind), ordered by g ascending then variant order."""
    kinds = _ordered_kinds(spec.kinds)
    gaps = sorted(spec.gaps)
    rows = np.stack([profile_row(spec.profile, g, spec.t) for g in gaps])
    blocks = [variant_jacobian(rows, kind, eps).entries for kind in kinds]
    records = []
    for i, g in enumerate(gaps):
        for kind, block in zip(kinds, blocks):
            jac = block[i]
            records.append(SweepRecord(
                g=float(g),
                kind=kind,
                frob_norm=float(np.sqrt(np.sum(jac * jac))),
                diag_peak=float(jac[0, 0]),
                rowgrad_sum=float(np.sum(np.abs(jac[:, 0]))),
            ))
    return records


def sweep_to_csv(records: list[SweepRecord]) -> str:
    lines = [",".join(SweepRecord._fields)]
    lines += [",".join(v.value if isinstance(v, VariantKind) else "%.17g" % v for v in r)
              for r in records]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Training-run comparisons.
# ---------------------------------------------------------------------------

class TraceRow(NamedTuple):
    step: int
    variant_grad_norm: float
    baseline_grad_norm: float
    diff: float


def grad_norm_trace(variant: RunMetrics, baseline: RunMetrics) -> list[TraceRow]:
    """Per-step gradient-norm differences (variant - baseline) between two
    runs that shared seed and config and differed only in scoring kind."""
    if len(variant) == 0 or len(baseline) == 0:
        raise EmptyHistory("both histories must contain at least one step")
    if len(variant) != len(baseline):
        raise LengthMismatch(f"histories differ in length: {len(variant)} vs {len(baseline)}")
    return [
        TraceRow(step=i,
                 variant_grad_norm=variant.grad_norm[i],
                 baseline_grad_norm=baseline.grad_norm[i],
                 diff=variant.grad_norm[i] - baseline.grad_norm[i])
        for i in range(len(variant))
    ]


def mean_diff(trace: list[TraceRow], first_n: int | None = None) -> float:
    rows = trace if first_n is None else trace[:first_n]
    if not rows:
        raise EmptyHistory("trace slice is empty")
    return float(np.mean([r.diff for r in rows]))


def saturated_probe_config(corpus_path, kind: VariantKind, seed: int = 0,
                           steps: int = 50) -> TrainConfig:
    """A short run whose large init pushes attention logits into saturation,
    the regime where the baseline softmax Jacobian collapses. Comparing
    grad_norm_trace of two such runs (same seed, different kind) isolates the
    scoring function's effect on early gradient flow."""
    return TrainConfig(
        corpus_path=str(corpus_path),
        kind=kind,
        layers=1,
        d_model=16,
        seq_len=16,
        batch=4,
        steps=steps,
        lr=3e-3,
        seed=seed,
        rope=True,
        init_std=0.7,
    )


# ---------------------------------------------------------------------------
# Attention-map dumps.
# ---------------------------------------------------------------------------

def dump_attention(layer_weights: list[np.ndarray], out_dir) -> list[Path]:
    """Write one CSV per layer (row-major, masked entries 0, %.17g formatting).

    Writes are whole-file atomic and byte-deterministic for equal inputs.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, w in enumerate(layer_weights):
        w = np.asarray(w, dtype=np.float64)
        if not np.all(np.isfinite(w)):
            raise NonFiniteInput(f"layer {i} attention weights contain NaN or Inf")
        body = "".join(",".join("%.17g" % x for x in row) + "\n" for row in w)
        path = out_dir / f"attention_layer{i}.csv"
        _atomic_write(path, body)
        paths.append(path)
    return paths

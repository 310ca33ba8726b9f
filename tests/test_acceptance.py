"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to stream them).

Numeric targets are frozen from independent oracles: 50-digit formula
evaluation for the closed-form spot values, central differences for every
gradient path, and the whole-matrix reference in oracle_matrix.py for the
masked-variant semantics.
"""

import time

import numpy as np
import pytest

from sasoftmax import (
    ALL_KINDS,
    SweepSpec,
    TrainConfig,
    VariantKind,
    apply_variant,
    attention_forward,
    AttentionInput,
    grad_norm_trace,
    gradcheck,
    mean_diff,
    saturation_sweep,
    saturated_probe_config,
    train,
    variant_jacobian,
    variant_scaler,
)
from sasoftmax.cli import main

from oracle_matrix import reference_weights
from test_microlm import model_fd_worst_rel

SA_ONLY = (VariantKind.V1, VariantKind.V2, VariantKind.V3, VariantKind.V4)


def report(num, ok, detail):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_gradcheck_suite():
    t0 = time.perf_counter()
    reports = gradcheck(samples=1000, t_range=(1, 8), kinds=ALL_KINDS,
                        tol_rel=1e-6, seed=7)
    elapsed = time.perf_counter() - t0
    checked = [r for r in reports if not r.skipped_tie]
    failed = [r for r in checked if not r.passed]
    worst = max(r.max_rel_err for r in checked)
    report(1, not failed and elapsed < 10.0,
           f"{len(checked)} rows compared, {len(reports) - len(checked)} tie-skipped, "
           f"worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_closed_form_spot_checks():
    z = [10.0, 0.0, 0.0, 0.0]
    base = variant_jacobian(z, VariantKind.BASELINE).entries[0, 0]
    v1 = variant_jacobian(z, VariantKind.V1).entries[0, 0]
    j_zero = variant_jacobian([0.0, 0.0], VariantKind.V1).entries
    ok = (abs(base - 1.3617e-4) <= 1e-8
          and abs(v1 - 1.00123) <= 1e-5
          and np.abs(j_zero - np.diag([0.5, 0.5])).max() <= 1e-12)
    report(2, ok, f"baseline diag {base:.6e}, v1 diag {v1:.6f}, "
                  f"v1@0 off-diag max {np.abs(j_zero - np.diag([0.5, 0.5])).max():.1e}")


def test_criterion_03_vanishing_and_amplification_sweep():
    gaps = tuple(float(g) for g in range(2, 17, 2))
    spec = SweepSpec(gaps=gaps, t=4, kinds=(VariantKind.BASELINE, VariantKind.V1))
    recs = saturation_sweep(spec)
    base = [r.frob_norm for r in recs if r.kind is VariantKind.BASELINE]
    v1 = [r.frob_norm for r in recs if r.kind is VariantKind.V1]
    ratios = [v / b for v, b in zip(v1, base)]
    ok = (np.all(np.diff(base) < 0.0)
          and base[-1] < 1e-5
          and np.all(np.diff(ratios) > 0.0)
          and ratios[gaps.index(10.0)] > 1e3)
    report(3, ok, f"baseline frob g=16: {base[-1]:.2e}, ratio g=10: "
                  f"{ratios[gaps.index(10.0)]:.1f}")


def test_criterion_04_masked_reference_equivalence():
    names = {VariantKind.V1: "v1", VariantKind.V2: "v2",
             VariantKind.V3: "v3", VariantKind.V4: "v4"}
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        t = int(rng.integers(1, 17))
        d = int(rng.integers(1, 9))
        q, k, v = rng.normal(0.0, 1.5, size=(3, t, d))
        scores = (q @ k.T) / np.sqrt(d)
        for kind, name in names.items():
            expected = reference_weights(scores, name) @ v
            out, _ = attention_forward(AttentionInput(q, k, v, kind=kind))
            worst = max(worst, float(np.abs(out - expected).max()))
    report(4, worst <= 1e-12, f"200 instances, v1-v4, worst |diff| {worst:.2e}")


def test_criterion_05_order_preservation():
    rng = np.random.default_rng(99)
    n_rows = 10_000
    lengths = rng.integers(2, 13, size=n_rows)
    violations = 0
    for kind in SA_ONLY:
        lo = -1.0 if kind is VariantKind.V1 else -8.0
        for t in np.unique(lengths):
            batch = int((lengths == t).sum())
            rows = rng.uniform(lo, 8.0, size=(batch, int(t)))
            for z in rows:
                if np.unique(z).size < z.size:
                    continue
                w = apply_variant(z, kind)
                if not np.all(np.diff(w[np.argsort(z)]) > 0.0):
                    violations += 1
    counter = apply_variant([-10.0, -1.0], VariantKind.V1)
    inversion = counter[0] > counter[1]
    report(5, violations == 0 and inversion,
           f"{n_rows} rows per kind, {violations} violations; "
           f"v1 counterexample weights ({counter[0]:.3e}, {counter[1]:.3e}) inverted")


def test_criterion_06_v4_degradation_identity():
    rng = np.random.default_rng(7)
    worst_const = 0.0
    for _ in range(200):
        t = int(rng.integers(1, 17))
        c = float(rng.uniform(0.1, 30.0))
        row = np.full(t, c)
        diff = np.abs(apply_variant(row, VariantKind.V4)
                      - apply_variant(row, VariantKind.BASELINE)).max()
        worst_const = max(worst_const, float(diff))
    exact = True
    for _ in range(200):
        t = int(rng.integers(1, 17))
        z = rng.uniform(0.0, 9.0, t)  # x_min >= 0
        mask = np.ones(t, dtype=bool)
        scaler = variant_scaler(z, mask, VariantKind.V4)
        expected = z / (max(z.max(), 0.0) + 1e-10)
        exact = exact and bool(np.all(scaler == expected))
    report(6, worst_const <= 1e-9 and exact,
           f"constant rows worst |v4 - softmax| {worst_const:.2e}; "
           f"nonnegative-row scaler exact: {exact}")


def test_criterion_07_full_model_gradcheck():
    worst = {}
    for kind in ALL_KINDS:
        worst[kind.value] = model_fd_worst_rel(kind, seed=3)
    ok = all(v <= 1e-5 for v in worst.values())
    report(7, ok, "worst rel err per kind: "
           + ", ".join(f"{k}={v:.1e}" for k, v in worst.items()))


@pytest.mark.slow
def test_criterion_08_training_smoke(corpus_path):
    finals = {}
    details = []
    ok = True
    for kind in ALL_KINDS:
        cfg = TrainConfig(corpus_path=str(corpus_path), kind=kind, seed=1)
        t0 = time.perf_counter()
        res = train(cfg)
        elapsed = time.perf_counter() - t0
        m = res.metrics
        finite = bool(np.all(np.isfinite(m.loss)) and np.all(np.isfinite(m.grad_norm)))
        final = float(np.mean(m.loss[-50:]))
        reduced = final <= 0.7 * m.loss[0]
        finals[kind] = final
        ok = ok and finite and reduced and elapsed < 600.0
        details.append(f"{kind.value}:{m.loss[0]:.2f}->{final:.2f}@{elapsed:.0f}s")
    base = finals[VariantKind.BASELINE]
    for kind in SA_ONLY:
        ok = ok and abs(finals[kind] - base) <= 0.15 * base
    report(8, ok, "; ".join(details))


def test_criterion_09_early_gradient_comparison(corpus_path):
    histories = {}
    for kind in (VariantKind.BASELINE, VariantKind.V1):
        cfg = saturated_probe_config(corpus_path, kind, seed=0)
        histories[kind] = train(cfg).metrics
    trace = grad_norm_trace(histories[VariantKind.V1], histories[VariantKind.BASELINE])
    first50 = mean_diff(trace, first_n=50)
    report(9, first50 > 0.0,
           f"mean (v1 - baseline) grad norm over first 50 steps: {first50:+.3f}")


def test_criterion_10_cli_determinism(tmp_path):
    train_args = ["train", "--kind", "v3", "--layers", "1", "--d-model", "8",
                  "--seq-len", "8", "--batch", "2", "--steps", "3", "--seed", "2"]
    runs = []
    for name in ("a", "b"):
        out = tmp_path / f"train_{name}"
        assert main(train_args + ["--out", str(out)]) == 0
        runs.append(out)
    text = tmp_path / "text.txt"
    text.write_text("the river and the stone and the light and the wind.\n" * 2)

    mismatches = []

    def compare(sub, args, files):
        dirs = []
        for name in ("a", "b"):
            out = tmp_path / f"{sub}_{name}"
            assert main(args + ["--out", str(out)]) == 0
            dirs.append(out)
        for f in files:
            if (dirs[0] / f).read_bytes() != (dirs[1] / f).read_bytes():
                mismatches.append(f"{sub}/{f}")

    for f in ("metrics.csv", "checkpoint.bin", "config.json"):
        if (runs[0] / f).read_bytes() != (runs[1] / f).read_bytes():
            mismatches.append(f"train/{f}")
    ckpt = str(runs[0] / "checkpoint.bin")
    compare("gradcheck", ["gradcheck", "--samples", "10", "--tmax", "3", "--seed", "7"],
            ["gradcheck.json", "config.json"])
    compare("sweep", ["sweep"], ["sweep.csv", "config.json"])
    compare("eval", ["eval", "--checkpoint", ckpt, "--text", str(text)],
            ["eval.json", "config.json"])
    compare("dump", ["dump", "--checkpoint", ckpt, "--prompt", "the"],
            ["attention_layer0.csv", "config.json"])
    report(10, not mismatches,
           "all subcommand artifacts byte-identical" if not mismatches
           else f"mismatched: {', '.join(mismatches)}")

#!/usr/bin/env python3
"""Compare the bits of training, eval, the gradient oracles and the saturation
sweep across trees.

    python3 scripts/bits.py [--trees OLD,NEW]

For each tree, one fresh process imports sasoftmax from TREE/src (--trees;
default this tree) with one BLAS thread, as perfbench runs, and prints one
SHA-256 per part:

    train-<kind>  40 default-config steps (seed 0) on the bundled corpus: the
                  loss and every gradient of each step, then the final
                  parameters
    eval          the perplexity of the bundled corpus under each kind's
                  final parameters
    gradcheck     reports_to_json(gradcheck(300, (1, 8), seed=7))
    gradcheck-coarse
                  reports_to_json(gradcheck(300, (1, 8), seed=7, h=1e-3)): at
                  that step most compared rows have a non-zero error and
                  some fail, so the worst-entry search and passed=False rows
                  are covered too
    tie_rows      variant_weights and variant_weight_vjp of every kind on
                  200 masked rows of 9 entries drawn from {0.0, -0.0, +-1,
                  2.5}: exact ties, signed zeros, v4 extrema of exactly 0,
                  and masked entries outside the live range
    sweep-t<T>    sweep_to_csv of saturation_sweep over the three profiles,
                  every kind, gaps 2, 4, ..., 16, at t = 4 (the sweep command's
                  default) and at t = 12 (rows of 8 or more entries)

It covers what scripts/artifacts.py leaves out: every step's gradients, the
default config, and the kernels on rows full of ties. Prints one JSON object
with each tree's hashes and the parts that differ; exits 1 if any part
differs between trees.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
STEPS = 40
SWEEP_GAPS = tuple(float(g) for g in range(2, 17, 2))
SWEEP_LENGTHS = (4, 12)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def child() -> dict[str, str]:
    """The hashes of every part, from the sasoftmax this process imports."""
    import numpy as np

    from sasoftmax import (ALL_KINDS, SweepSpec, gradcheck, reports_to_json,
                           saturation_sweep, sweep_to_csv, variant_weight_vjp, variant_weights)
    from sasoftmax.diagnostics import PROFILES
    from sasoftmax.cli import bundled_corpus_path
    from sasoftmax.microlm import (TrainConfig, adam_step, backward, evaluate_ppl,
                                   forward_loss, init_adam, init_params, load_corpus,
                                   sample_windows)

    parts = {}
    corpus = bundled_corpus_path()
    tokens, vocab = load_corpus(corpus)
    text = corpus.read_bytes()
    ppl = []
    for kind in ALL_KINDS:
        cfg = TrainConfig(corpus_path=str(corpus), kind=kind)
        rng = np.random.default_rng(cfg.seed)
        params = init_params(cfg, vocab.size, rng)
        state = init_adam(params)
        seen = []
        for _ in range(STEPS):
            inputs, targets = sample_windows(tokens, cfg.seq_len, cfg.batch, rng)
            loss, cache = forward_loss(params, inputs, targets, cfg)
            grads = backward(cache)
            seen.append(np.float64(loss))
            seen += (grads[name] for name in sorted(grads))
            params, state = adam_step(params, grads, state, cfg)
        seen += (params[name] for name in sorted(params))
        parts[f"train-{kind.value}"] = _digest(seen)
        ppl.append(np.float64(evaluate_ppl(params, cfg, vocab, text)))
    parts["eval"] = _digest(ppl)
    parts["gradcheck"] = hashlib.sha256(
        reports_to_json(gradcheck(300, (1, 8), seed=7)).encode()).hexdigest()
    parts["gradcheck-coarse"] = hashlib.sha256(
        reports_to_json(gradcheck(300, (1, 8), seed=7, h=1e-3)).encode()).hexdigest()

    rng = np.random.default_rng(23)
    scores = rng.choice(np.array([0.0, -0.0, 1.0, -1.0, 2.5]), size=(200, 9))
    mask = rng.random((200, 9)) < 0.6
    mask[np.arange(200), rng.integers(0, 9, 200)] = True
    grad_w = rng.normal(size=(200, 9))
    out = []
    for kind in ALL_KINDS:
        out.append(variant_weights(scores, mask, kind))
        out.append(variant_weight_vjp(scores, mask, grad_w, kind))
    parts["tie_rows"] = _digest(out)

    for t in SWEEP_LENGTHS:
        csv = "".join(sweep_to_csv(saturation_sweep(SweepSpec(gaps=SWEEP_GAPS, t=t, profile=p)))
                      for p in PROFILES)
        parts[f"sweep-t{t}"] = hashlib.sha256(csv.encode()).hexdigest()
    return parts


def run_tree(tree: str) -> dict[str, str]:
    """child()'s hashes, computed in a fresh process that imports TREE/src."""
    src = Path(tree).resolve() / "src"
    env = {**os.environ, **ONE_BLAS_THREAD, "PYTHONPATH": str(src)}
    code = ("import json, sys, sasoftmax; sys.path.insert(0, sys.argv[1]); import bits; "
            "assert sasoftmax.__file__.startswith(sys.argv[2]), sasoftmax.__file__; "
            "print(json.dumps(bits.child()))")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "scripts"), str(src)],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: the run on {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--trees", default=str(ROOT),
                        help="comma-separated source trees to import sasoftmax from")
    args = parser.parse_args()
    hashes = {tree: run_tree(tree) for tree in args.trees.split(",")}
    runs = list(hashes.values())
    differ = sorted(part for part in runs[0] if any(r.get(part) != runs[0][part] for r in runs))
    print(json.dumps({"trees": hashes, "differ": differ}, indent=1))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

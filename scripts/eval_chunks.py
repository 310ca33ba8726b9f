"""Time evaluate_ppl on the bundled corpus at several eval chunk sizes, or
the train step at several micro-batch sizes, and worker counts.

    python3 scripts/eval_chunks.py [--windows 2,3,4,5,6,8,16,32] [--workers 1,2]
                                   [--calls 5] [--rounds 2]
    python3 scripts/eval_chunks.py --train [--windows 4,8,16] [--workers 1,2]
                                   [--calls 60] [--rounds 2]
    python3 scripts/eval_chunks.py [--train] --trees OLD,NEW --windows auto
                                   --workers auto --blas default [--rounds 10]

Each (round, tree, workers, windows) runs in a fresh process that imports
sasoftmax from TREE/src (--trees; default this tree), with one BLAS thread
as perfbench does, or with the BLAS at its own default thread count
(--blas default). That process replaces microlm._workers, which the train
step and eval both run on, with the worker count, in its own memory; the
package has no setting for it. "auto" for --workers or --windows leaves the
package's own value.

Eval: a v4 model at the default config (init seed 11), one warm-up call,
then --calls timed calls, with microlm._EVAL_CHUNK_POSITIONS set to
windows * seq_len.

--train: one default-config model per kind (init seeds [11, i]) stepped
round-robin as perfbench's train_mix workload does, one warm-up round, then
--calls timed rounds of one step per kind, with
microlm._TRAIN_SHARD_WINDOWS set to windows. A step is sample_windows,
forward_loss, backward, global_grad_norm and adam_step. Each micro-batch's
_forward and _backward item also counts its thread's context switches
(RUSAGE_THREAD's ru_nvcsw + ru_nivcsw, so --train needs Linux): the
interpreter-lock handoffs between the threads of a step.

Before the first run each tree's src is byte-compiled (cli_cost.compile_trees).
Rounds alternate the order of the runs. Prints one JSON object: the machine
block, and per (tree, workers, windows) the median ms and median minor page
faults (ru_minflt) per call (eval) or per step of each kind (--train) over all
its processes, with each process's own figures; --train adds the median
context switches per _forward and per _backward item of each kind. Exits 1
if the results' bits differ where they should not: the perplexity between
any two runs, and for --train every step's loss between runs of the same
tree and windows.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SEED = 11
ITEMS = ("_forward", "_backward")


def timed(fn) -> tuple[object, float, int]:
    """fn()'s result, its ms and its minor page faults."""
    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    out = fn()
    ms = round(1e3 * (time.perf_counter() - t0), 1)
    return out, ms, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0


def thread_switches() -> int:
    usage = resource.getrusage(resource.RUSAGE_THREAD)
    return usage.ru_nvcsw + usage.ru_nivcsw


def measure_eval(microlm, corpus, calls: int, windows: int | None) -> dict:
    """ms and ru_minflt of each timed evaluate_ppl call, and the ppl's bits."""
    import numpy as np

    from sasoftmax.variants import VariantKind

    _, vocab = microlm.load_corpus(corpus)
    cfg = microlm.TrainConfig(corpus_path=str(corpus), kind=VariantKind.V4, seed=SEED)
    params = microlm.init_params(cfg, vocab.size, np.random.default_rng(SEED))
    text = corpus.read_bytes()
    if windows is not None:
        microlm._EVAL_CHUNK_POSITIONS = windows * cfg.seq_len
    microlm.evaluate_ppl(params, cfg, vocab, text)  # warm-up
    ms, faults = [], []
    for _ in range(calls):
        ppl, call_ms, call_faults = timed(lambda: microlm.evaluate_ppl(params, cfg, vocab, text))
        ms.append(call_ms)
        faults.append(call_faults)
    return {"ms": ms, "faults": faults, "bits": ppl.hex()}


def measure_train(microlm, corpus, calls: int, windows: int | None) -> dict:
    """ms and ru_minflt of each timed train step by kind, the context
    switches of each of its _forward and _backward items, and the bits of
    every step's loss."""
    import numpy as np

    from sasoftmax.variants import ALL_KINDS

    tokens, vocab = microlm.load_corpus(corpus)
    if windows is not None:
        microlm._TRAIN_SHARD_WINDOWS = windows
    sink = {name: [] for name in ITEMS}  # where each item's count goes

    def counted(fn, name):
        def run(*args, **kwargs):
            before = thread_switches()
            try:
                return fn(*args, **kwargs)
            finally:
                sink[name].append(thread_switches() - before)
        return run

    for name in ITEMS:
        setattr(microlm, name, counted(getattr(microlm, name), name))
    models = []
    for i, kind in enumerate(ALL_KINDS):
        cfg = microlm.TrainConfig(corpus_path=str(corpus), kind=kind, seed=SEED)
        rng = np.random.default_rng([SEED, i])
        params = microlm.init_params(cfg, vocab.size, rng)
        models.append((cfg, params, microlm.init_adam(params), rng))

    def step(cfg, params, state, rng) -> float:
        inputs, targets = microlm.sample_windows(tokens, cfg.seq_len, cfg.batch, rng)
        loss, cache = microlm.forward_loss(params, inputs, targets, cfg)
        grads = microlm.backward(cache)
        microlm.global_grad_norm(grads)
        microlm.adam_step(params, grads, state, cfg)
        return loss

    losses = [step(*model) for model in models]  # warm-up
    ms = {kind.value: [] for kind in ALL_KINDS}
    faults = {kind.value: [] for kind in ALL_KINDS}
    switches = {name: {kind.value: [] for kind in ALL_KINDS} for name in ITEMS}
    for _ in range(calls):
        for kind, model in zip(ALL_KINDS, models):
            sink.update((name, switches[name][kind.value]) for name in ITEMS)
            loss, step_ms, step_faults = timed(lambda: step(*model))
            losses.append(loss)
            ms[kind.value].append(step_ms)
            faults[kind.value].append(step_faults)
    bits = hashlib.sha256(" ".join(x.hex() for x in losses).encode()).hexdigest()
    return {"ms": ms, "faults": faults, "bits": bits,
            **{f"switches{name}": switches[name] for name in ITEMS}}


def child(measure, tree: str, windows: int | None, workers: int | None, calls: int) -> dict:
    """measure's figures in this process, with sasoftmax from tree."""
    sys.path.insert(0, str(Path(tree).resolve() / "src"))
    from sasoftmax import microlm
    from sasoftmax.cli import bundled_corpus_path

    if workers is not None:
        microlm._workers = lambda: workers
    out = measure(microlm, bundled_corpus_path(), calls, windows)
    sys.path.insert(0, str(ROOT / "perfbench"))
    from machine import machine_block

    return {**out, "machine": machine_block()}


def median_of(runs: list[dict], key: str):
    """Median of one figure over every timed call, or per kind over every
    timed step, of the runs."""
    if isinstance(runs[0][key], list):
        return round(statistics.median(x for run in runs for x in run[key]), 1)
    return {kind: round(statistics.median(x for run in runs for x in run[key][kind]), 1)
            for kind in runs[0][key]}


def auto_or_int(value: str) -> int | None:
    return None if value == "auto" else int(value)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--train", action="store_true",
                        help="time train steps at micro-batch sizes instead of eval")
    parser.add_argument("--windows")
    parser.add_argument("--workers", default="1,2")
    parser.add_argument("--calls", type=int)
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--trees", default=str(ROOT),
                        help="comma-separated source trees to import sasoftmax from")
    parser.add_argument("--blas", choices=("1", "default"), default="1",
                        help="BLAS threads per process: 1, or the BLAS's own default")
    parser.add_argument("--child", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args()
    measure, windows, calls, unit = ((measure_train, "4,8,16", 60, "step") if args.train else
                                     (measure_eval, "2,3,4,5,6,8,16,32", 5, "call"))
    args.windows = args.windows or windows
    args.calls = args.calls or calls
    if args.child is not None:
        tree, w, k = args.child
        print(json.dumps(child(measure, tree, auto_or_int(w), auto_or_int(k), args.calls)))
        return 0

    env = {**os.environ, **ONE_BLAS_THREAD} if args.blas == "1" else {
        key: value for key, value in os.environ.items() if key not in ONE_BLAS_THREAD}
    from cli_cost import compile_trees
    compile_trees(args.trees.split(","))
    keys = [(tree, k, w) for tree in args.trees.split(",")
            for k in args.workers.split(",") for w in args.windows.split(",")]
    runs: dict[tuple[str, str, str], list[dict]] = {key: [] for key in keys}
    for r in range(args.rounds):
        for tree, k, w in keys if r % 2 == 0 else keys[::-1]:
            out = subprocess.run([sys.executable, __file__, "--child", tree, w, k,
                                  "--calls", str(args.calls)] + ["--train"] * args.train,
                                 env=env, check=True, capture_output=True, text=True).stdout
            run = json.loads(out)
            runs[tree, k, w].append(run)
            print(f"{tree} workers {k} windows {w}: ms {run['ms']}, faults {run['faults']}",
                  file=sys.stderr)

    rows = []
    for tree, k, w in keys:
        row = {"tree": Path(tree).resolve().name, "workers": auto_or_int(k) or k,
               "windows": auto_or_int(w) or w,
               f"ms_per_{unit}": median_of(runs[tree, k, w], "ms"),
               f"faults_per_{unit}": median_of(runs[tree, k, w], "faults"),
               "processes": [{"ms": run["ms"], "faults": run["faults"]}
                             for run in runs[tree, k, w]]}
        if args.train:
            for name in ITEMS:
                row[f"switches_per{name}_item"] = median_of(runs[tree, k, w], f"switches{name}")
        rows.append(row)
    # train steps sum their gradients in an order set by the micro-batch
    # size and the tree's code, so only runs of the same tree and windows
    # share their bits
    groups = {}
    for (tree, k, w), key_runs in runs.items():
        groups.setdefault((tree, w) if args.train else None, set()).update(
            run["bits"] for run in key_runs)
    equal = all(len(bits) == 1 for bits in groups.values())
    print(json.dumps({"machine": runs[keys[0]][0]["machine"],
                      "loss_bits_equal" if args.train else "ppl_bits_equal": equal,
                      "rows": rows}, indent=1))
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())

"""Time evaluate_ppl on the bundled corpus at several eval chunk sizes and
worker counts.

    python3 scripts/eval_chunks.py [--windows 2,3,4,5,6,8,16,32] [--workers 1,2]
                                   [--calls 5] [--rounds 2]

Each (round, workers, windows) triple runs in a fresh process with one BLAS
thread, as perfbench's eval_corpus workload does: a v4 model at the default
config (init seed 11), one warm-up call, then --calls timed calls. That
process sets microlm._EVAL_CHUNK_POSITIONS to windows * seq_len and
replaces microlm._eval_workers with the worker count, in its own memory;
the package has no setting for either. Rounds alternate the order of the
(workers, windows) pairs. Prints one JSON object: the machine block, and per
(workers, windows) pair the median ms and median minor page faults
(ru_minflt) per call over all its processes, with each process's own
figures. Exits 1 if the perplexity's bits differ between any two pairs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SEED = 11


def measure(windows: int, workers: int, calls: int) -> dict:
    """ms and ru_minflt of each timed evaluate_ppl call in this process."""
    import numpy as np

    from sasoftmax import microlm
    from sasoftmax.cli import bundled_corpus_path
    from sasoftmax.variants import VariantKind

    corpus = bundled_corpus_path()
    _, vocab = microlm.load_corpus(corpus)
    cfg = microlm.TrainConfig(corpus_path=str(corpus), kind=VariantKind.V4, seed=SEED)
    params = microlm.init_params(cfg, vocab.size, np.random.default_rng(SEED))
    text = corpus.read_bytes()
    microlm._EVAL_CHUNK_POSITIONS = windows * cfg.seq_len
    microlm._eval_workers = lambda: workers
    microlm.evaluate_ppl(params, cfg, vocab, text)  # warm-up
    ms, faults = [], []
    for _ in range(calls):
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        ppl = microlm.evaluate_ppl(params, cfg, vocab, text)
        ms.append(round(1e3 * (time.perf_counter() - t0), 1))
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
    sys.path.insert(0, str(ROOT / "perfbench"))
    from machine import machine_block

    return {"ms": ms, "faults": faults, "ppl": ppl.hex(), "machine": machine_block()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--windows", default="2,3,4,5,6,8,16,32")
    parser.add_argument("--workers", default="1,2")
    parser.add_argument("--calls", type=int, default=5)
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--child", type=int, nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child is not None:
        print(json.dumps(measure(*args.child, args.calls)))
        return 0

    pairs = [(k, int(w)) for k in map(int, args.workers.split(","))
             for w in args.windows.split(",")]
    runs: dict[tuple[int, int], list[dict]] = {pair: [] for pair in pairs}
    for r in range(args.rounds):
        for k, w in pairs if r % 2 == 0 else pairs[::-1]:
            out = subprocess.run([sys.executable, __file__, "--child", str(w), str(k),
                                  "--calls", str(args.calls)],
                                 env={**os.environ, **ENV}, check=True,
                                 capture_output=True, text=True).stdout
            run = json.loads(out)
            runs[k, w].append(run)
            print(f"workers {k} windows {w}: ms {run['ms']}, faults {run['faults']}",
                  file=sys.stderr)

    rows = [{"workers": k, "windows": w,
             "ms_per_call": round(statistics.median(m for run in runs[k, w] for m in run["ms"]), 1),
             "faults_per_call": statistics.median(f for run in runs[k, w] for f in run["faults"]),
             "processes": [{"ms": run["ms"], "faults": run["faults"]} for run in runs[k, w]]}
            for k, w in pairs]
    bits = {run["ppl"] for pair in pairs for run in runs[pair]}
    print(json.dumps({"machine": runs[pairs[0]][0]["machine"],
                      "ppl_bits_equal": len(bits) == 1, "rows": rows}, indent=1))
    return 0 if len(bits) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())

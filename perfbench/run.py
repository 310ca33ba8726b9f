"""sasoftmax benchmark: one seeded workload per run, checked outputs, JSON result.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload train_mix --seed 1 --seconds 20 --trace 0

Workloads: train_mix, eval_corpus, attn_long, oracle_rows (see README.md).
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run. Human-readable
lines before it give the machine, the noise readings and the extra figures
(op_ms_p90, error_rate, sample counts). The full record of each run, and
the spans of a traced run, go to .perfbench_out/ in the checkout.

Each run starts fresh worker processes (worker.py), so peak_rss_mb is the
high-water mark of one process. With --trace 0, SETUP_REPEATS processes set
up the workload and setup_s is their median; the last of them also runs the
timed loop.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("train_mix", "eval_corpus", "attn_long", "oracle_rows")
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0
# One BLAS thread: the callers are single-threaded and the arrays are small,
# and a second BLAS thread on a two-core host mostly adds scheduling noise.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def run_worker(args, run_dir: Path, tag: str, deadline: float, extra: list[str]) -> dict:
    result = run_dir / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(run_dir / tag), "--result", str(result), *extra]
    env = {**os.environ, **WORKER_ENV}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{tag} worker exceeded the time limit") from None
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"{tag} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(result.read_text(encoding="utf-8"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--inject-fault", action="store_true",
                        help="perturb one program output (self-test of the checks)")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "sasoftmax" / "__init__.py").is_file():
        print(f"error: no sasoftmax sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    deadline = time.monotonic() + TIME_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)
    run_dir = OUT_DIR / f"run-{os.getpid()}"
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = ["--inject-fault"] if args.inject_fault else []
    if args.trace:
        extra += ["--spans", str(OUT_DIR / f"{name}-spans.jsonl")]
    try:
        setups = []
        if not args.trace:
            for n in range(SETUP_REPEATS - 1):
                setups.append(run_worker(args, run_dir, f"setup{n}", deadline, ["--setup-only"]))
        res = run_worker(args, run_dir, "main", deadline, extra)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    setups.append(res)
    for key in ("setup_s", "setup_s_wall"):
        res[f"{key}_samples"] = [s[key] for s in setups]
        res[key] = statistics.median(res[f"{key}_samples"])
    res["error_rate"] = res["failed"] / res["attempted"]
    (OUT_DIR / f"{name}.json").write_text(json.dumps(res, indent=1) + "\n", encoding="utf-8")

    if args.trace:
        # a traced figure is 0 where the workload does not reach the function
        values = {m["name"]: res["per_layer"].get(m["name"], 0.0) for m in spec["per_layer"]}
    else:
        values = {m["name"]: res[m["name"]] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    print("machine: " + json.dumps(res["machine"]))
    print("noise: " + json.dumps(res["noise"]))
    p90 = res.get("op_ms_p90")
    print(f"{args.workload}: {res['op_samples']} timed ops, op_ms_p50 {res['op_ms_p50']:.3f} ms, "
          + (f"op_ms_p90 {p90:.3f} ms, " if p90 is not None else "op_ms_p90 n/a (<100 ops), ")
          + f"error_rate {res['error_rate']:.4g} ({res['failed']}/{res['attempted']})")
    print(f"wall clock: op_ms_p50 {res['op_ms_p50_wall']:.3f} ms, "
          f"tokens_per_s {res['tokens_per_s_wall']:.1f}, setup_s {res['setup_s_wall']:.3f} s; "
          f"reference kernel {res['reference_ms_p50']:.3f} ms "
          f"(nominal {1e3 * calibrate.NOMINAL_S:.3f} ms)")
    if res.get("errors"):
        print("errors: " + "; ".join(res["errors"]))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

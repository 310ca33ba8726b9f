"""Self-test of the benchmark itself (about three minutes).

    python3 perfbench/selftest.py

For every implemented workload (also those not listed in BENCHMARK.json)
it checks that a short run prints every metric named in
BENCHMARK.json with its unit and passes its output checks; that two traced
runs on different seeds give identical exact counts (``.calls`` and
``cache_mb``); and that a run with one program output perturbed
(``--inject-fault``) reports failed ops. It also checks the per-step counts
of a v4 train step (4 masked_softmax, 6 masked_extrema, 8 rope_tables), and
that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
V4_STEP_CALLS = {"variants.masked_softmax": 4, "variants.masked_extrema": 6,
                 "attention.rope_tables": 8}


def run(workload: str, seed: int, trace: int, *extra: str, cwd: Path = ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), *extra],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace} exited "
                             f"{proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


def check_metrics(result: dict, specs: list[dict], where: str) -> None:
    want = {m["name"]: m["unit"] for m in specs}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{where}: metric names/units differ: {sorted(set(got) ^ set(want))}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{where}: {name} is not a number"


def exact(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()
            if name.endswith(".calls") or name.endswith(".cache_mb")}


def main() -> int:
    for name in WORKLOADS:
        plain = run(name, 1, 0)
        check_metrics(plain, SPEC["end_to_end"], f"{name} trace 0")
        assert plain["correct"] and plain["failed"] == 0, f"{name}: checks failed at seed"
        assert all(m["value"] > 0 for m in plain["metrics"].values()), f"{name}: zero metric"

        traced = [run(name, seed, 1) for seed in (1, 2)]
        for t in traced:
            check_metrics(t, SPEC["per_layer"], f"{name} trace 1")
            assert t["correct"], f"{name}: checks failed in the traced run"
        assert exact(traced[0]) == exact(traced[1]), f"{name}: exact counts differ across runs"

        faulty = run(name, 1, 0, "--inject-fault")
        assert faulty["failed"] > 0 and not faulty["correct"], f"{name}: injected fault not caught"
        print(f"selftest {name}: ok ({plain['attempted']} ops; fault caught in "
              f"{faulty['failed']}/{faulty['attempted']})")

    record = json.loads((ROOT / ".perfbench_out" / "train_mix-seed1-trace1.json").read_text())
    v4 = record["calls_per_op_by_class"]["v4"]
    for fn, per_step in V4_STEP_CALLS.items():
        assert v4[fn] == per_step, f"v4 step: {fn} {v4[fn]} calls, expected {per_step}"
    print("selftest v4 step counts: ok " + json.dumps({fn: v4[fn] for fn in V4_STEP_CALLS}))

    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train_mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, "ran without sources"
    print(f"selftest without sources: ok (exit {proc.returncode})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

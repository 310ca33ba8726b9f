#!/usr/bin/env python3
"""Wall time and peak RSS of each CLI subcommand, each run in a fresh process.

    python3 scripts/cli_cost.py [--trees OLD,NEW] [--rounds 5]

Each run starts `python -c "...cli.main(...)"` with sasoftmax imported from
TREE/src (--trees; default this tree), in the environment as given (the BLAS
at its own thread count unless the caller sets one). The settings are small:
sweep and gradcheck at their defaults, train for 10 steps of the default
config, and eval (of the bundled corpus) and dump on a checkpoint that one
such train run writes first, through the first tree. Wall time is taken
around the child process, so it includes interpreter start-up and imports.
Peak RSS is the child's ru_maxrss as os.wait4 returns it: the
RUSAGE_CHILDREN figure of that one process.

Before the first run each tree's src is byte-compiled (compile_trees). Each
round runs every command once per tree, the trees in the given order in even
rounds and reversed in odd ones. Prints one JSON object: the machine block,
and per command and tree the median and every run's wall seconds and peak MB,
and whether every run of the command wrote the same bytes. Exits 1 if a
command fails or its output bytes differ between any two runs.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALL_MAIN = "import sys; from sasoftmax.cli import main; sys.exit(main(sys.argv[1:]))"
PROMPT = "the cat sat on the mat and then it rained on the hill"
TRAIN = ["train", "--steps", "10", "--seed", "1"]
# paths are relative to a run's own directory, so every config.json echo is
# the same and the outputs of two runs compare byte for byte
COMMANDS = {
    "sweep": ["sweep"],
    "gradcheck": ["gradcheck"],
    "train": TRAIN,
    "eval": ["eval", "--checkpoint", "../checkpoint.bin", "--text", "../corpus.txt"],
    "dump": ["dump", "--checkpoint", "../checkpoint.bin", "--prompt", PROMPT],
}


def compile_trees(trees: list[str]) -> None:
    """Byte-compile each tree's src (compileall), so every tree imports from
    __pycache__: without it, a run pays the compile in wall time and peak RSS
    (importing the gradient oracles peaked at 30.1 MB against 27.8 MB with
    bytecode)."""
    for tree in trees:
        src = Path(tree).resolve() / "src"
        if not src.is_dir() or not compileall.compile_dir(src, quiet=1):
            raise SystemExit(f"error: {tree}/src is missing or does not byte-compile")


def run_cli(tree: str, argv: list[str], cwd: Path) -> tuple[float, float]:
    """Wall seconds and peak RSS in MB of one CLI run in a fresh process."""
    env = {**os.environ, "PYTHONPATH": str(Path(tree).resolve() / "src")}
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", CALL_MAIN, *argv], cwd=cwd, env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv)} from {tree} exited {proc.returncode}")
    return round(wall, 3), round(usage.ru_maxrss / 1024, 1)


def digest(out: Path) -> str:
    """sha256 over the names and bytes of every file under out."""
    h = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--trees", default=str(ROOT),
                        help="comma-separated source trees to import sasoftmax from")
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()
    trees = args.trees.split(",")
    compile_trees(trees)

    runs = {name: {tree: [] for tree in trees} for name in COMMANDS}
    digests = {name: set() for name in COMMANDS}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copyfile(ROOT / "src" / "sasoftmax" / "data" / "tiny_corpus.txt",
                        work / "corpus.txt")
        run_cli(trees[0], [*TRAIN, "--out", str(work)], work)
        for r in range(args.rounds):
            for name, argv in COMMANDS.items():
                for i, tree in enumerate(trees if r % 2 == 0 else trees[::-1]):
                    run_dir = work / f"{r}-{name}-{i}"
                    run_dir.mkdir()
                    wall, rss = run_cli(tree, [*argv, "--out", "out"], run_dir)
                    runs[name][tree].append({"wall_s": wall, "max_rss_mb": rss})
                    digests[name].add(digest(run_dir / "out"))
                    print(f"{name} {tree}: {wall} s, {rss} MB", file=sys.stderr)

    sys.path.insert(0, str(ROOT / "perfbench"))
    from machine import machine_block

    report = {name: {
        "same_bytes": len(digests[name]) == 1,
        **{tree: {key: round(statistics.median(run[key] for run in tree_runs), 3)
                  for key in ("wall_s", "max_rss_mb")} | {"runs": tree_runs}
           for tree, tree_runs in runs[name].items()},
    } for name in COMMANDS}
    print(json.dumps({"machine": machine_block(), "commands": report}, indent=1))
    return 0 if all(len(d) == 1 for d in digests.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

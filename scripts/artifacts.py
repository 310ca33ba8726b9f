#!/usr/bin/env python3
"""Write the standard set of CLI artifacts into OUT, for byte-identity checks.

    python3 scripts/artifacts.py OUT

Runs every subcommand in-process through this tree's own src/ (not an
installed sasoftmax): three short training runs, gradcheck and a sweep of
each profile with their defaults, and eval and dump on each checkpoint. Each
command writes its --out directory under OUT and its stdout to <name>.stdout
next to it. The commands run with OUT as the working directory and read the
bundled corpus from a copy there, so every path in every config.json is
relative and two trees' outputs compare with `diff -r`:

    python3 scripts/artifacts.py /tmp/a   # in one tree
    python3 scripts/artifacts.py /tmp/b   # in the other
    diff -r /tmp/a /tmp/b

Exits 1 if OUT is not empty or any command exits non-zero.
"""

import contextlib
import io
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sasoftmax.cli import bundled_corpus_path, main  # noqa: E402

PROMPT = "the cat sat on the mat and then it rained on the hill"
TRAIN_RUNS = {
    "train-v4": ["--kind", "v4", "--steps", "30", "--seed", "1"],
    "train-v2": ["--kind", "v2", "--steps", "10", "--seed", "2", "--no-rope"],
    "train-v1": ["--kind", "v1", "--steps", "10", "--seed", "4"],
}


def commands() -> dict[str, list[str]]:
    """Output name -> argv, in run order; each checkpoint exists before its use."""
    runs = {name: ["train", *flags] for name, flags in TRAIN_RUNS.items()}
    runs["gradcheck"] = ["gradcheck"]
    runs["sweep-one_peak"] = ["sweep"]
    runs["sweep-one_trough"] = ["sweep", "--profile", "one_trough"]
    runs["sweep-uniform"] = ["sweep", "--profile", "uniform"]
    for name in TRAIN_RUNS:
        ckpt = f"{name}/checkpoint.bin"
        runs[f"eval-{name}"] = ["eval", "--checkpoint", ckpt, "--text", "corpus.txt"]
        runs[f"dump-{name}"] = ["dump", "--checkpoint", ckpt, "--prompt", PROMPT]
    return runs


def run_all(out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 1
    shutil.copyfile(bundled_corpus_path(), out / "corpus.txt")
    os.chdir(out)
    for name, argv in commands().items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = main([*argv, "--out", name])
        Path(f"{name}.stdout").write_text(stdout.getvalue())
        if rc != 0:
            print(f"error: {' '.join(argv)} exited {rc}", file=sys.stderr)
            return 1
        print(f"{name}: ok")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(run_all(Path(sys.argv[1]).resolve()))

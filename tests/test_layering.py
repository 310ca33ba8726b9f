"""The scoring kernels, the attention layer and the trainer stand on their
own: none of them imports the gradient oracles, the diagnostics or the CLI.
Only the trainer's GELU needs scipy, so only running it loads scipy."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import sasoftmax

PACKAGE = Path(sasoftmax.__file__).parent
CORE = ("variants", "attention", "microlm")
FORBIDDEN = {"jacobians", "diagnostics", "cli"}


def imported_modules(path: Path) -> set[str]:
    """The last component of every module path that path's code imports
    from, including the names a bare relative import takes from the package."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found |= {alias.name.rsplit(".", 1)[-1] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                found.add(node.module.rsplit(".", 1)[-1])
            if not node.module or node.module == "sasoftmax":
                found |= {alias.name for alias in node.names}
    return found


def test_core_modules_import_no_oracle_or_driver():
    for name in CORE:
        bad = imported_modules(PACKAGE / f"{name}.py") & FORBIDDEN
        assert not bad, f"{name} imports {sorted(bad)}"


def test_only_microlm_imports_scipy():
    importers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.add(path.name)
    assert importers == {"microlm.py"}


# The gradient oracles, the sweep and their commands in a fresh process;
# prints the scipy modules loaded after them, and after each trainer entry
# point that runs the GELU.
ORACLE_PATH = r"""
import json, sys, tempfile
import numpy as np
import sasoftmax
from sasoftmax import cli, microlm

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out = {}
sasoftmax.gradcheck(20, (1, 4))
sasoftmax.saturation_sweep(sasoftmax.SweepSpec(gaps=(0.0, 8.0)))
with tempfile.TemporaryDirectory() as tmp:
    for command in ("sweep", "gradcheck"):
        flags = ["--samples", "20", "--tmax", "4"] if command == "gradcheck" else []
        assert cli.main([command, *flags, "--out", f"{tmp}/{command}"]) == 0
out["oracles"] = scipy_modules()

corpus = cli.bundled_corpus_path()
tokens, vocab = microlm.load_corpus(corpus)
cfg = microlm.TrainConfig(corpus_path=str(corpus), layers=1, d_model=8, seq_len=8, batch=2)
params = microlm.init_params(cfg, vocab.size, np.random.default_rng(0))
inputs, targets = microlm.sample_windows(tokens, cfg.seq_len, cfg.batch, np.random.default_rng(1))
loss, _ = microlm.forward_loss(params, inputs, targets, cfg)
out["forward_loss"] = "scipy.special" in sys.modules
ppl = microlm.evaluate_ppl(params, cfg, vocab, vocab.decode(tokens[:200]))
maps = microlm.attention_maps(params, cfg, vocab, "the river")
out["finite"] = bool(np.isfinite([loss, ppl]).all() and np.isfinite(maps[0]).all())
print(json.dumps(out))
"""


def test_oracle_path_loads_no_scipy():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", ORACLE_PATH], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out == {"oracles": [], "forward_loss": True, "finite": True}, out

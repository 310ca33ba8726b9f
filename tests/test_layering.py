"""The scoring kernels, the attention layer and the trainer stand on their
own: none of them imports the gradient oracles, the diagnostics or the CLI."""

import ast
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

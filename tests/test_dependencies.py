"""The dependency rule: the package imports nothing at run time beyond the
standard library and numpy."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1] / "src" / "frobenii"
ALLOWED = {"numpy", "frobenii"}


def test_every_absolute_import_is_stdlib_numpy_or_frobenii():
    files = sorted(ROOT.rglob("*.py"))
    assert len(files) > 5
    seen, stray = set(), []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                seen.add(top)
                if top not in sys.stdlib_module_names and top not in ALLOWED:
                    stray.append(f"{path.relative_to(ROOT)}:{node.lineno} imports {name}")
    assert not stray, stray
    assert "numpy" in seen

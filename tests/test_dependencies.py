"""The dependency rules: the package imports nothing at run time beyond the
standard library and numpy, each of its modules is imported by another, and
each of its top-level functions and classes is named outside its own
definition."""

import ast
import re
import sys
from collections import Counter
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


def _imported_modules(path):
    """The frobenii modules that the file at path imports, as dotted names:
    for `from X import a, b` both X and X.a, X.b, since a name may be a
    submodule."""
    package = ["frobenii", *path.relative_to(ROOT).parent.parts]
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else []
            base = ".".join(base + (node.module.split(".") if node.module else []))
            out.add(base)
            out.update(f"{base}.{alias.name}" for alias in node.names)
    return out


def test_every_module_is_imported_by_another():
    # a module no other package module imports is dead code; cli is the
    # entry point and a package's __init__ is imported through its package
    modules = {}
    for path in sorted(ROOT.rglob("*.py")):
        parts = ["frobenii", *path.relative_to(ROOT).with_suffix("").parts]
        modules[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    orphans = []
    for name, path in modules.items():
        if path.stem in ("cli", "__init__"):
            continue
        if not any(name in _imported_modules(other)
                   for other_name, other in modules.items() if other_name != name):
            orphans.append(name)
    assert len(modules) > 5
    assert not orphans, orphans


def test_every_top_level_definition_is_named_outside_itself():
    # a function or class that nothing in src/, tests/ or perfbench/ names,
    # by a word search that skips the lines of its own definition, is dead
    # code
    repo = ROOT.parents[1]
    words = Counter()
    for folder in ("src", "tests", "perfbench"):
        for path in (repo / folder).rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unnamed = []
    for path in sorted(ROOT.rglob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in ast.parse("\n".join(lines)).body:
            if isinstance(node, defs):
                own = lines[node.lineno - 1:node.end_lineno]
                inside = sum(re.findall(r"\w+", line).count(node.name) for line in own)
                if words[node.name] == inside:
                    unnamed.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert not unnamed, unnamed

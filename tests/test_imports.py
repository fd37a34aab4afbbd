"""Every module of the package uses each name it imports, every private
module-level name it defines is mentioned somewhere else, and every name
the bench takes from the package exists.

Read with the standard library's ast only. The package's __init__ exists
to re-export, and `from __future__ import annotations` binds no name, so
both are exempt from the import check.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import wogli

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wogli"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# where a private name of the package may be used: its modules, the tests and the bench
CORPUS = [p for d in (PACKAGE, PACKAGE.parent.parent / "tests", PACKAGE.parent.parent / "perfbench")
          for p in sorted(d.glob("*.py"))]


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_package_has_modules():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, want", [
    ("import os\n", ["os"]),
    ("import os.path\nos.sep\n", []),
    ("import json as j\njson = 1\n", ["j"]),
    ("from a import b, c as d\nb()\n", ["d"]),
    ("from __future__ import annotations\n", []),
    ("from a import B\ndef f(x: B): pass\n", []),
    ("from a import B\nx = [B.y for _ in ()]\n", []),
])
def test_the_check_itself(source, want):
    assert unused_imports(source) == want


def private_names(source: str) -> list[str]:
    """Names a module defines at its top level with one leading underscore:
    functions, classes and assigned constants, in source order."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def unmentioned(source: str, corpus: str) -> list[str]:
    """Private names of source that the corpus, which holds source, names
    only once: where they are defined. The text is matched, not the syntax
    tree, so a mention in a string such as getattr(module, "_name") counts."""
    return [name for name in private_names(source)
            if len(re.findall(rf"(?<!\w){re.escape(name)}(?!\w)", corpus)) < 2]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unmentioned_private_names(path):
    corpus = "\n".join(p.read_text(encoding="utf-8") for p in CORPUS)
    assert unmentioned(path.read_text(encoding="utf-8"), corpus) == []


@pytest.mark.parametrize("source, elsewhere, want", [
    ("def _f(): pass\n", "", ["_f"]),
    ("def _f(): pass\n_f()\n", "", []),
    ("class _C: pass\n", "x = m._C()\n", []),
    ("_A = 1\n_B: int = 2\n_C, (_D, e) = f()\n", 'getattr(m, "_B")\n', ["_A", "_C", "_D"]),
    ("def _f(): pass\n", "_ff = 1\nm.x_f\n", ["_f"]),
    ("def public(): pass\n__all__ = []\ndef __getattr__(n): pass\n", "", []),
    ("def f():\n    def _inner(): pass\n", "", []),
])
def test_the_unmentioned_check_itself(source, elsewhere, want):
    assert unmentioned(source, source + elsewhere) == want


def _fresh_python(code: str) -> str:
    """Standard output of code run in a new interpreter that imports this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout


def test_the_cli_imports_only_what_generate_runs():
    # analysis and augment (and statistics, which analysis needs) load in the
    # commands that use them, not with the CLI
    code = ("import sys, wogli.cli; "
            "print([m for m in ('wogli.analysis', 'wogli.augment', 'statistics') if m in sys.modules])")
    assert _fresh_python(code).strip() == "[]"


def test_importing_the_package_imports_no_module():
    code = "import sys, wogli; print(sorted(m for m in sys.modules if m.startswith('wogli.')))"
    assert _fresh_python(code).strip() == "[]"


def test_every_public_name_resolves():
    names = [name for name in wogli.__all__ if name != "__version__"]
    assert len(names) == len(set(names))
    for name in names:
        module = importlib.import_module(f"wogli.{wogli._MODULE_OF[name]}")
        assert getattr(wogli, name) is getattr(module, name), name
    star = {}
    exec("from wogli import *", star)
    assert set(star) - {"__builtins__"} == set(wogli.__all__)
    assert {*wogli.__all__, *wogli._EXPORTS, "cli"} <= set(dir(wogli))


def test_modules_and_unknown_names():
    assert wogli.generator is importlib.import_module("wogli.generator")
    with pytest.raises(AttributeError, match="no attribute 'generate'"):
        wogli.generate
    with pytest.raises(ImportError):
        exec("from wogli import no_such_name", {})



BENCH = PACKAGE.parent.parent / "perfbench"


def wogli_references(source: str) -> list[tuple[str, str]]:
    """(where, name) for each name source imports from wogli or a wogli
    module, where being the dotted path it is imported from, and for each
    attribute it reads of a name so imported, directly or by getattr with a
    literal name; where is then that name's own dotted path."""
    tree = ast.parse(source)
    bound = {}  # local name -> the dotted path it was imported as
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "wogli":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                refs.append((node.module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner, name = node.value.id, node.attr
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "getattr"
              and len(node.args) >= 2 and isinstance(node.args[0], ast.Name)
              and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)):
            owner, name = node.args[0].id, node.args[1].value
        else:
            continue
        if owner in bound:
            refs.append((bound[owner], name))
    return refs


@pytest.mark.parametrize("name, witness", [
    ("workloads.py", ("wogli.generator", "_patterns_for")),
    ("run.py", ("wogli", "sample_augmentation")),
])
def test_what_the_bench_imports_exists(name, witness):
    """Each name the bench imports from wogli, and each attribute it reads
    of a wogli module it imports, exists, so that a deletion which would
    break the bench fails here. Attributes of imported classes are not
    followed: a dataclass field is no class attribute."""
    refs = wogli_references((BENCH / name).read_text(encoding="utf-8"))
    assert witness in refs
    missing = []
    for where, attr in refs:
        owner = wogli
        for part in where.split(".")[1:]:
            owner = getattr(owner, part, None)
        if isinstance(owner, types.ModuleType) and not hasattr(owner, attr):
            missing.append(f"{where}.{attr}")
    assert missing == []


def test_the_bench_reference_check_itself():
    source = ("from wogli import a, generator as g\nfrom wogli.x import y\n"
              "g.f()\ngetattr(g, '_c', None)\na.b\nother.z\n")
    assert sorted(wogli_references(source)) == [
        ("wogli", "a"), ("wogli", "generator"), ("wogli.a", "b"), ("wogli.generator", "_c"),
        ("wogli.generator", "f"), ("wogli.x", "y")]

"""Static checks over the package source, with the standard library only."""

import ast
import importlib
from pathlib import Path

from splits import perfbench_bindings

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "smoe"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads: not as a name, not as the
    root of an attribute chain, not in a string annotation, not in __all__."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a quoted annotation such as "Model" or "list[Tensor]"
                used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                         if isinstance(n, ast.Name)}
            except SyntaxError:
                pass
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_unused_import_scan_flags_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport numpy as np\nimport a.b\n"
        "from typing import Sequence, Iterator\nfrom x import y as z\nfrom w import Q\n"
        "__all__ = ['Q']\n"
        "def f(s: Sequence) -> 'Iterator[int]':\n    return np.zeros(1)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: a", "line 6: z"]


def test_src_has_no_unused_imports():
    found = {str(path.relative_to(SRC)): unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.rglob("*.py"))}
    assert len(found) >= 10  # the scan reached the package
    assert {path: names for path, names in found.items() if names} == {}


def test_perfbench_bindings_resolve():
    # perfbench/spans.py wraps each (module, class, attribute) of its
    # BINDINGS by `owner.__dict__[attr]`, so each must be defined right there
    bindings = perfbench_bindings()
    assert ("model", None, "attention_forward", "@attn") in bindings
    for module, cls, attr, _ in bindings:
        owner = importlib.import_module(f"smoe.{module}")
        if cls is not None:
            owner = getattr(owner, cls)
        assert attr in vars(owner), (module, cls, attr)


def orphaned_private_defs(sources: dict[str, str]) -> tuple[int, list[str]]:
    """The number of `_`-prefixed (not dunder) functions, classes and methods
    the modules define, and those no module reads outside the definition's
    own lines: not as a name, not as an attribute."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    defs = [(path, node) for path, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")]
    reads = [(path, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
             for path, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))]
    orphans = [f"{path}:{d.lineno} {d.name}" for path, d in defs if not any(
        name == d.name and not (where == path and d.lineno <= line <= d.end_lineno)
        for where, line, name in reads)]
    return len(defs), orphans


def test_orphan_scan_flags_only_unread_private_defs():
    sources = {
        "a.py": "def _used():\n    return 1\n\n"
                "def _recursive(n):\n    return _recursive(n - 1)\n\n"
                "class _Box:\n    def _method(self):\n        return self._other()\n"
                "    def _other(self):\n        return 0\n    def __init__(self):\n        pass\n",
        "b.py": "from a import _used\nx = _used()\n",
    }
    assert orphaned_private_defs(sources) == (5, ["a.py:4 _recursive", "a.py:7 _Box",
                                                  "a.py:8 _method"])


def test_src_has_no_orphaned_private_helpers():
    # a removal that leaves a private helper with no caller fails here
    n_defs, orphans = orphaned_private_defs(
        {str(path.relative_to(SRC)): path.read_text(encoding="utf-8")
         for path in sorted(SRC.rglob("*.py"))})
    assert n_defs >= 20  # the scan reached the package's private helpers
    assert orphans == []


def test_only_seqio_names_the_task_tags():
    # the tag <-> task mapping lives in one module: elsewhere a row's task is
    # read by seqio.task_of and a task's ids are built by seqio.guiding_prefix
    def names_a_tag(node) -> bool:
        if isinstance(node, ast.Name):
            return node.id == "TASK_TOKEN"
        if isinstance(node, ast.alias):
            return node.name == "TASK_TOKEN"
        return isinstance(node, ast.Attribute) and (node.attr == "TASK_TOKEN" or (
            node.attr in ("TRANSCRIBE", "TRANSLATE") and isinstance(node.value, ast.Name)
            and node.value.id == "GuidingToken"))

    naming = sorted(str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
                    if any(map(names_a_tag, ast.walk(ast.parse(path.read_text(encoding="utf-8"))))))
    assert naming == ["seqio.py"]

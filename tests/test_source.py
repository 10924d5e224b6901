"""Static checks over the package source, with the standard library only."""

import ast
import importlib
from pathlib import Path

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
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    [bindings] = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "BINDINGS" for t in node.targets)]
    assert ("model", None, "attention_forward", "@attn") in bindings
    for module, cls, attr, _ in bindings:
        owner = importlib.import_module(f"smoe.{module}")
        if cls is not None:
            owner = getattr(owner, cls)
        assert attr in vars(owner), (module, cls, attr)

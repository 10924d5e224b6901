"""Running a computation under the size rule of `smoe.halves.split_parts`
set to split nothing, then to split every product it can, for the tests
that hold each split result bitwise to the one-part one; and the bindings
perfbench's span tracer wraps, none of which may run on the helper thread."""

import ast
import math
import threading
from pathlib import Path

import smoe.halves

ROOT = Path(__file__).resolve().parent.parent


def perfbench_bindings() -> list[tuple[str, str | None, str, str]]:
    """perfbench/spans.py's BINDINGS: (module, class or None, attribute,
    span name), read from its source."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    [bindings] = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "BINDINGS" for t in node.targets)]
    return bindings


def one_part_then_split(monkeypatch, fn, limit=smoe.halves.SPLIT_MIN_MACS):
    """[(fn(), threads started)] with SPLIT_MIN_MACS above every product,
    so each runs as one part, then at `limit`, the rule's own by default,
    so each product that reaches it and has enough rows, heads, experts or
    columns runs as two."""
    starts, real = [], threading.Thread.start

    def counted(self):
        starts.append(self)
        real(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    runs = []
    for rule in (math.inf, limit):
        monkeypatch.setattr(smoe.halves, "SPLIT_MIN_MACS", rule)
        before = len(starts)
        runs.append((fn(), len(starts) - before))
    return runs

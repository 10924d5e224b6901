"""In-memory span tracer that wraps the public bindings of the smoe package.

A span records (name, start, end, parent, op): `op` is the index of the
benchmark operation (a training step batch, a request, a checkpoint round
trip, a dataset pass) that caused it, so the spans of one operation share an
identifier. Spans are kept in memory and written out once, when the run ends.
A span's self time is its duration minus the durations of its direct
children.

Wrappers go on the binding the caller resolves at call time: `Model.encode`
calls `smoe.model.attention_forward`, so that module attribute is the one
replaced. The scope of an attention or FFN call is found from the identity of
the parameter object passed in, which `register_model` maps to names such as
`enc.0.attn` or `dec.0.ffn`.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, class or None, attribute, span name). A span name starting with
# "@" is resolved per call from the scope of the first argument.
BINDINGS = [
    ("model", None, "attention_forward", "@attn"),
    ("model", None, "smoe_forward", "@expert"),
    ("model", None, "ffn_forward", "@ffn"),
    ("model", "Model", "__init__", "model.init"),
    ("model", "Model", "encode", "model.encode"),
    ("model", "Model", "decode", "model.decode"),
    ("model", "Model", "infer_single", "model.infer_single"),
    ("model", "Model", "infer_dual", "model.infer_dual"),
    ("model", None, "save_checkpoint", "ckpt.save"),
    ("model", None, "load_checkpoint", "ckpt.load"),
    ("train", None, "run_training", "train.run"),
    ("train", None, "train_step", "train.step"),
    ("train", None, "batch_loss", "train.forward"),
    ("train", None, "softmax_cross_entropy", "train.loss"),
    ("train", None, "backward", "train.backward"),
    ("train", "Adam", "step", "train.optimizer"),
    ("train", "Batch", "build", "train.batch_build"),
    ("signal", None, "read_wav", "signal.read_wav"),
    ("signal", None, "fbank", "signal.fbank"),
    ("data", None, "read_wav", "signal.read_wav"),
    ("data", None, "fbank", "signal.fbank"),
    ("data", None, "write_wav", "signal.write_wav"),
    ("data", None, "to_narrowband", "signal.to_narrowband"),
    ("data", None, "render_symbols", "data.render"),
    ("data", None, "train_bpe", "seqio.train_bpe"),
    ("data", None, "build_target_sequence", "seqio.build_target"),
    ("data", None, "generate_dataset_files", "data.generate"),
    ("data", None, "load_dataset", "data.load"),
]


def binding_name(module: str, cls: str | None, attr: str) -> str:
    return ".".join(p for p in (module, cls, attr) if p)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent_index, op]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.calls: Counter = Counter({binding_name(*b[:3]): 0 for b in BINDINGS})
        self.scopes: dict[int, str] = {}
        self.op = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- span recording ----------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        if self.stack.pop() != idx:
            raise RuntimeError("span stack corrupted")

    # -- scopes --------------------------------------------------------------

    def register_model(self, model) -> None:
        """Map each attention / FFN parameter object of `model` to its scope."""
        for i, layer in enumerate(model.enc_layers):
            self.scopes[id(layer.attn)] = f"enc.{i}.attn"
            self.scopes[id(layer.ffn)] = f"enc.{i}.ffn"
        for i, layer in enumerate(model.dec_layers):
            self.scopes[id(layer.self_attn)] = f"dec.{i}.self_attn"
            self.scopes[id(layer.cross_attn)] = f"dec.{i}.cross_attn"
            self.scopes[id(layer.ffn)] = f"dec.{i}.ffn"

    def _span_name(self, spec: str, args: tuple) -> str:
        if spec == "@expert":
            layer, gate = args[0], args[1]
            return f"{self.scopes.get(id(layer), 'ffn')}.expert{gate.selected}"
        if spec.startswith("@"):
            return self.scopes.get(id(args[0]), spec[1:])
        return spec

    def _record_counts(self, binding: str, args: tuple, result) -> None:
        counts = self.counts
        if binding == "model.smoe_forward":
            key = "moe." + self._span_name("@expert", args)
            rows = args[2].shape[0]
            counts[key + ".calls"] += 1
            counts[key + ".rows"] += rows
            counts["moe.zero_row_calls"] += rows == 0
        elif binding == "model.Model.decode":
            counts["model.decode_positions"] += len(args[2])
            counts["model.logit_rows"] += result.shape[0] if len(result.shape) > 1 else 1
        elif binding == "train.backward":
            counts["numerics.tape_nodes"] += len(args[1])

    # -- installing wrappers ---------------------------------------------------

    def install(self, smoe_modules: dict) -> None:
        """Wrap every binding in BINDINGS until `uninstall`.

        smoe_modules maps "model", "train", "signal", "data" to the modules.
        """
        for module, cls, attr, spec in BINDINGS:
            owner = smoe_modules[module]
            if cls is not None:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            static = isinstance(original, staticmethod)
            fn = original.__func__ if static else original
            wrapper = self._wrapper(fn, binding_name(module, cls, attr), spec)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, staticmethod(wrapper) if static else wrapper)

    def _wrapper(self, fn, binding: str, spec: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[binding] += 1
            idx = tracer.open(tracer._span_name(spec, args))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer._record_counts(binding, args, result)
            return result

        return wrapper

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- aggregation and output -------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """(inclusive seconds, self seconds, span count) per span name."""
        self_t = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                self_t[s[3]] -= s[2] - s[1]
        incl: dict[str, float] = defaultdict(float)
        excl: dict[str, float] = defaultdict(float)
        n: Counter = Counter()
        for s, own in zip(self.spans, self_t):
            incl[s[0]] += s[2] - s[1]
            excl[s[0]] += own
            n[s[0]] += 1
        return incl, excl, n

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def child_time(self, name: str, parent_name: str) -> float:
        """Total duration of `name` spans whose direct parent is a `parent_name` span."""
        return sum(
            s[2] - s[1]
            for s in self.spans
            if s[0] == name and s[3] >= 0 and self.spans[s[3]][0] == parent_name
        )

    def write(self, path: Path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

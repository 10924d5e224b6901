"""Names, units and definitions of every metric the benchmark reports.

BENCHMARK.json at the repository root lists the same names; the benchmark's
own test checks that the two agree.

Per-layer times are per unit of work: a training step on `train`, a request
on `decode_single`, `decode_dual` and `paper_decode`, a save+load round trip
on `checkpoint`, and one generate+load pass on `dataset`. Count metrics named
`*_per_step` use the same unit. A layer a workload never calls reads 0.
"""

from __future__ import annotations

import re
import statistics

from spans import BINDINGS, Tracer, binding_name

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("op_ms_p50", "ms", "lower", 0.24),
    ("items_per_s", "1/s", "higher", 0.24),
]

BENCH_SCOPES = [
    "enc.0.attn", "enc.0.ffn.expert0", "enc.0.ffn.expert1",
    "dec.0.self_attn", "dec.0.cross_attn", "dec.0.ffn.expert0", "dec.0.ffn.expert1",
]
STACK_SCOPES = ["enc.attn", "enc.ffn", "dec.self_attn", "dec.cross_attn", "dec.ffn"]
MOE_EXPERTS = ["enc.0.ffn.expert0", "enc.0.ffn.expert1", "dec.0.ffn.expert0", "dec.0.ffn.expert1"]
CALL_METRICS = sorted({"calls." + binding_name(*b[:3]) for b in BINDINGS})

# (name, unit, better)
PER_LAYER = (
    [
        ("train.step_ms_p50", "ms", "lower"),
        ("train.step_ms_p90", "ms", "lower"),
        ("train.forward_ms", "ms", "lower"),
        ("train.loss_ms", "ms", "lower"),
        ("train.backward_ms", "ms", "lower"),
        ("train.optimizer_ms", "ms", "lower"),
        ("train.batch_build_ms", "ms", "lower"),
        ("numerics.tape_nodes_per_step", "count", "lower"),
    ]
    + [(f"{scope}.fwd_ms", "ms", "lower") for scope in BENCH_SCOPES + STACK_SCOPES]
    + [
        (f"moe.{expert}.{kind}_per_step", "count", better)
        for expert in MOE_EXPERTS
        for kind, better in (("calls", "lower"), ("rows", "higher"))
    ]
    + [
        ("moe.zero_row_calls", "count", "lower"),
        ("model.encode_ms", "ms", "lower"),
        ("model.encode_self_ms", "ms", "lower"),
        ("model.decode_call_ms", "ms", "lower"),
        ("model.decode_self_ms", "ms", "lower"),
        ("model.decode_calls_per_token", "count", "lower"),
        ("model.decode_positions_per_token", "count", "lower"),
        ("model.logit_rows_per_token", "count", "lower"),
        ("signal.read_wav_ms", "ms", "lower"),
        ("signal.fbank_ms", "ms", "lower"),
        ("signal.write_wav_ms", "ms", "lower"),
        ("signal.to_narrowband_ms", "ms", "lower"),
        ("data.render_ms", "ms", "lower"),
        ("data.generate_ms", "ms", "lower"),
        ("data.load_ms", "ms", "lower"),
        ("seqio.train_bpe_ms", "ms", "lower"),
        ("seqio.build_target_ms", "ms", "lower"),
        ("ckpt.bytes", "B", "lower"),
        ("ckpt.save_ms", "ms", "lower"),
        ("ckpt.load_ms", "ms", "lower"),
        ("ckpt.model_init_ms", "ms", "lower"),
        ("ckpt.load_self_ms", "ms", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    + [(name, "count", "lower") for name in CALL_METRICS]
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

# p90 is reported only where a run holds at least this many samples
P90_MIN_SAMPLES = 100


def p90(values: list[float]) -> float | None:
    if len(values) < P90_MIN_SAMPLES:
        return None
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _stack_total(times: dict[str, float], stack: str, kind: str) -> float:
    pattern = re.compile(rf"{stack}\.\d+\.{kind}(\.expert\d+)?$")
    return sum(t for name, t in times.items() if pattern.match(name))


def layer_metrics(
    tracer: Tracer, units: int, tokens: int, exact: dict[str, float], overhead_pct: float
) -> dict[str, float]:
    """Every PER_LAYER metric from the spans and counts of a traced run.

    units: work units (steps, requests, round trips, passes) the traced
    operations completed; tokens: tokens they generated.
    """
    incl, excl, n = tracer.totals()
    counts = tracer.counts

    def per_unit(x: float) -> float:
        return x / units if units else 0.0

    def per_token(x: float) -> float:
        return x / tokens if tokens else 0.0

    def ms(seconds: float) -> float:
        return 1e3 * per_unit(seconds)

    steps = tracer.durations("train.step")
    m = {
        "train.step_ms_p50": 1e3 * statistics.median(steps) if steps else 0.0,
        "train.step_ms_p90": 1e3 * (p90(steps) or 0.0),
        "train.forward_ms": ms(incl["train.forward"] - incl["train.loss"]),
        "train.loss_ms": ms(incl["train.loss"]),
        "train.backward_ms": ms(incl["train.backward"]),
        "train.optimizer_ms": ms(incl["train.optimizer"]),
        "train.batch_build_ms": ms(incl["train.batch_build"]),
        "numerics.tape_nodes_per_step": per_unit(counts["numerics.tape_nodes"]),
    }
    for scope in BENCH_SCOPES:
        m[f"{scope}.fwd_ms"] = ms(excl[scope])
    for scope in STACK_SCOPES:
        stack, kind = scope.split(".")
        m[f"{scope}.fwd_ms"] = ms(_stack_total(excl, stack, kind))
    for expert in MOE_EXPERTS:
        m[f"moe.{expert}.calls_per_step"] = per_unit(counts[f"moe.{expert}.calls"])
        m[f"moe.{expert}.rows_per_step"] = per_unit(counts[f"moe.{expert}.rows"])
    m.update({
        "moe.zero_row_calls": counts["moe.zero_row_calls"],
        "model.encode_ms": ms(incl["model.encode"]),
        "model.encode_self_ms": ms(excl["model.encode"]),
        "model.decode_call_ms": 1e3 * incl["model.decode"] / n["model.decode"] if n["model.decode"] else 0.0,
        "model.decode_self_ms": ms(excl["model.decode"]),
        "model.decode_calls_per_token": per_token(n["model.decode"]),
        "model.decode_positions_per_token": per_token(counts["model.decode_positions"]),
        "model.logit_rows_per_token": per_token(counts["model.logit_rows"]),
        "signal.read_wav_ms": ms(incl["signal.read_wav"]),
        "signal.fbank_ms": ms(incl["signal.fbank"]),
        "signal.write_wav_ms": ms(incl["signal.write_wav"]),
        "signal.to_narrowband_ms": ms(incl["signal.to_narrowband"]),
        "data.render_ms": ms(incl["data.render"]),
        "data.generate_ms": ms(incl["data.generate"]),
        "data.load_ms": ms(incl["data.load"]),
        "seqio.train_bpe_ms": ms(incl["seqio.train_bpe"]),
        "seqio.build_target_ms": ms(incl["seqio.build_target"]),
        "ckpt.bytes": exact.get("ckpt.bytes", 0),
        "ckpt.save_ms": ms(incl["ckpt.save"]),
        "ckpt.load_ms": ms(incl["ckpt.load"]),
        "ckpt.model_init_ms": ms(tracer.child_time("model.init", "ckpt.load")),
        "ckpt.load_self_ms": ms(excl["ckpt.load"]),
        "trace.overhead_pct": overhead_pct,
    })
    for name in CALL_METRICS:
        m[name] = per_unit(tracer.calls[name.removeprefix("calls.")])
    return m

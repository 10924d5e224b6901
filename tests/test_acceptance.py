"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. The interference benchmark and fine-tuning experiments
train real (tiny) models, so the whole module takes several minutes.
"""

import itertools
import math
import resource
import time
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from smoe.data import SyntheticTaskSpec, make_paired_dataset, make_utterance
from smoe.metrics import bleu, wer
from smoe.model import Model, ModelConfig, count_params, expand_experts
from smoe.moe import (
    Bandwidth,
    GateVector,
    SMoELayer,
    Task,
    gate_decoder,
    gate_encoder,
    smoe_forward,
)
from smoe.nn import (
    AttentionParams,
    FFNParams,
    LayerNormParams,
    attention_forward,
    attention_shapes,
    ffn_forward,
    ffn_shapes,
    layer_norm_params,
    layer_norm_shapes,
    pre_norm_residual,
)
from smoe.numerics import (
    constant, grad_check, mul, softmax_cross_entropy, sum_all,
)
from smoe.seqio import Vocabulary, build_target_sequence
from smoe.signal import LOG_FLOOR, SAMPLE_RATE_WB, Waveform, fbank, to_narrowband
from smoe.train import (
    SGD,
    Batch,
    TrainConfig,
    evaluate_token_accuracy,
    finetune_nbwb,
    run_interference_benchmark,
    run_training,
    train_step,
)

from blocks import build_block

VOCAB = Vocabulary()
TASK_SPEC = SyntheticTaskSpec.default()
SEEDS = [0, 1, 2]

# frozen benchmark configuration: decoder capacity (d_ff_dec) is squeezed so
# one task fits but two conflict, while the encoder FFN stays comfortable
BENCH_BASE = ModelConfig(
    n_enc_layers=1, n_dec_layers=1, d_model=32, d_ff=64, d_ff_dec=12,
    n_heads=4, vocab_size=VOCAB.size, dropout=0.0,
)
BENCH_CONFIGS = {
    "base": BENCH_BASE,
    "dec_ffn_x2": replace(BENCH_BASE, d_ff_dec=24),
    "dec_smoe": replace(BENCH_BASE, dec_smoe=True),
}
BENCH_STEPS = 500
BENCH_TRAIN_INPUTS = 768
BENCH_EVAL_INPUTS = 32
BENCH_TC = TrainConfig(steps=BENCH_STEPS, batch_size=8, lr_peak=3e-3, lr_floor=1e-4)


def _usage() -> tuple[float, float, int]:
    """Wall seconds, process CPU seconds and minor page faults so far."""
    return time.monotonic(), time.process_time(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _since(start: tuple[float, float, int]) -> tuple[float, float, int]:
    return tuple(now - then for then, now in zip(start, _usage()))


_START = [_usage()]  # the process usage when the running criterion started


@pytest.fixture(autouse=True)
def _usage_clock():
    _START[0] = _usage()


def report(n: int, name: str, ok: bool, detail: str, elapsed: float, limit: float,
           cpu: float | None = None, faults: int | None = None):
    """Print the criterion's line, then gate it on `ok` and on `elapsed`.
    cpu is the process CPU seconds it took and faults its minor page faults,
    by default since the test began."""
    status = "PASS" if ok else "FAIL"
    _, cpu_since, faults_since = _since(_START[0])
    cpu = cpu_since if cpu is None else cpu
    faults = faults_since if faults is None else faults
    print(f"\nACCEPTANCE {n:02d} [{status}] {name}: {detail} "
          f"({elapsed:.1f}s / limit {limit:.0f}s, cpu {cpu:.1f}s, {faults} minor faults)")
    assert ok, f"criterion {n} failed: {detail}"
    assert elapsed < limit, f"criterion {n} exceeded its runtime budget"


def _run_benchmark():
    return run_interference_benchmark(
        TASK_SPEC,
        BENCH_CONFIGS,
        budget_steps=BENCH_STEPS,
        seeds=SEEDS,
        n_train_inputs=BENCH_TRAIN_INPUTS,
        n_eval_inputs=BENCH_EVAL_INPUTS,
        train_config=BENCH_TC,
    )


@pytest.fixture(scope="session")
def benchmark_run():
    """The benchmark result, its wall and process CPU seconds and its minor
    page faults."""
    start = _usage()
    result = _run_benchmark()
    return result, *_since(start)


@pytest.fixture(scope="session")
def trained_toy_model():
    """Small dual-task model trained far enough to decode its eval items, with
    the wall and process CPU seconds and the minor page faults it took."""
    start = _usage()
    items = make_paired_dataset(
        256, seed=41, task_spec=TASK_SPEC, vocab=VOCAB, min_len=4, max_len=4
    )
    model = Model(replace(BENCH_BASE, dec_smoe=True), seed=5)
    tc = TrainConfig(steps=250, batch_size=8, lr_peak=3e-3, lr_floor=1e-4, seed=5)
    run_training(model, items, tc)
    return model.eval(), *_since(start)


def make_random_features(rng, bandwidth=Bandwidth.WB, frames=None):
    from smoe.signal import FbankFeatures

    n = int(rng.integers(10, 40)) if frames is None else frames
    data = rng.normal(loc=-8.0, scale=3.0, size=(n, 80))
    return FbankFeatures(frames=constant(data), bandwidth=bandwidth)


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_01_gating_truth_table():
    t0 = time.monotonic()
    ok = (
        gate_encoder(Bandwidth.WB).weights == (1.0, 0.0)
        and gate_encoder(Bandwidth.NB).weights == (0.0, 1.0)
        and gate_decoder(Task.ST).weights == (1.0, 0.0)
        and gate_decoder(Task.ASR).weights == (0.0, 1.0)
    )
    report(1, "gating truth table", ok, "4/4 cases exact one-hot", time.monotonic() - t0, 1.0)


# -- criterion 2 ---------------------------------------------------------------


def test_criterion_02_zero_compute_contract():
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    layer = SMoELayer(
        experts=[build_block(FFNParams, ffn_shapes(8, 12, True), np.random.default_rng(i))[0]
                 for i in range(2)]
    )
    violations = 0
    for _ in range(1000):
        k = int(rng.integers(0, 2))
        gate = GateVector(tuple(1.0 if i == k else 0.0 for i in range(2)))
        before = list(layer.call_counts)
        smoe_forward(layer, gate, constant(rng.normal(size=(3, 8))))
        after = layer.call_counts
        if after[k] != before[k] + 1 or after[1 - k] != before[1 - k]:
            violations += 1
    ok = violations == 0 and sum(layer.call_counts) == 1000
    report(
        2, "zero-compute contract", ok,
        f"1000 forwards, {violations} inactive-expert invocations",
        time.monotonic() - t0, 10.0,
    )


# -- criterion 3 ---------------------------------------------------------------


def test_criterion_03_gradient_isolation():
    t0 = time.monotonic()
    pool = make_paired_dataset(24, seed=31, task_spec=TASK_SPEC, vocab=VOCAB,
                               min_len=3, max_len=4)
    by_task = {
        Task.ASR: [it for it in pool if it.task is Task.ASR],
        Task.ST: [it for it in pool if it.task is Task.ST],
    }
    rng = np.random.default_rng(3)
    cfg = ModelConfig(n_enc_layers=1, n_dec_layers=1, d_model=16, d_ff=16,
                      n_heads=2, vocab_size=VOCAB.size, dropout=0.0, dec_smoe=True)
    failures = []
    for trial in range(50):
        task = Task.ASR if rng.integers(0, 2) == 0 else Task.ST
        items = list(rng.choice(by_task[task], size=int(rng.integers(1, 4)), replace=False))
        model = Model(cfg, seed=int(rng.integers(0, 10_000)))
        batch = Batch.build(items)
        opt = SGD(model.named_parameters(), momentum=0.9)
        unrouted = gate_decoder(task).selected ^ 1  # the expert the gate skips
        snapshots = []
        for prefix, _ in model.smoe_layers():
            snapshots.append([(n, t, t.data.copy()) for n, t in model.named_parameters()
                              if n.startswith(f"{prefix}.expert{unrouted}.")])
        train_step(model, batch, opt, lr=0.05)
        for bank_snap in snapshots:
            for name, tensor, before in bank_snap:
                grad_zero = tensor.grad is None or not np.any(tensor.grad)
                unchanged = np.array_equal(before, tensor.data)
                if not (grad_zero and unchanged):
                    failures.append((trial, name))
    ok = not failures
    report(
        3, "gradient isolation", ok,
        f"50 trials, {len(failures)} leaks into the non-routed decoder expert",
        time.monotonic() - t0, 30.0,
    )


# -- criterion 4 ---------------------------------------------------------------


def test_criterion_04_degenerate_equivalence():
    t0 = time.monotonic()
    donor = Model(BENCH_BASE, seed=17).eval()
    routed = expand_experts(donor, encoder=True, decoder=True).eval()
    rng = np.random.default_rng(4)
    targets = {
        Task.ASR: build_target_sequence(Task.ASR, b"abcd", VOCAB),
        Task.ST: build_target_sequence(Task.ST, b"efgh", VOCAB),
    }
    mismatches = 0
    checked = 0
    for _ in range(25):
        for bw in (Bandwidth.WB, Bandwidth.NB):
            feats = make_random_features(rng, bandwidth=bw)
            for task in (Task.ASR, Task.ST):
                a = donor.forward(feats, bw, targets[task])
                b = routed.forward(feats, bw, targets[task])
                checked += 1
                if not np.array_equal(a.data, b.data):
                    mismatches += 1
    ok = mismatches == 0 and checked == 100
    report(
        4, "degenerate equivalence", ok,
        f"{checked} forwards under all gates, {mismatches} bitwise mismatches",
        time.monotonic() - t0, 30.0,
    )


# -- criterion 5 ---------------------------------------------------------------


def _block_reports():
    rng = np.random.default_rng(5)
    results = {}

    ffn, ffn_params = build_block(FFNParams, ffn_shapes(8, 12, True), rng)
    x = constant(rng.normal(size=(3, 8)))
    probe = constant(rng.normal(size=(3, 8)))
    results["ffn_glu"] = grad_check(
        lambda: sum_all(mul(ffn_forward(ffn, x), probe)), ffn_params,
        step=1e-5, tolerance=1e-4,
    )

    ffn2, ffn2_params = build_block(FFNParams, ffn_shapes(8, 12, False), rng)
    results["ffn_plain"] = grad_check(
        lambda: sum_all(mul(ffn_forward(ffn2, x), probe)), ffn2_params,
        step=1e-5, tolerance=1e-4,
    )

    attn, attn_params = build_block(AttentionParams, attention_shapes(8), rng, n_heads=2)
    results["attention"] = grad_check(
        lambda: sum_all(mul(attention_forward(attn, x, x, x, causal=True), probe)),
        attn_params, step=1e-5, tolerance=1e-4,
    )

    ln, ln_params = build_block(LayerNormParams, layer_norm_shapes(8))
    results["layer_norm"] = grad_check(
        lambda: sum_all(mul(layer_norm_params(ln, x), probe)), ln_params,
        step=1e-5, tolerance=1e-4,
    )

    results["pre_norm_residual"] = grad_check(
        lambda: sum_all(mul(pre_norm_residual(lambda h: ffn_forward(ffn, h), ln, x), probe)),
        ffn_params + ln_params, step=1e-5, tolerance=1e-4,
    )

    experts = [build_block(FFNParams, ffn_shapes(8, 12, True), np.random.default_rng(i))
               for i in range(2)]
    bank = SMoELayer(experts=[expert for expert, _ in experts])
    results["smoe_layer"] = grad_check(
        lambda: sum_all(mul(smoe_forward(bank, gate_decoder(Task.ST), x), probe)),
        [(f"expert{k}.{n}", t) for k, (_, params) in enumerate(experts) for n, t in params],
        step=1e-5, tolerance=1e-4,
    )
    return results


def test_criterion_05_autodiff_correctness():
    t0 = time.monotonic()
    blocks = _block_reports()
    block_worst = {name: rep.max_rel_err for name, rep in blocks.items()}
    blocks_ok = all(rep.passed for rep in blocks.values())

    # full toy model, both expert banks routed, one-sample batch
    cfg = ModelConfig(
        n_enc_layers=2, n_dec_layers=2, d_model=64, d_ff=128, n_heads=4,
        vocab_size=VOCAB.size, dropout=0.0, enc_smoe=True, dec_smoe=True,
    )
    model = Model(cfg, seed=55).train()
    item = make_utterance("abc", Task.ASR, TASK_SPEC, VOCAB, seed=9)

    def f():
        logits = model.decode(model.encode(item.features, Bandwidth.WB), item.target.ids, Task.ASR)
        from smoe.train import shifted_targets

        return softmax_cross_entropy(logits, shifted_targets(item.target.ids), ignore_id=0)

    full = grad_check(
        f, model.named_parameters(), step=1e-5, tolerance=1e-3,
        max_coords_per_param=4, rng=np.random.default_rng(0),
    )
    ok = blocks_ok and full.passed
    worst_block = max(block_worst.values())
    report(
        5, "autodiff vs finite differences", ok,
        f"blocks max_rel_err={worst_block:.2e} (tol 1e-4), "
        f"full model max_rel_err={full.max_rel_err:.2e} (tol 1e-3, "
        f"{sum(p.checked for p in full.params)} coords)",
        time.monotonic() - t0, 300.0,
    )


# -- criterion 6 ---------------------------------------------------------------


def test_criterion_06_active_parameter_parity():
    t0 = time.monotonic()
    checks = []
    for preset in ("toy", "paper"):
        make = ModelConfig if preset == "toy" else ModelConfig.paper_scale
        base = make()
        dec = make(dec_smoe=True)
        encdec = make(enc_smoe=True, dec_smoe=True)
        base_pc = count_params(base)
        checks.append(base_pc.trainable == base_pc.active)
        checks.append(count_params(dec).active == base_pc.trainable)
        checks.append(count_params(encdec).active == base_pc.trainable)
        checks.append(count_params(dec).trainable > base_pc.trainable)
    ok = all(checks)
    report(
        6, "active-parameter parity", ok,
        "active(DecS-MoE) == active(EncDecS-MoE) == trainable(Base), toy + paper presets",
        time.monotonic() - t0, 1.0,
    )


# -- criterion 7 ---------------------------------------------------------------


def test_criterion_07_parameter_count_cross_check():
    t0 = time.monotonic()
    tied = ModelConfig.paper_scale(glu=False, tied_embed=True)
    untied = ModelConfig.paper_scale(glu=False, tied_embed=False)
    base_tied = count_params(tied).trainable
    base_untied = count_params(untied).trainable
    delta = count_params(replace(untied, dec_smoe=True)).trainable - base_untied
    delta_tied = count_params(replace(tied, dec_smoe=True)).trainable - base_tied

    ref_base = 107_000_000
    ref_delta = 12_000_000
    dev_untied = (base_untied - ref_base) / ref_base
    dev_tied = (base_tied - ref_base) / ref_base
    dev_delta = (delta - ref_delta) / ref_delta

    # deviations are reported, not hidden: the tied composition cannot reach
    # the reference total (embedding counted once), the untied one can
    print(
        f"\n  base trainable: untied={base_untied:,} ({dev_untied:+.1%} vs 107M), "
        f"tied={base_tied:,} ({dev_tied:+.1%} vs 107M)"
    )
    print(f"  routed-decoder delta: {delta:,} ({dev_delta:+.1%} vs 12M); tied delta {delta_tied:,}")
    ok = abs(dev_untied) <= 0.10 and abs(dev_delta) <= 0.15 and delta == delta_tied
    report(
        7, "reference parameter cross-check", ok,
        f"untied base {dev_untied:+.1%} of 107M (|.|<=10%), delta {dev_delta:+.1%} of 12M (|.|<=15%)",
        time.monotonic() - t0, 1.0,
    )


# -- criterion 8 ---------------------------------------------------------------


def test_criterion_08_interference_benchmark(benchmark_run):
    result, elapsed, cpu, faults = benchmark_run
    rows = {r.name: r for r in result.rows}
    base, ffn2, dsmoe = rows["base"], rows["dec_ffn_x2"], rows["dec_smoe"]
    conds = {
        "control>=99%": result.control_ok,
        "base joint<90%": base.joint < 0.90,
        "smoe-base>=5pts": dsmoe.joint >= base.joint + 0.05,
        "smoe>=ffnx2": dsmoe.joint >= ffn2.joint,
        "active parity": dsmoe.active == base.trainable,
    }
    ok = all(conds.values())
    detail = (
        f"controls asr={result.control_asr:.3f}/st={result.control_st:.3f}, "
        f"joint base={base.joint:.3f} ffnx2={ffn2.joint:.3f} smoe={dsmoe.joint:.3f}"
    )
    failed = [k for k, v in conds.items() if not v]
    if failed:
        detail += f" | failed: {failed}"
    # elapsed is the fixture's training time: that is what the budget covers
    report(8, "task-interference benchmark", ok, detail, elapsed, 900.0, cpu, faults)


# -- criterion 9 ---------------------------------------------------------------


def test_criterion_09_nbwb_finetune():
    t0 = time.monotonic()
    donor_nb, donor_wb, ft_nb, ft_wb = [], [], [], []
    for seed in SEEDS:
        train_wb = make_paired_dataset(
            512, seed=seed * 104729 + 11, task_spec=TASK_SPEC, vocab=VOCAB,
            min_len=4, max_len=4,
        )
        eval_wb = make_paired_dataset(
            32, seed=seed * 104729 + 12, task_spec=TASK_SPEC, vocab=VOCAB,
            min_len=4, max_len=4,
        )
        eval_nb = [
            it for it in make_paired_dataset(
                32, seed=seed * 104729 + 12, task_spec=TASK_SPEC, vocab=VOCAB,
                min_len=4, max_len=4, nb_fraction=1.0,
            )
            if it.bandwidth is Bandwidth.NB
        ]
        donor = Model(replace(BENCH_BASE, dec_smoe=True), seed=seed)
        run_training(
            donor, train_wb,
            TrainConfig(steps=400, batch_size=8, lr_peak=3e-3, lr_floor=1e-4, seed=seed),
        )
        dw = evaluate_token_accuracy(donor, eval_wb, VOCAB)
        dn = evaluate_token_accuracy(donor, eval_nb, VOCAB)
        donor_wb.append((dw[Task.ASR] + dw[Task.ST]) / 2)
        donor_nb.append((dn[Task.ASR] + dn[Task.ST]) / 2)

        mixed = make_paired_dataset(
            256, seed=seed * 104729 + 13, task_spec=TASK_SPEC, vocab=VOCAB,
            min_len=4, max_len=4, nb_fraction=0.5,
        )
        ft = finetune_nbwb(
            donor, mixed,
            TrainConfig(steps=200, batch_size=8, lr_peak=1e-3, lr_floor=1e-4, seed=seed),
        )
        fw = evaluate_token_accuracy(ft, eval_wb, VOCAB)
        fn = evaluate_token_accuracy(ft, eval_nb, VOCAB)
        ft_wb.append((fw[Task.ASR] + fw[Task.ST]) / 2)
        ft_nb.append((fn[Task.ASR] + fn[Task.ST]) / 2)

    nb_gain = float(np.mean(ft_nb)) - float(np.mean(donor_nb))
    wb_delta = float(np.mean(ft_wb)) - float(np.mean(donor_wb))
    ok = nb_gain >= 0.02 and wb_delta >= -0.01
    report(
        9, "narrowband fine-tune", ok,
        f"NB {np.mean(donor_nb):.3f}->{np.mean(ft_nb):.3f} ({nb_gain:+.3f}, need >=+0.02), "
        f"WB {np.mean(donor_wb):.3f}->{np.mean(ft_wb):.3f} ({wb_delta:+.3f}, need >=-0.01)",
        time.monotonic() - t0, 900.0,
    )


# -- criterion 10 ----------------------------------------------------------------


def test_criterion_10_dual_inference_equivalence(trained_toy_model):
    t0 = time.monotonic()
    model, train_s, train_cpu, train_faults = trained_toy_model
    rng = np.random.default_rng(10)
    mismatches = 0
    for i in range(50):
        if i % 2 == 0:
            feats = make_random_features(rng)
        else:
            symbols = "".join(
                TASK_SPEC.alphabet[int(k)] for k in rng.integers(0, 16, size=4)
            )
            feats = make_utterance(symbols, Task.ASR, TASK_SPEC, VOCAB, seed=i).features
        model.reset_expert_counts()
        dual = model.infer_dual(feats, Bandwidth.WB, max_len=10)
        single_asr = model.infer_single(feats, Bandwidth.WB, Task.ASR, max_len=10)
        single_st = model.infer_single(feats, Bandwidth.WB, Task.ST, max_len=10)
        if dual.asr_ids != single_asr.ids or dual.st_ids != single_st.ids:
            mismatches += 1
    ok = mismatches == 0
    report(
        10, "dual-decode equivalence", ok,
        f"50 inputs, {mismatches} divergences from independent single-task decodes; "
        f"the model's training took {train_s:.1f}s, cpu {train_cpu:.1f}s, "
        f"{train_faults} minor faults",
        time.monotonic() - t0, 60.0,
    )


# -- criterion 11 ----------------------------------------------------------------


def _brute_distance(ref: tuple, hyp: tuple) -> int:
    @lru_cache(maxsize=None)
    def go(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        if ref[i - 1] == hyp[j - 1]:
            return go(i - 1, j - 1)
        return 1 + min(go(i - 1, j - 1), go(i, j - 1), go(i - 1, j))

    return go(len(ref), len(hyp))


def test_criterion_11_metric_oracles():
    t0 = time.monotonic()
    seqs = [()] + [s for n in range(1, 7) for s in itertools.product((0, 1), repeat=n)]
    wer_mismatches = 0
    pairs = 0
    for ref in seqs:
        if not ref:
            continue
        for hyp in seqs:
            pairs += 1
            rate, alignment = wer(ref, hyp)
            if alignment.distance != _brute_distance(ref, hyp):
                wer_mismatches += 1

    # three hand-computed fixtures
    f1 = bleu([list("abcd")], list("abcd")) == pytest.approx(100.0)
    ref = "the quick brown fox jumps".split()
    hyp = "the quick brown fox sleeps".split()
    f2 = bleu([ref], hyp) == pytest.approx(100.0 * (4 / 5 * 3 / 4 * 2 / 3 * 1 / 2) ** 0.25)
    f3 = bleu(
        [["a", "b", "c", "d", "e", "f"]], ["a", "b", "c", "d"]
    ) == pytest.approx(100.0 * math.exp(1.0 - 6.0 / 4.0))
    fixtures_ok = f1 and f2 and f3

    ident_ok = all(
        wer(s, s)[0] == 0.0 and bleu([s], s) == pytest.approx(100.0)
        for s in ([1, 2, 3, 4], list("hello"), list(range(10)))
    )
    perfect = list("abcdefgh")
    mono_ok = all(
        bleu([perfect], perfect[:i] + ["x"] + perfect[i + 1 :]) <= 100.0
        for i in range(8)
    )
    ok = wer_mismatches == 0 and fixtures_ok and ident_ok and mono_ok
    report(
        11, "metric oracles", ok,
        f"WER exhaustive on {pairs} pairs (len<=6), {wer_mismatches} mismatches; "
        f"BLEU fixtures {'ok' if fixtures_ok else 'FAIL'}",
        time.monotonic() - t0, 60.0,
    )


# -- criterion 12 ----------------------------------------------------------------


def test_criterion_12_signal_pipeline():
    t0 = time.monotonic()
    t = np.arange(SAMPLE_RATE_WB) / SAMPLE_RATE_WB  # one second

    def tones(*pairs):
        """Sum of (frequency_hz, amplitude) sines over t."""
        return Waveform(sum(a * np.sin(2.0 * np.pi * f * t) for f, a in pairs), SAMPLE_RATE_WB)

    one_sec = tones((440.0, 0.5))
    shape_ok = fbank(one_sec).frames.shape == (98, 80)

    def amplitude(w, freq):
        spec = np.abs(np.fft.rfft(w.samples)) * 2.0 / len(w.samples)
        freqs = np.fft.rfftfreq(len(w.samples), d=1.0 / w.sample_rate)
        return float(spec[np.argmin(np.abs(freqs - freq))])

    tone1k = tones((1000.0, 0.5))
    keep_ratio = amplitude(to_narrowband(tone1k), 1000.0) / 0.5
    tone6k = tones((6000.0, 0.5))
    nb6 = to_narrowband(tone6k)
    energy_ratio = float(np.sum(nb6.samples**2) / np.sum(tone6k.samples**2))

    dual = tones((800.0, 0.4), (6000.0, 0.4))
    high = slice(61, 80)  # mel bins centered above 4 kHz
    wb_high = fbank(dual).frames.data[:, high]
    nb_high = fbank(to_narrowband(dual)).frames.data[:, high]
    floor = math.log(LOG_FLOOR)
    # near floor: only stopband leakage left (mean within a few nats of the
    # floor) and the 6 kHz tone's bin collapsed by >15 nats vs the WB path
    near_floor = float(nb_high.mean()) < floor + 4.0 and float(
        wb_high.max() - nb_high.max()
    ) > 15.0

    ok = shape_ok and abs(keep_ratio - 1.0) < 0.05 and energy_ratio < 0.01 and near_floor
    report(
        12, "signal pipeline", ok,
        f"1s->98x80 {'ok' if shape_ok else 'FAIL'}; 1kHz keep={keep_ratio:.3f}; "
        f"6kHz energy={energy_ratio:.2e}; NB high-bin mean {nb_high.mean():.1f} "
        f"(floor {floor:.1f}), tone bin {wb_high.max():.1f}->{nb_high.max():.1f}",
        time.monotonic() - t0, 10.0,
    )


# -- criterion 13 ----------------------------------------------------------------


def test_criterion_13_reproducibility(benchmark_run):
    # second full benchmark run with the same seeds; logs carry no timestamps
    first, *_ = benchmark_run
    t0 = time.monotonic()
    second = _run_benchmark()
    logs_equal = second.log_lines == first.log_lines
    reports_equal = second.report() == first.report()
    ok = logs_equal and reports_equal
    report(
        13, "benchmark reproducibility", ok,
        f"{len(second.log_lines)} log lines identical={logs_equal}, "
        f"report identical={reports_equal}",
        time.monotonic() - t0, 900.0,
    )

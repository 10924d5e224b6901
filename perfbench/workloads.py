"""The benchmark's workloads, their correctness oracles, and the run loop.

Each workload drives smoe only through public functions and module
attributes (`smodel.Model`, `strain.run_training`, `ssignal.read_wav`, ...),
so the tracer in spans.py can wrap exactly the bindings it calls. A workload
runs in whole cycles: a cycle is a fixed list of operations made from the
seed, so every count per step, request or token repeats exactly from run to
run.
"""

from __future__ import annotations

import gc
import json
import math
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

import smoe.data as sdata
import smoe.model as smodel
import smoe.signal as ssignal
import smoe.train as strain
from smoe.moe import Task
from smoe.seqio import LANGUAGE_TOKEN, TASK_LANGUAGE, TASK_TOKEN, GuidingToken, Vocabulary

from metrics import layer_metrics, p90
from spans import Tracer
from speed import BLAS, INTERP, Probe

HERE = Path(__file__).resolve().parent
SMOE_MODULES = {"model": smodel, "train": strain, "signal": ssignal, "data": sdata}

SETUP_REPS = 3
VOCAB = Vocabulary()
# the acceptance suite's interference config
BENCH_DIMS = dict(
    n_enc_layers=1, n_dec_layers=1, d_model=32, d_ff=64, d_ff_dec=12, n_heads=4, dropout=0.0,
)
# decode weights are fixed, not drawn from the workload seed; seed 5 gives
# greedy outputs that vary with the input, which makes the oracle check bite
WEIGHTS_SEED = 5
# one request per output length, short to long; an odd count keeps the
# median inside one length group
DECODE_MAX_LENS = [4 + round(44 * i / 10) for i in range(11)]
# relative tolerance on the final training loss: a reordered reduction moves
# it by ~1e-12, a wrong gradient by far more than 1e-6
TRAIN_LOSS_RTOL = 1e-6


def bench_config(**overrides) -> smodel.ModelConfig:
    return smodel.ModelConfig(
        **BENCH_DIMS, vocab_size=VOCAB.size, enc_smoe=True, dec_smoe=True, **overrides
    )


def seeded_rng(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(purpose,)))


def random_symbols(rng: np.random.Generator, n: int) -> str:
    return "".join(sdata.ALPHABET[int(i)] for i in rng.integers(0, len(sdata.ALPHABET), size=n))


class Tally:
    """Operations attempted and failed, and the raw samples of one mode."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.factors: dict[str, list[float]] = defaultdict(list)
        self.cycle_factors: list[float] = []
        self.units = 0
        self.tokens = 0
        self.exact: dict[str, float] = {}
        self.errors: list[str] = []

    def run(self, fn):
        """Run one operation; an exception counts it as failed and returns None."""
        self.attempted += 1
        span = None
        if self.tracer is not None:
            self.tracer.op += 1
            span = self.tracer.open("bench.op")
        try:
            return fn()
        except Exception:
            self.fail(traceback.format_exc())
            return None
        finally:
            if span is not None:
                self.tracer.close(span)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)

    def register(self, model) -> None:
        if self.tracer is not None:
            self.tracer.register_model(model)

    def timed_cycle(self, cycle, probe: Probe) -> float:
        """Run one cycle between two probes; returns its wall seconds and
        gives every sample it recorded the cycle's speed factor."""
        before = {name: len(values) for name, values in self.samples.items()}
        f0 = probe.factor()
        t0 = time.perf_counter()
        cycle(self)
        seconds = time.perf_counter() - t0
        factor = 0.5 * (f0 + probe.factor())
        self.cycle_factors.append(factor)
        for name, values in self.samples.items():
            self.factors[name].extend([factor] * (len(values) - before.get(name, 0)))
        return seconds

    def view(self, scaled: bool) -> dict[str, list[float]]:
        """Samples by name, scaled to the reference speed when `scaled`:
        times (`*_ms`) are multiplied by the factor, rates (`*_per_s`)
        divided by it."""
        if not scaled:
            return defaultdict(list, self.samples)
        out = defaultdict(list)
        for name, values in self.samples.items():
            rate = name.endswith("_per_s")
            out[name] = [v / f if rate else v * f for v, f in zip(values, self.factors[name])]
        return out


class Workload:
    unit = "op"
    # the speed probe whose drift this workload's cost follows
    probe = INTERP

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed = seed
        self.workdir = workdir

    def release(self) -> None:
        """Drop what setup built, so a repeated setup starts from nothing."""

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_checks(self, tally: Tally) -> None:
        """Compute the oracle's references; runs once, untimed."""

    def cycle(self, tally: Tally) -> None:
        raise NotImplementedError

    def end_to_end(self, s: dict[str, list[float]]) -> tuple[dict[str, float], dict[str, tuple[float, str]]]:
        """(op_ms_p50 and items_per_s, detail metrics with units) from the
        samples by name."""
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# -- train ------------------------------------------------------------------------


def training_items(seed: int, n_pairs: int) -> list:
    """Paired dataset: 2*n_pairs inputs, one of each pair with a narrowband
    twin, each rendered for both tasks. Symbol counts are a fixed multiset over
    2..8 (mean 5), so every seed does the same work; the seed picks the
    symbols, their order and the noise."""
    rng = seeded_rng(seed, 1)
    spec = sdata.SyntheticTaskSpec.default()
    lengths = list(range(2, 9)) * (n_pairs // 7) + [5] * (n_pairs % 7)
    items = []
    for n in rng.permutation(lengths):
        for twin in (False, True):
            symbols = random_symbols(rng, int(n))
            item_seed = int(rng.integers(2**31))
            for task in (Task.ASR, Task.ST):
                items.append(sdata.make_utterance(symbols, task, spec, VOCAB, item_seed))
                if twin:
                    items.append(
                        sdata.make_utterance(symbols, task, spec, VOCAB, item_seed, narrowband=True)
                    )
    return items


def train_recipe(seed: int, tiny: bool) -> tuple[int, strain.TrainConfig]:
    # 3*n_pairs items per task in batches of 8: one epoch is 0.75*n_pairs steps
    n_pairs = 8 if tiny else 16
    tc = strain.TrainConfig(
        steps=3 * n_pairs // 4, batch_size=8, lr_peak=3e-3, lr_floor=1e-4, seed=seed,
        optimizer="adam",
    )
    return n_pairs, tc


def reference_final_loss() -> float:
    """Final loss of the train workload's operation at seed 0, full size."""
    n_pairs, tc = train_recipe(0, tiny=False)
    model = smodel.Model(bench_config(), seed=0)
    return strain.run_training(model, training_items(0, n_pairs), tc)[-1]


class TrainWorkload(Workload):
    unit = "step"

    def __init__(self, seed, workdir, tiny):
        super().__init__(seed, workdir, tiny)
        self.cfg = bench_config()
        self.n_pairs, self.tc = train_recipe(seed, tiny)
        self.items: list = []
        self.expected: list[float] = []

    def release(self):
        self.items = []

    def _train(self, tally: Tally | None = None):
        model = smodel.Model(self.cfg, seed=self.seed)
        if tally is not None:
            tally.register(model)
        t0 = time.perf_counter()
        losses = strain.run_training(model, self.items, self.tc)
        return losses, time.perf_counter() - t0

    def setup(self):
        self.items = training_items(self.seed, self.n_pairs)
        self.expected, _ = self._train()  # warm-up; also this seed's loss history

    def prepare_checks(self, tally):
        ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))["train_final_loss"]
        got = tally.run(reference_final_loss)
        if got is not None:
            tally.check(
                math.isfinite(got) and abs(got - ref) <= TRAIN_LOSS_RTOL * abs(ref),
                f"reference final loss {got!r} != {ref!r} (rtol {TRAIN_LOSS_RTOL})",
            )

    def cycle(self, tally):
        res = tally.run(lambda: self._train(tally))
        if res is None:
            return
        losses, dt = res
        ok = len(losses) == self.tc.steps and all(math.isfinite(x) for x in losses)
        ok = ok and np.allclose(losses, self.expected, rtol=TRAIN_LOSS_RTOL, atol=0.0)
        tally.check(ok, "training losses differ from the warm-up run")
        steps = self.tc.steps
        tally.samples["step_ms"].append(1e3 * dt / steps)
        tally.samples["samples_per_s"].append(steps * self.tc.batch_size / dt)
        tally.units += steps

    def end_to_end(self, s):
        rate = median(s["samples_per_s"])
        return (
            {"op_ms_p50": median(s["step_ms"]), "items_per_s": rate},
            {"train_samples_per_s": (rate, "samples/s")},
        )

    def describe(self):
        return {
            "op": f"run_training, {self.tc.steps} steps of batch {self.tc.batch_size}, Adam",
            "items": "training samples",
            "dataset_items": 6 * self.n_pairs,
            "model": self.cfg.to_text(),
        }


# -- decode -------------------------------------------------------------------------


def greedy_reference(model, enc, task: Task, max_len: int) -> tuple[list[int], bool]:
    """The benchmark's own greedy decode of an encoder output: full
    recompute over Model.decode."""
    ids = [int(TASK_TOKEN[task]), int(LANGUAGE_TOKEN[TASK_LANGUAGE[task]]), int(GuidingToken.BOS)]
    out: list[int] = []
    for _ in range(max_len):
        nxt = int(np.argmax(model.decode(enc, ids, task).data[-1]))
        out.append(nxt)
        ids.append(nxt)
        if nxt == GuidingToken.EOS:
            return out, False
    return out, True


class DecodeWorkload(Workload):
    """One closed-loop client sending `smoe infer`-shaped requests:
    read_wav -> fbank -> infer_single or infer_dual."""

    unit = "request"

    def __init__(self, seed, workdir, tiny, dual: bool):
        super().__init__(seed, workdir, tiny)
        self.dual = dual
        self.cfg = bench_config()
        rng = seeded_rng(seed, 2)
        n_wavs = 2 if tiny else 8
        max_lens = [2, 5] if tiny else DECODE_MAX_LENS
        self.wavs = [
            (random_symbols(rng, 5), bool(nb))
            for nb in rng.permutation([i % 2 == 1 for i in range(n_wavs)])
        ]
        self.requests = [
            (int(rng.integers(n_wavs)), Task.ASR if rng.integers(2) else Task.ST, max_lens[i])
            for i in rng.permutation(len(max_lens))
        ]
        self.model = None
        self.refs: list[dict] = []

    def wav_path(self, i: int) -> Path:
        return self.workdir / f"req_{i:02d}.wav"

    def release(self):
        self.model = None

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        for i, (symbols, nb) in enumerate(self.wavs):
            wave = sdata.render_symbols(symbols, seed=self.seed * 1000 + i)
            ssignal.write_wav(self.wav_path(i), ssignal.to_narrowband(wave) if nb else wave)
        self.model = smodel.Model(self.cfg, seed=WEIGHTS_SEED).eval()
        wav, task, _ = self.requests[0]
        self.request((wav, task, 1))  # warm-up

    def request(self, req):
        wav, task, max_len = req
        t0 = time.perf_counter()
        feats = ssignal.fbank(ssignal.read_wav(self.wav_path(wav)))
        if self.dual:
            r = self.model.infer_dual(feats, feats.bandwidth, max_len=max_len)
            out = {Task.ASR: (r.asr_ids, r.asr_truncated), Task.ST: (r.st_ids, r.st_truncated)}
        else:
            r = self.model.infer_single(feats, feats.bandwidth, task, max_len=max_len)
            out = {task: (r.ids, r.truncated)}
        return out, time.perf_counter() - t0

    def prepare_checks(self, tally):
        self.refs = []
        for wav, task, max_len in self.requests:
            feats = ssignal.fbank(ssignal.read_wav(self.wav_path(wav)))
            enc = self.model.encode(feats, feats.bandwidth)
            tasks = (Task.ASR, Task.ST) if self.dual else (task,)
            self.refs.append({t: greedy_reference(self.model, enc, t, max_len) for t in tasks})

    def cycle(self, tally):
        tally.register(self.model)
        tokens, seconds = 0, 0.0
        for req, ref in zip(self.requests, self.refs):
            res = tally.run(lambda: self.request(req))
            if res is None:
                continue
            out, dt = res
            tally.check(out == ref, f"request {req}: got {out}, oracle {ref}")
            n = sum(len(ids) for ids, _ in out.values())
            tally.samples["request_ms"].append(1e3 * dt)
            tally.units += 1
            tally.tokens += n
            tokens += n
            seconds += dt
        if seconds > 0:
            tally.samples["tokens_per_s"].append(tokens / seconds)

    def end_to_end(self, s):
        times = s["request_ms"]
        rate = median(s["tokens_per_s"])
        kind = "dual" if self.dual else "single"
        detail = {f"decode_{kind}_ms_p50": (median(times), "ms"), "decode_tokens_per_s": (rate, "tokens/s")}
        if p90(times) is not None:
            detail[f"decode_{kind}_ms_p90"] = (p90(times), "ms")
        return {"op_ms_p50": median(times), "items_per_s": rate}, detail

    def describe(self):
        return {
            "op": f"read_wav -> fbank -> infer_{'dual' if self.dual else 'single'}",
            "items": "generated tokens",
            "requests_per_cycle": len(self.requests),
            "max_lens": sorted(r[2] for r in self.requests),
            "wavs": [(len(s), "NB" if nb else "WB") for s, nb in self.wavs],
            "weights_seed": WEIGHTS_SEED,
            "model": self.cfg.to_text(),
        }


class PaperDecodeWorkload(DecodeWorkload):
    """infer_dual at the paper preset (121.4 M trainable / 102.5 M active)."""

    probe = BLAS

    def __init__(self, seed, workdir, tiny):
        super().__init__(seed, workdir, tiny, dual=True)
        if tiny:
            self.cfg = smodel.ModelConfig.paper_scale(
                dec_smoe=True, n_enc_layers=2, n_dec_layers=1, d_model=32, d_ff=64, n_heads=4,
                vocab_size=VOCAB.size,
            )
        else:
            self.cfg = smodel.ModelConfig.paper_scale(dec_smoe=True)
        rng = seeded_rng(seed, 3)
        # 30 symbols render to 2.98 s of audio, 296 frames
        self.wavs = [(random_symbols(rng, 5 if tiny else 30), bool(rng.integers(2)))]
        self.requests = [(0, Task.ASR, 2 if tiny else 4)]

    def end_to_end(self, s):
        e2e, _ = super().end_to_end(s)
        return e2e, {
            "paper_dual_ms_p50": (e2e["op_ms_p50"], "ms"),
            "paper_tokens_per_s": (e2e["items_per_s"], "tokens/s"),
        }


# -- checkpoint -----------------------------------------------------------------------


def same_parameters(a, b) -> bool:
    """Bitwise equality of two models' configs and parameters."""
    pa, pb = a.named_parameters(), b.named_parameters()
    if a.config != b.config or [n for n, _ in pa] != [n for n, _ in pb]:
        return False
    for (_, x), (_, y) in zip(pa, pb):
        if x.data.shape != y.data.shape or x.data.dtype != y.data.dtype:
            return False
        xb = np.ascontiguousarray(x.data).view(np.uint8)
        yb = np.ascontiguousarray(y.data).view(np.uint8)
        if not np.array_equal(xb, yb):
            return False
    return True


class CheckpointWorkload(Workload):
    """save_checkpoint then load_checkpoint of a ~101 MB model."""

    unit = "round trip"
    probe = BLAS

    def __init__(self, seed, workdir, tiny):
        super().__init__(seed, workdir, tiny)
        if tiny:
            self.cfg = bench_config()
        else:
            self.cfg = smodel.ModelConfig(
                n_enc_layers=4, n_dec_layers=2, d_model=256, d_ff=1024, n_heads=4,
                vocab_size=4000, enc_smoe=True, dec_smoe=True,
            )
        self.model = None
        self.path = workdir / "model.ckpt"
        self.step = 0

    def release(self):
        self.model = None

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.model = smodel.Model(self.cfg, seed=self.seed)
        self.round_trip()  # warm-up

    def round_trip(self):
        self.step += 1
        self.path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        smodel.save_checkpoint(self.model, self.path, step=self.step)
        t1 = time.perf_counter()
        loaded, step = smodel.load_checkpoint(self.path)
        t2 = time.perf_counter()
        ok = step == self.step and same_parameters(self.model, loaded)
        return ok, t1 - t0, t2 - t1

    def cycle(self, tally):
        res = tally.run(self.round_trip)
        if res is None:
            return
        ok, save_s, load_s = res
        tally.check(ok, f"checkpoint round trip at step {self.step} is not bitwise equal")
        size = self.path.stat().st_size
        tally.exact["ckpt.bytes"] = size
        tally.samples["save_ms"].append(1e3 * save_s)
        tally.samples["load_ms"].append(1e3 * load_s)
        tally.samples["round_trip_ms"].append(1e3 * (save_s + load_s))
        tally.samples["mb_per_s"].append(2 * size / 1e6 / (save_s + load_s))
        tally.units += 1

    def end_to_end(self, s):
        return (
            {"op_ms_p50": median(s["round_trip_ms"]), "items_per_s": median(s["mb_per_s"])},
            {
                "ckpt_save_ms_p50": (median(s["save_ms"]), "ms"),
                "ckpt_load_ms_p50": (median(s["load_ms"]), "ms"),
            },
        )

    def describe(self):
        return {
            "op": "save_checkpoint + load_checkpoint, checked bitwise",
            "items": "megabytes written plus read",
            "parameters": self.model.parameter_count() if self.model else None,
            "model": self.cfg.to_text(),
        }


# -- dataset ---------------------------------------------------------------------------


class DatasetWorkload(Workload):
    """generate_dataset_files (WAVs, BPE vocabulary, manifest) then load_dataset."""

    unit = "pass"
    N_MERGES = 8
    NB_FRACTION = 0.5
    MIN_LEN, MAX_LEN = 20, 30

    def __init__(self, seed, workdir, tiny):
        super().__init__(seed, workdir, tiny)
        self.n_items = 6 if tiny else 32
        self.out = workdir / "dataset"
        self.expected = None

    def setup(self):
        shutil.rmtree(self.out, ignore_errors=True)
        self.workdir.mkdir(parents=True, exist_ok=True)
        items, _, _, _ = self.dataset_pass()  # warm-up
        self.expected = [(it.target.ids, it.bandwidth, it.features.frames.data) for it in items]

    def dataset_pass(self):
        # every pass rewrites the same files in place, as a re-run of
        # `smoe datagen` into an existing directory would
        t0 = time.perf_counter()
        manifest = sdata.generate_dataset_files(
            self.out, self.n_items, self.NB_FRACTION, seed=self.seed, n_merges=self.N_MERGES,
            min_len=self.MIN_LEN, max_len=self.MAX_LEN,
        )
        t1 = time.perf_counter()
        vocab = Vocabulary.load(self.out / "vocab.txt")
        items = sdata.load_dataset(manifest, vocab)
        t2 = time.perf_counter()
        return items, vocab, t1 - t0, t2 - t1

    def dataset_ok(self, items, vocab) -> bool:
        """Counts, bandwidth labels, target round trips, frame counts from
        the WAV sizes, and equality with the warm-up pass."""
        n_nb = int(round(self.NB_FRACTION * self.n_items))
        records = sdata.read_manifest(self.out / "manifest.tsv")
        if len(items) != self.n_items + n_nb or len(records) != len(items):
            return False
        if sum(r.bandwidth.value == "NB" for r in records) != n_nb:
            return False
        for it, rec, (ids, bw, frames) in zip(items, records, self.expected):
            n_samples = ((self.out / rec.audio_path).stat().st_size - 44) // 2
            if rec.bandwidth.value == "NB":
                n_samples *= 2  # fbank upsamples narrowband to 16 kHz first
            if it.features.n_frames != 1 + (n_samples - 400) // 160:
                return False
            if vocab.decode(it.target.payload_ids) != it.text or it.bandwidth is not rec.bandwidth:
                return False
            if it.target.ids != ids or it.bandwidth is not bw:
                return False
            if not np.array_equal(it.features.frames.data, frames):
                return False
        return True

    def cycle(self, tally):
        res = tally.run(self.dataset_pass)
        if res is None:
            return
        items, vocab, gen_s, load_s = res
        tally.check(self.dataset_ok(items, vocab), "loaded dataset does not match what was generated")
        n = len(items)
        tally.samples["pass_ms"].append(1e3 * (gen_s + load_s))
        tally.samples["utts_per_s"].append(n / (gen_s + load_s))
        tally.samples["gen_utts_per_s"].append(n / gen_s)
        tally.samples["load_utts_per_s"].append(n / load_s)
        tally.units += 1

    def end_to_end(self, s):
        return (
            {"op_ms_p50": median(s["pass_ms"]), "items_per_s": median(s["utts_per_s"])},
            {
                "datagen_utts_per_s": (median(s["gen_utts_per_s"]), "utts/s"),
                "dataset_load_utts_per_s": (median(s["load_utts_per_s"]), "utts/s"),
            },
        )

    def describe(self):
        return {
            "op": f"generate_dataset_files ({self.n_items} items, {self.N_MERGES} BPE merges, "
            f"{self.NB_FRACTION:.0%} narrowband twins) + load_dataset",
            "items": "utterances generated and loaded",
        }


WORKLOADS = {
    "train": TrainWorkload,
    "decode_single": lambda seed, workdir, tiny: DecodeWorkload(seed, workdir, tiny, dual=False),
    "decode_dual": lambda seed, workdir, tiny: DecodeWorkload(seed, workdir, tiny, dual=True),
    "paper_decode": PaperDecodeWorkload,
    "checkpoint": CheckpointWorkload,
    "dataset": DatasetWorkload,
}


# -- run loop ------------------------------------------------------------------------------


class RunResult:
    def __init__(self, workload: Workload, import_s: float):
        self.workload = workload
        self.import_s = import_s
        self.import_factor = workload.probe.factor()
        self.setup_s: list[float] = []  # seconds per setup repetition, raw
        self.setup_factors: list[float] = []
        self.plain = Tally()
        self.traced: Tally | None = None
        self.tracer: Tracer | None = None
        self.overhead_pct = 0.0

    @property
    def attempted(self) -> int:
        return self.plain.attempted + (self.traced.attempted if self.traced else 0)

    @property
    def failed(self) -> int:
        return self.plain.failed + (self.traced.failed if self.traced else 0)

    def setup_seconds(self, scaled: bool) -> float:
        """Import time plus the median setup repetition."""
        if not scaled:
            return self.import_s + statistics.median(self.setup_s)
        reps = [t * f for t, f in zip(self.setup_s, self.setup_factors)]
        return self.import_s * self.import_factor + statistics.median(reps)

    def end_to_end(self, scaled: bool):
        return self.workload.end_to_end(self.plain.view(scaled))

    def layer_metrics(self) -> dict[str, float]:
        t = self.traced
        m = layer_metrics(self.tracer, t.units, t.tokens, t.exact, self.overhead_pct)
        factor = statistics.mean(t.cycle_factors)
        for name in m:
            if name.endswith("_ms") or "_ms_" in name:
                m[name] *= factor
        return m


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 import_s: float = 0.0, tiny: bool = False) -> RunResult:
    """Set up SETUP_REPS times, then run whole cycles for `seconds`.

    Untraced, every cycle is measured plainly. Traced, cycles alternate
    between plain and traced, so the overhead compares like with like.
    Every setup repetition and cycle is bracketed by the speed probe.
    """
    wl = WORKLOADS[name](seed, workdir, tiny)
    result = RunResult(wl, import_s)
    for _ in range(1 if tiny else SETUP_REPS):
        wl.release()
        gc.collect()
        f0 = wl.probe.factor()
        t0 = time.perf_counter()
        wl.setup()
        result.setup_s.append(time.perf_counter() - t0)
        result.setup_factors.append(0.5 * (f0 + wl.probe.factor()))
    wl.prepare_checks(result.plain)
    deadline = time.perf_counter() + seconds
    if not trace:
        while True:
            result.plain.timed_cycle(wl.cycle, wl.probe)
            if time.perf_counter() >= deadline:
                return result
    result.tracer = tracer = Tracer()
    result.traced = Tally(tracer)
    plain_s, traced_s = [], []
    while True:
        seconds = result.plain.timed_cycle(wl.cycle, wl.probe)
        plain_s.append(seconds * result.plain.cycle_factors[-1])
        tracer.install(SMOE_MODULES)
        try:
            seconds = result.traced.timed_cycle(wl.cycle, wl.probe)
        finally:
            tracer.uninstall()
        traced_s.append(seconds * result.traced.cycle_factors[-1])
        if time.perf_counter() >= deadline:
            break
    result.overhead_pct = 100.0 * (statistics.median(traced_s) / statistics.median(plain_s) - 1.0)
    return result


def print_errors(result: RunResult) -> None:
    for tally in (result.plain, result.traced):
        for err in tally.errors if tally else []:
            print(f"perfbench: failed operation: {err}", file=sys.stderr)

"""Training: task-homogeneous interleaved batches, SGD/Adam, cosine decay,
the task-interference benchmark, and the narrowband fine-tuning workflow.

Batches are homogeneous in task by construction (the decoder gate is a
per-batch decision); bandwidth may vary inside a batch because the encoder
gate is per sample. A batch runs as one forward pass, the encoder on the
packed frame rows of its samples, each encoder expert on the rows of its
bandwidth, the decoder on PAD-padded target rows. The loss is
teacher-forced cross entropy over payload and EOS positions only: the model
conditions on the guiding prefix but is never trained to predict it.
backward() stores gradients on leaves only, so after a step `.grad` is set
on the parameters the batch reached and on nothing else.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields, replace
from typing import Iterator, Sequence

import numpy as np

from .data import SyntheticTaskSpec, Utterance, make_paired_dataset
from .errors import ConfigError, NumericError
from .metrics import corpus_token_accuracy
from .model import Model, ModelConfig, count_params, expand_experts
from .moe import Bandwidth, Task
from .numerics import Tape, Tensor, arena_bounds, backward, scale, softmax_cross_entropy
from .seqio import BYTE_BASE, GuidingToken, Vocabulary


@dataclass
class Batch:
    """Task-homogeneous training unit.

    features are the samples' frame rows packed in order, with no padding;
    targets are PAD-padded id rows. The length vectors split both into
    samples. loss_targets and loss_weights lay out the loss over the [B*L]
    decoder rows: each row's next-token target (PAD where nothing is
    learned) and its weight, 1 / (B * K_i) on the K_i kept rows of sample
    i, so the loss is the mean over samples of each sample's token mean.
    """

    features: np.ndarray  # [sum(feature_lengths) x n_mels]
    feature_lengths: list[int]
    bandwidths: list[Bandwidth]
    targets: np.ndarray  # [B x L_max], PAD-padded
    target_lengths: list[int]
    task: Task
    loss_targets: np.ndarray = field(init=False)  # [B*L_max]
    loss_weights: np.ndarray = field(init=False)  # [B*L_max]

    def __post_init__(self):
        pad = int(GuidingToken.PAD)
        shifted = np.full_like(self.targets, pad)
        for i, n in enumerate(self.target_lengths):
            shifted[i, :n] = shifted_targets(self.targets[i, :n].tolist())
        kept = shifted != pad
        per_sample = kept.sum(axis=1, keepdims=True)
        self.loss_targets = shifted.reshape(-1)
        self.loss_weights = np.where(
            kept, 1.0 / (len(self) * np.maximum(per_sample, 1)), 0.0
        ).reshape(-1)

    @staticmethod
    def build(items: Sequence[Utterance]) -> "Batch":
        if not items:
            raise ConfigError("cannot build an empty batch")
        tasks = {it.task for it in items}
        if len(tasks) != 1:
            raise ConfigError(f"batch mixes tasks: {sorted(t.value for t in tasks)}")
        l_max = max(len(it.target.ids) for it in items)
        targets = np.full((len(items), l_max), int(GuidingToken.PAD), dtype=np.int64)
        for i, it in enumerate(items):
            targets[i, : len(it.target.ids)] = it.target.ids
        return Batch(
            features=np.concatenate([it.features.frames.data for it in items]),
            feature_lengths=[it.features.n_frames for it in items],
            bandwidths=[it.bandwidth for it in items],
            targets=targets,
            target_lengths=[len(it.target.ids) for it in items],
            task=items[0].task,
        )

    def __len__(self) -> int:
        return len(self.feature_lengths)


@dataclass
class TrainConfig:
    steps: int = 200
    batch_size: int = 8
    lr_peak: float = 3e-3
    lr_floor: float = 3e-4
    seed: int = 0
    optimizer: str = "adam"  # "sgd" keeps zero-grad parameters bitwise frozen
    momentum: float = 0.0
    accum_steps: int = 1

    def __post_init__(self):
        for name in ("steps", "batch_size", "accum_steps"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("lr_peak", "lr_floor", "momentum"):
            if not 0 <= getattr(self, name) < math.inf:  # NaN fails every comparison
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.lr_peak < self.lr_floor:
            raise ConfigError(f"lr_peak {self.lr_peak} < lr_floor {self.lr_floor}")
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")


def cosine_lr(step: int, total_steps: int, peak: float, floor: float) -> float:
    """floor + 0.5 * (peak - floor) * (1 + cos(pi * step / total))."""
    if peak < floor:
        raise ConfigError(f"peak {peak} < floor {floor}")
    if not 0 <= step <= total_steps:
        raise ConfigError(f"step {step} outside [0, {total_steps}]")
    return floor + 0.5 * (peak - floor) * (1.0 + math.cos(math.pi * step / total_steps))


class _ArenaOptimizer:
    """In-place updates of a parameter arena, one contiguous segment at a time.

    The params must tile one arena in order, as Model.named_parameters()
    does. Each parameter keeps its own step count, which advances only on
    steps where its grad is set; a parameter whose grad is None is left
    bitwise untouched, state included. A segment is a run of neighbouring
    parameters that have a grad and share a step count, so per-step
    corrections stay per parameter.
    """

    def __init__(self, params: list[tuple[str, Tensor]]):
        self.params = params
        self.flat, self.bounds = arena_bounds(params)
        self.t = [0] * len(params)

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.zero_grad()

    def _segments(self) -> Iterator[tuple[int, slice, np.ndarray]]:
        """Advance the step count of every parameter with a grad, then yield
        (step count, arena slice, flattened grads) per segment."""
        runs: list[list[int]] = []
        for i, (_, p) in enumerate(self.params):
            if p.grad is None:
                continue
            self.t[i] += 1
            if runs and runs[-1][1] == i and self.t[runs[-1][0]] == self.t[i]:
                runs[-1][1] = i + 1
            else:
                runs.append([i, i + 1])
        for i, j in runs:
            grad = np.concatenate([p.grad.ravel() for _, p in self.params[i:j]])
            yield self.t[i], slice(self.bounds[i], self.bounds[j]), grad


class SGD(_ArenaOptimizer):
    """Plain SGD with optional momentum."""

    def __init__(self, params: list[tuple[str, Tensor]], momentum: float = 0.0):
        super().__init__(params)
        self.momentum = momentum
        self.velocity = np.zeros_like(self.flat) if momentum > 0.0 else None

    def step(self, lr: float) -> None:
        for t, seg, grad in self._segments():
            if self.velocity is not None:
                v = self.velocity[seg]
                if t == 1:
                    v[...] = grad
                else:
                    v *= self.momentum
                    v += grad
                grad = v
            self.flat[seg] -= lr * grad


class Adam(_ArenaOptimizer):
    """Adam with per-parameter step counts over flat moment buffers, at
    Kingma & Ba's default betas and epsilon."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: list[tuple[str, Tensor]]):
        super().__init__(params)
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)

    def step(self, lr: float) -> None:
        for t, seg, grad in self._segments():
            m, v = self.m[seg], self.v[seg]
            m *= self.BETA1
            m += (1 - self.BETA1) * grad
            v *= self.BETA2
            v += (1 - self.BETA2) * (grad * grad)
            update = lr * (m / (1 - self.BETA1**t))
            update /= np.sqrt(v / (1 - self.BETA2**t)) + self.EPS
            self.flat[seg] -= update


def make_optimizer(model: Model, tc: TrainConfig):
    params = model.named_parameters()
    if tc.optimizer == "sgd":
        return SGD(params, momentum=tc.momentum)
    return Adam(params)


def make_interleaved_stream(
    items: Sequence[Utterance], batch_size: int, seed: int
) -> Iterator[Batch]:
    """One epoch of task-homogeneous batches that cycle through the tasks
    the pool holds, in Task order (transcription first).

    Within-task order is shuffled by the seed; when the next task in the
    cycle has no items left, the epoch ends (so the per-task batch counts
    differ by at most one). A one-task pool yields its shuffled items in
    consecutive batches, as the benchmark's control runs train.
    """
    if not items:
        raise ConfigError("training stream needs at least one sample")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(5,)))
    chunks = []
    for task in Task:
        pool = [it for it in items if it.task is task]
        if pool:
            shuffled = [pool[int(i)] for i in rng.permutation(len(pool))]
            chunks.append([shuffled[p : p + batch_size] for p in range(0, len(pool), batch_size)])
    for cycle in itertools.zip_longest(*chunks):
        for chunk in cycle:
            if chunk is None:
                return
            yield Batch.build(chunk)


def shifted_targets(ids: list[int]) -> list[int]:
    """Next-token targets with the guiding prefix masked out.

    Row i predicts ids[i+1]; rows 0 and 1 would predict the language tag
    and BOS, which the model conditions on rather than learns, so they are
    masked to PAD along with the final row (nothing follows EOS).
    """
    pad = int(GuidingToken.PAD)
    out = [pad] * len(ids)
    for i in range(2, len(ids) - 1):
        out[i] = ids[i + 1]
    return out


def batch_loss(model: Model, batch: Batch) -> Tensor:
    """Teacher-forced loss of the whole batch in one forward pass:
    the mean over samples of each sample's mean cross entropy."""
    enc_out = model.encode_batch(batch.features, batch.feature_lengths, batch.bandwidths)
    logits = model.decode_batch(enc_out, batch.targets, batch.task, batch.feature_lengths)
    return softmax_cross_entropy(
        logits, batch.loss_targets, int(GuidingToken.PAD), batch.loss_weights
    )


def train_step(
    model: Model, batch: Batch, optimizer, lr: float, step: int = 0, accum_steps: int = 1
) -> float:
    """One training step: forward with routing per batch labels,
    teacher-forced cross entropy, backward, parameter update. A non-finite
    loss or gradient raises NumericError before any parameter moves.

    With accum_steps > 1, gradients accumulate over accum_steps
    consecutive steps: they are zeroed when step % accum_steps == 0, each
    loss is scaled by 1 / accum_steps, and the parameters update when
    (step + 1) % accum_steps == 0. Returns the unscaled batch loss.
    """
    model.train()
    if step % accum_steps == 0:
        optimizer.zero_grad()
    tape = Tape()
    with tape:
        loss = batch_loss(model, batch)
        if accum_steps > 1:
            loss = scale(loss, 1.0 / accum_steps)
    value = float(loss.data) * accum_steps
    context = f"task={batch.task.value}, lr={lr:g}, batch_size={len(batch)}"
    if not np.isfinite(value):
        raise NumericError(f"non-finite loss {value} ({context})")
    backward(loss, tape)
    check_gradients(model, context)
    if (step + 1) % accum_steps == 0:
        optimizer.step(lr)
    return value


def check_gradients(model: Model, context: str) -> None:
    """Raise NumericError naming the first parameter, in named_parameters()
    order, whose gradient holds a non-finite value. One sum over all
    gradients is the check; the parameters are searched only when it is
    not finite."""
    params = model.named_parameters()
    if math.isfinite(sum(float(t.grad.sum()) for _, t in params if t.grad is not None)):
        return
    for name, t in params:
        if t.grad is not None and not np.isfinite(t.grad).all():
            raise NumericError(f"non-finite gradient in {name} ({context})")


def run_training(
    model: Model,
    items: Sequence[Utterance],
    tc: TrainConfig,
    log_lines: list[str] | None = None,
) -> list[float]:
    """Drive train_step for tc.steps batches, cycling epochs as needed.

    Returns the loss history; appends `step= task= lr= loss=` lines to
    log_lines when given. Gradient accumulation groups accum_steps batches
    per optimizer step.
    """
    optimizer = make_optimizer(model, tc)
    model.reseed_dropout(tc.seed)
    losses: list[float] = []
    step = 0
    epoch = 0
    while step < tc.steps:
        for batch in make_interleaved_stream(items, tc.batch_size, tc.seed + epoch):
            if step >= tc.steps:
                break
            lr = cosine_lr(step, tc.steps, tc.lr_peak, tc.lr_floor)
            loss = train_step(model, batch, optimizer, lr, step, tc.accum_steps)
            losses.append(loss)
            if log_lines is not None:
                task_letter = "A" if batch.task is Task.ASR else "S"
                log_lines.append(
                    f"step={step} task={task_letter} lr={lr:.8g} loss={loss:.8g}"
                )
            step += 1
        epoch += 1
    return losses


# -- evaluation ---------------------------------------------------------------

BENCH_SYMBOLS = 4  # symbols per benchmark input
BENCH_DECODE_LEN = 16  # greedy steps per scored utterance


def decode_payload_symbols(ids: list[int], vocab: Vocabulary) -> list[str]:
    """Generated ids -> symbol list; ids at/after EOS and non-payload ids
    are dropped (untrained models may emit anything)."""
    kept: list[int] = []
    for i in ids:
        if i == GuidingToken.EOS:
            break
        if i >= BYTE_BASE:
            kept.append(i)
    return list(vocab.decode(kept).decode("ascii", errors="replace"))


def decode_pairs(
    model: Model, items: Sequence[Utterance], vocab: Vocabulary, max_len: int
) -> dict[Task, list[tuple[list[str], list[str]]]]:
    """Greedy-decode each item on its own task in eval mode; per task, the
    (reference, hypothesis) symbol lists in item order."""
    model.eval()
    pairs: dict[Task, list[tuple[list[str], list[str]]]] = {Task.ASR: [], Task.ST: []}
    for it in items:
        result = model.infer_single(it.features, it.bandwidth, it.task, max_len=max_len)
        hyp = decode_payload_symbols(result.ids, vocab)
        pairs[it.task].append((list(it.text.decode("utf-8")), hyp))
    return pairs


def evaluate_token_accuracy(
    model: Model,
    items: Sequence[Utterance],
    vocab: Vocabulary,
    max_len: int = BENCH_DECODE_LEN,
) -> dict[Task, float]:
    """Pooled per-task greedy-decode accuracy (1 - corpus token error rate)."""
    return {
        task: corpus_token_accuracy(task_pairs)
        for task, task_pairs in decode_pairs(model, items, vocab, max_len).items()
        if task_pairs
    }


# -- interference benchmark -----------------------------------------------------


@dataclass
class BenchmarkRow:
    name: str
    trainable: int
    active: int
    acc_asr: float
    acc_st: float

    @property
    def joint(self) -> float:
        return 0.5 * (self.acc_asr + self.acc_st)


@dataclass
class BenchmarkResult:
    rows: list[BenchmarkRow]  # seed-averaged, in config order
    control_asr: float
    control_st: float
    log_lines: list[str] = field(default_factory=list)

    @property
    def control_ok(self) -> bool:
        return min(self.control_asr, self.control_st) >= 0.99

    def report(self) -> str:
        lines = ["model\ttrainable\tactive\tacc_asr\tacc_st"]
        for r in self.rows:
            lines.append(
                f"{r.name}\t{r.trainable}\t{r.active}\t{r.acc_asr:.4f}\t{r.acc_st:.4f}"
            )
        lines.append(
            f"# controls: asr={self.control_asr:.4f} st={self.control_st:.4f} "
            f"ok={str(self.control_ok).lower()}"
        )
        return "\n".join(lines) + "\n"


def run_interference_benchmark(
    task_spec: SyntheticTaskSpec,
    configs: dict[str, ModelConfig],
    budget_steps: int,
    seeds: Sequence[int],
    n_train_inputs: int = 768,
    n_eval_inputs: int = 32,
    train_config: TrainConfig | None = None,
) -> BenchmarkResult:
    """Train every config on the identical interleaved stream and compare
    per-task greedy accuracy; single-task controls establish that the
    baseline capacity suffices for either task alone. Every input is
    BENCH_SYMBOLS symbols long and is scored by a BENCH_DECODE_LEN-step
    greedy decode.

    Each seed walks one run list of (label, config, task): the ASR and ST
    controls on the first config, then every config in order on both tasks
    (task None). Every run trains Model(config, seed) on the seed's training
    items of its task and scores it on the eval items of its task.

    Raises ConfigError, before any dataset is built, on no seeds, a count
    of inputs below 1, configs that disagree anywhere except the decoder
    feedforward arrangement, or a max_tgt_tokens too small for the decode.
    """
    if not configs:
        raise ConfigError("benchmark needs at least one config")
    if not seeds:
        raise ConfigError("benchmark needs at least one seed")
    for name, count in (("n_train_inputs", n_train_inputs), ("n_eval_inputs", n_eval_inputs)):
        if count < 1:
            raise ConfigError(f"{name} must be >= 1, got {count}")
    _check_shared_dims(configs)
    control_cfg = next(iter(configs.values()))
    if control_cfg.max_decode_len < BENCH_DECODE_LEN:
        raise ConfigError(
            f"benchmark scores a {BENCH_DECODE_LEN}-step decode, which needs max_tgt_tokens "
            f">= {BENCH_DECODE_LEN + 2}, got {control_cfg.max_tgt_tokens}"
        )
    base_tc = train_config or TrainConfig(steps=budget_steps)
    base_tc = replace(base_tc, steps=budget_steps)
    vocab = Vocabulary()
    log_lines: list[str] = []

    runs = [(f"control task={task.value}", control_cfg, task) for task in Task]
    runs += [(f"model {name}", cfg, None) for name, cfg in configs.items()]
    accs: dict[tuple[str, Task], list[float]] = {}  # per seed, in seed order

    for seed in seeds:
        train_items = make_paired_dataset(
            n_train_inputs, seed=seed * 7919 + 1, task_spec=task_spec, vocab=vocab,
            min_len=BENCH_SYMBOLS, max_len=BENCH_SYMBOLS,
        )
        eval_items = make_paired_dataset(
            n_eval_inputs, seed=seed * 7919 + 2, task_spec=task_spec, vocab=vocab,
            min_len=BENCH_SYMBOLS, max_len=BENCH_SYMBOLS,
        )
        tc = replace(base_tc, seed=seed)
        for label, cfg, task in runs:
            model = Model(cfg, seed=seed)
            log_lines.append(f"# {label} seed={seed}")
            pool = [it for it in train_items if task is None or it.task is task]
            run_training(model, pool, tc, log_lines=log_lines)
            scored = [it for it in eval_items if task is None or it.task is task]
            acc = evaluate_token_accuracy(model, scored, vocab, BENCH_DECODE_LEN)
            for scored_task, value in acc.items():
                accs.setdefault((label, scored_task), []).append(value)
            if task is None:
                score = f"acc_asr={acc[Task.ASR]:.6f} acc_st={acc[Task.ST]:.6f}"
            else:
                score = f"acc={acc[task]:.6f}"
            log_lines.append(f"# {label} seed={seed} {score}")

    means = {key: float(np.mean(values)) for key, values in accs.items()}
    rows = []
    for name, cfg in configs.items():
        pc = count_params(cfg)
        acc_asr, acc_st = (means[f"model {name}", task] for task in Task)
        rows.append(BenchmarkRow(name, pc.trainable, pc.active, acc_asr, acc_st))
    return BenchmarkResult(
        rows=rows,
        control_asr=means[f"control task={Task.ASR.value}", Task.ASR],
        control_st=means[f"control task={Task.ST.value}", Task.ST],
        log_lines=log_lines,
    )


def _check_shared_dims(configs: dict[str, ModelConfig]) -> None:
    ref = next(iter(configs.values()))
    varying = {"d_ff_dec", "dec_smoe"}
    for name, cfg in configs.items():
        for f in fields(ModelConfig):
            if f.name not in varying and getattr(cfg, f.name) != getattr(ref, f.name):
                raise ConfigError(
                    f"benchmark config {name!r} varies {f.name}; only the decoder "
                    f"FFN arrangement ({sorted(varying)}) may differ"
                )


# -- narrowband fine-tuning -----------------------------------------------------


def finetune_nbwb(
    donor: Model,
    items: Sequence[Utterance],
    tc: TrainConfig,
    log_lines: list[str] | None = None,
) -> Model:
    """Expand the donor's encoder FFNs into expert banks, then train on a
    mixed narrowband/wideband stream with encoder routing active.

    The donor is left untouched. Immediately after the expansion the
    returned model computes exactly what the donor does.
    """
    if not any(it.bandwidth is Bandwidth.NB for it in items):
        raise ConfigError("fine-tuning set carries no narrowband samples")
    model = expand_experts(donor, encoder=True)
    run_training(model, items, tc, log_lines=log_lines)
    return model

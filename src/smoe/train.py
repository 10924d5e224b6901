"""Training: task-homogeneous interleaved batches, SGD/Adam, cosine decay,
the task-interference benchmark, and the narrowband fine-tuning workflow.

Batches are homogeneous in task by construction, and the model routes each
sample on its own: the encoder by its bandwidth, which may vary inside a
batch, the decoder by its target's guiding tag. A batch runs as one forward
pass, the encoder on the packed frame rows of its samples, the decoder on
PAD-padded target rows, each expert on its rows. The loss is teacher-forced
cross entropy over payload and EOS positions only: the model conditions on
the guiding prefix but is never trained to predict it. backward() stores
gradients on leaves only, so after a step `.grad` is set on the parameters
the batch reached and on nothing else.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

import numpy as np

from .data import Utterance, make_paired_dataset
from .errors import ConfigError, LimitError, NumericError
from .metrics import corpus_token_accuracy
from .model import Model, ModelConfig, count_params, expand_experts
from .moe import Bandwidth, Task
from .numerics import Tape, Tensor, arena_bounds, backward, softmax_cross_entropy
from .seqio import BYTE_BASE, GuidingToken, Vocabulary, task_of
from .signal import FbankFeatures


@dataclass
class Batch:
    """Task-homogeneous training unit.

    features are the samples' own feature objects, in order: the encoder
    reads each one's frames, frame count and bandwidth, and packs the
    frames once. targets are id rows PAD-padded on the right, with no PAD
    inside a row. loss_targets and loss_weights lay out the loss over the
    [B*L] decoder rows: each row's next-token target (PAD where nothing is
    learned) and its weight, 1 / (B * K_i) on the K_i kept rows of sample
    i, so the loss is the mean over samples of each sample's token mean.
    """

    features: list[FbankFeatures]
    targets: np.ndarray  # [B x L_max], PAD-padded
    loss_targets: np.ndarray = field(init=False)  # [B*L_max]
    loss_weights: np.ndarray = field(init=False)  # [B*L_max]

    def __post_init__(self):
        pad = int(GuidingToken.PAD)
        shifted = np.full_like(self.targets, pad)
        shifted[:, 2:-1] = self.targets[:, 3:]  # a row's padding shifts in as PAD
        kept = shifted != pad
        per_sample = kept.sum(axis=1, keepdims=True)
        self.loss_targets = shifted.reshape(-1)
        self.loss_weights = np.where(
            kept, 1.0 / (len(self) * np.maximum(per_sample, 1)), 0.0
        ).reshape(-1)

    @property
    def task(self) -> Task:
        """The task of the first row's guiding tag, every row's in a built batch."""
        return task_of(int(self.targets[0, 0]))

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
        return Batch(features=[it.features for it in items], targets=targets)

    def __len__(self) -> int:
        return len(self.features)


@dataclass
class TrainConfig:
    steps: int = 200
    batch_size: int = 8
    lr_peak: float = 3e-3
    lr_floor: float = 3e-4
    seed: int = 0
    optimizer: str = "adam"  # "sgd" keeps zero-grad parameters bitwise frozen

    def __post_init__(self):
        for name in ("steps", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("lr_peak", "lr_floor"):
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
        return SGD(params)
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
    feats = batch.features
    enc_out = model.encode_batch(feats)
    logits = model.decode_batch(enc_out, batch.targets, [f.n_frames for f in feats])
    return softmax_cross_entropy(
        logits, batch.loss_targets, int(GuidingToken.PAD), batch.loss_weights
    )


def train_step(model: Model, batch: Batch, optimizer, lr: float) -> float:
    """One training step: zeroed gradients, forward with each sample routed
    by its own labels, teacher-forced cross entropy, backward, parameter
    update. Returns the batch loss. A non-finite loss or gradient raises
    NumericError before any parameter moves.
    """
    model.train()
    optimizer.zero_grad()
    tape = Tape()
    with tape:
        loss = batch_loss(model, batch)
    value = float(loss.data)
    context = f"task={batch.task.value}, lr={lr:g}, batch_size={len(batch)}"
    if not np.isfinite(value):
        raise NumericError(f"non-finite loss {value} ({context})")
    backward(loss, tape)
    check_gradients(model, context)
    optimizer.step(lr)
    return value


def check_gradients(model: Model, context: str) -> None:
    """Raise NumericError naming the first parameter, in named_parameters()
    order, whose gradient holds a non-finite value. One sum over all
    gradients is the check; the parameters are searched only when it is
    not finite."""
    params = model.named_parameters()
    # np.add.reduce is what ndarray.sum runs, without its Python wrapper
    if math.isfinite(sum(float(np.add.reduce(t.grad, None))
                         for _, t in params if t.grad is not None)):
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
    log_lines when given. Each batch is one optimizer step. An item longer
    than the model's max_src_frames or max_tgt_tokens raises LimitError,
    naming its index in `items`, before the first step.
    """
    cfg = model.config
    for i, it in enumerate(items):
        for n, what, key in ((it.features.n_frames, "frames", "max_src_frames"),
                             (len(it.target.ids), "target tokens", "max_tgt_tokens")):
            if n > getattr(cfg, key):
                raise LimitError(f"training item {i} ({it.task.value}, {it.bandwidth.value}): "
                                 f"{n} {what} exceeds {key} {getattr(cfg, key)}")
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
            loss = train_step(model, batch, optimizer, lr)
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
    """Greedy-decode each item on its own task (infer_single decodes in eval
    mode); per task, the (reference, hypothesis) symbol lists in item order."""
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
    base: ModelConfig,
    train_config: TrainConfig,
    seeds: Sequence[int],
    n_train_inputs: int,
    n_eval_inputs: int,
) -> BenchmarkResult:
    """Train the hard-shared `base`, its double-width decoder FFN
    (`dec_ffn_x2`) and its task-routed decoder FFN (`dec_smoe`) on the
    identical interleaved stream and compare per-task greedy accuracy;
    single-task controls on `base` establish that its capacity suffices for
    either task alone. Every input is BENCH_SYMBOLS symbols long and is
    scored by a BENCH_DECODE_LEN-step greedy decode.

    Each seed walks one run list of (label, config, task): the ASR and ST
    controls, then the three models in that order on both tasks (task
    None). Every run trains Model(config, seed) for train_config.steps steps
    on the seed's training items of its task and scores it on its eval items.

    Raises ConfigError, before any dataset is built, on a routed base, no
    seeds, a count of inputs below 1, or a max_tgt_tokens too small for the
    decode.
    """
    if base.dec_smoe:
        raise ConfigError("benchmark derives its variants; start from a plain decoder config")
    if not seeds:
        raise ConfigError("benchmark needs at least one seed")
    for name, count in (("n_train_inputs", n_train_inputs), ("n_eval_inputs", n_eval_inputs)):
        if count < 1:
            raise ConfigError(f"{name} must be >= 1, got {count}")
    if base.max_decode_len < BENCH_DECODE_LEN:
        raise ConfigError(
            f"benchmark scores a {BENCH_DECODE_LEN}-step decode, which needs max_tgt_tokens "
            f">= {BENCH_DECODE_LEN + 2}, got {base.max_tgt_tokens}"
        )
    configs = {
        "base": base,
        "dec_ffn_x2": replace(base, d_ff_dec=2 * base.dec_ff),
        "dec_smoe": replace(base, dec_smoe=True),
    }
    vocab = Vocabulary()
    log_lines: list[str] = []

    runs = [(f"control task={task.value}", base, task) for task in Task]
    runs += [(f"model {name}", cfg, None) for name, cfg in configs.items()]
    accs: dict[tuple[str, Task], list[float]] = {}  # per seed, in seed order

    for seed in seeds:
        train_items = make_paired_dataset(
            n_train_inputs, seed=seed * 7919 + 1, vocab=vocab,
            min_len=BENCH_SYMBOLS, max_len=BENCH_SYMBOLS,
        )
        eval_items = make_paired_dataset(
            n_eval_inputs, seed=seed * 7919 + 2, vocab=vocab,
            min_len=BENCH_SYMBOLS, max_len=BENCH_SYMBOLS,
        )
        tc = replace(train_config, seed=seed)
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

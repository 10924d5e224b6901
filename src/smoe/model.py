"""Full encoder-decoder model, parameter accounting, and checkpoints.

The encoder consumes log-Mel frames and routes its feedforward blocks by the
bandwidth of each sample's features; the decoder consumes
guiding-token-prefixed target ids and routes each row's feedforward blocks
by the task of its own guiding tag (`seqio.task_of`). Everything else is
shared. A forward pass runs a whole batch at once: the encoder on packed
real-frame rows [sum(T_i) x d], where dropout draws at that shape, the
decoder on padded target rows [B*L x d]; attention reads each sample's own
rows, and each expert runs once on the rows routed to it (`_row_groups`).
Only in training mode does it hand its blocks the dropout RNG. Each stack's
entry is one tape node: the encoder's input projection plus positions, the
decoder's embedding lookup, √d scale and positions. Each pre-norm attention
sublayer, self- or cross-attention, is one tape node (`nn.attention_sublayer`);
each FFN sublayer is its norm, the FFN block and the residual add. The
decoder ends in one output-head node, the final norm and the output
projection (`_output_head`), over the kernels greedy decode's logits use.
`encode` and `decode` are its one-sample calls. Greedy decoding runs off the
tape on preallocated, head-major key/value caches and stacked arena views,
through the kernels the tape ops wrap (`numerics.attend`, `normalize`,
`ffn_rows`, `affine_rows` and `matmul_columns`); `decode` is its reference,
which it matches within 1e-12 relative, not bitwise. At paper scale the
numerics kernels run each large product on two cores (`halves.split_parts`),
bitwise as on one.

A model's parameters live in one arena: a contiguous float64 buffer laid
out by `parameter_shapes(config)` in `named_parameters()` order, each
parameter's data a view of its slice, so each expert is one contiguous run.
`_layer_blocks` states one layer's blocks once: `count_params` sums them,
each stack's layer 0 and expert 0 once, and `_layer` builds each layer from
them, one attribute per block over the views of its named tensors.
`Model(config, seed)` allocates the arena and fills it with `init_parameters`,
which draws every matrix in arena order by one fan-in rule.
`load_checkpoint` and `expand_experts` allocate it with `Model.allocate` and
write every parameter from the file or the donor; they draw no random values.
A checkpoint is a header, the config block and the arena's bytes, so a load
reads the arena's bytes straight into the arena, and `checkpoint_config`
reads the header alone. Where the OS has positional reads, the load reads
the arena's two halves at once through `halves.map_halves`: the calling
thread reads the lower half, one helper thread the upper.
"""

from __future__ import annotations

import ctypes
import errno
import functools
import math
import os
import re
import struct
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Sequence, get_type_hints

import numpy as np

from .errors import CheckpointError, ConfigError, LimitError, RoutingError
from .halves import map_halves
from .moe import (
    N_EXPERTS, Bandwidth, GateVector, SMoELayer, Task, gate_decoder, gate_encoder, select_expert,
    smoe_forward,
)
from .nn import (
    AttentionParams,
    FFNParams,
    LayerNormParams,
    attention_forward,
    attention_shapes,
    attention_sublayer,
    ffn_forward,
    ffn_shapes,
    init_parameters,
    layer_norm_params,
    layer_norm_shapes,
    pre_norm_residual,
    sinusoidal_positions,
)
from .numerics import (
    Tensor, affine_rows, attend, constant, dropout, embedding, ffn_rows, gather_rows, linear,
    matmul_columns, normalize, normalize_backward, parameter_arena, record_op, scatter_rows,
)
from .seqio import GuidingToken, TargetSequence, guiding_prefix, task_of
from .signal import N_MELS, FbankFeatures

# The public API. It re-exports the three blocks that perfbench/spans.py wraps
# as attributes of this module; attention_forward has no caller here since
# the model runs each attention sublayer as one `attention_sublayer` node.
__all__ = [
    "CHECKPOINT_MAGIC", "CHECKPOINT_VERSION", "CONFIG_TYPES", "DualDecode", "LayerSplit", "Model",
    "ModelConfig", "ParamCount", "SingleDecode", "attention_forward", "checkpoint_config",
    "count_params", "expand_experts", "ffn_forward", "format_value", "load_checkpoint",
    "parameter_shapes", "parse_config_text", "save_checkpoint", "smoe_forward",
]

CHECKPOINT_MAGIC = b"SMOE"
CHECKPOINT_VERSION = 3


@dataclass
class ModelConfig:
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    d_model: int = 64
    d_ff: int = 128
    d_ff_dec: int | None = None  # decoder FFN width when it differs (FFNx2 variants)
    n_heads: int = 4
    vocab_size: int = 272
    dropout: float = 0.15
    activation: str = "silu"
    glu: bool = True
    tied_embed: bool = True
    enc_smoe: bool = False
    dec_smoe: bool = False
    max_src_frames: int = 3000
    max_tgt_tokens: int = 120

    def __post_init__(self):
        for name in ("n_enc_layers", "n_dec_layers", "d_model", "d_ff", "n_heads",
                     "vocab_size", "max_src_frames", "max_tgt_tokens"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by {self.n_heads} heads")
        if self.d_model % 2 != 0:
            raise ConfigError("d_model must be even for sinusoidal positions")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.activation not in ("silu", "relu"):
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.d_ff_dec is not None and self.d_ff_dec <= 0:
            raise ConfigError(f"d_ff_dec must be positive, got {self.d_ff_dec}")

    @property
    def dec_ff(self) -> int:
        return self.d_ff if self.d_ff_dec is None else self.d_ff_dec

    @property
    def max_decode_len(self) -> int:
        """The most greedy steps that fit max_tgt_tokens positions: the three
        guiding ids and every emitted id but the last."""
        return self.max_tgt_tokens - 2

    @classmethod
    def paper_scale(cls, vocab_size: int = 40000, **overrides) -> "ModelConfig":
        base = dict(
            n_enc_layers=12, n_dec_layers=6, d_model=512, d_ff=2048, n_heads=8,
            vocab_size=vocab_size, dropout=0.15, max_src_frames=3000, max_tgt_tokens=120,
        )
        base.update(overrides)
        return cls(**base)

    def to_text(self) -> str:
        return "".join(f"{f.name} = {format_value(getattr(self, f.name))}\n" for f in fields(self))

    @classmethod
    def from_text(cls, text: str) -> "ModelConfig":
        return cls(**parse_config_text(text, CONFIG_TYPES))


CONFIG_TYPES = get_type_hints(ModelConfig)  # config key -> its field's type


def parse_config_text(text: str, schema: dict) -> dict:
    """Parse flat `key = value` lines with # comments; an unknown or repeated
    key is rejected. `schema` maps each key to its type: bool reads
    true/false, int | None also reads none, and any other type is called on
    the value text."""
    out = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in schema:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        kind = schema[key]
        try:
            if kind is bool:
                if value not in ("true", "false"):
                    raise ValueError(value)
                out[key] = value == "true"
            elif kind == int | None:
                out[key] = None if value == "none" else int(value)
            else:
                out[key] = kind(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {value!r}") from exc
    return out


def format_value(value) -> str:
    """Render one config value the way parse_config_text reads it back."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


@dataclass
class LayerSplit:
    """One layer of a stack: attention, layer-norm and `copies` x `ffn` FFN parameters."""
    n_layers: int
    attn: int
    norms: int
    copies: int
    ffn: int


@dataclass
class ParamCount:
    trainable: int
    active: int
    parts: dict[str, int] = field(default_factory=dict)  # component -> count
    layers: dict[str, LayerSplit] = field(default_factory=dict)  # layer-stack part -> its split

    def __post_init__(self):
        if self.active > self.trainable:
            raise ConfigError("active parameters cannot exceed trainable")


Shapes = list[tuple[str, tuple[int, ...]]]
LayerBlock = tuple[str, str, Shapes, int]  # (kind, block, shapes, experts)
STACKS = {"enc": "encoder layers", "dec": "decoder layers"}  # layer stack -> count_params part


def _outer_parts(config: ModelConfig) -> list[tuple[str, Shapes]]:
    """The table entries outside the layer stacks as (part, entries), in
    arena order; the stacks go before the last part, the final norms."""
    d, norm = config.d_model, layer_norm_shapes(config.d_model)
    parts = [("embedding", [("embed", (config.vocab_size, d))])]
    if not config.tied_embed:
        parts.append(("output projection", [("out_proj", (d, config.vocab_size))]))
    return parts + [
        ("input projection", [("input_proj.w", (N_MELS, d)), ("input_proj.b", (d,))]),
        ("final norms", [(f"ln_{s}_final.{n}", shape) for s in STACKS for n, shape in norm]),
    ]


def _layer_blocks(config: ModelConfig, stack: str) -> tuple[int, list[LayerBlock]]:
    """Stack "enc" or "dec": its layer count and one layer's (kind, block,
    shapes, experts) in arena order, kind "attn", "norms" or "ffn". A routed
    FFN block holds `experts` copies named `expertK.`, any other block one."""
    d, enc = config.d_model, stack == "enc"
    attns = ("attn",) if enc else ("self_attn", "cross_attn")
    norms = ("ln_attn", "ln_ffn") if enc else ("ln_self", "ln_cross", "ln_ffn")
    ffn = ffn_shapes(d, config.d_ff if enc else config.dec_ff, config.glu)
    routed = config.enc_smoe if enc else config.dec_smoe
    return config.n_enc_layers if enc else config.n_dec_layers, (
        [("attn", b, attention_shapes(d), 0) for b in attns]
        + [("norms", b, layer_norm_shapes(d), 0) for b in norms]
        + [("ffn", "ffn", ffn, N_EXPERTS if routed else 0)])


def count_params(config: ModelConfig) -> ParamCount:
    """Trainable/active parameter counts of a config, summed over its
    parameter_shapes table, with the per-component breakdown they sum. A
    layer stack is summed off layer 0 and one copy of each block, scaled by
    its layer and expert counts, so the work grows with neither. Active is
    what one forward pass touches under one-hot routing: every entry but the
    `...ffn.expertK...` copies with K >= 1."""
    *head, (tail, tail_entries) = _outer_parts(config)
    parts = {part: sum(math.prod(shape) for _, shape in entries) for part, entries in head}
    layers: dict[str, LayerSplit] = {}
    for stack, part in STACKS.items():
        n_layers, blocks = _layer_blocks(config, stack)
        size = {"attn": 0, "norms": 0, "ffn": 0}
        for kind, _, shapes, _ in blocks:
            size[kind] += sum(math.prod(shape) for _, shape in shapes)
        copies = max(experts for *_, experts in blocks) or 1
        layers[part] = s = LayerSplit(n_layers, size["attn"], size["norms"], copies, size["ffn"])
        parts[part] = n_layers * (s.attn + s.norms + copies * s.ffn)
    parts[tail] = sum(math.prod(shape) for _, shape in tail_entries)
    trainable = sum(parts.values())
    inactive = sum(s.n_layers * (s.copies - 1) * s.ffn for s in layers.values())
    return ParamCount(trainable, trainable - inactive, parts, layers)


def parameter_shapes(config: ModelConfig) -> Shapes:
    """Every parameter's name and shape, in named_parameters() order: the
    layout of a model's arena. Each expert's tensors form one run."""
    *head, (_, tail) = _outer_parts(config)
    table = [entry for _, entries in head for entry in entries]
    for stack in STACKS:
        n_layers, blocks = _layer_blocks(config, stack)
        for i in range(n_layers):
            for _, block, shapes, experts in blocks:
                subs = [f"expert{k}." for k in range(experts)] if experts else [""]
                table += [(f"{stack}.{i}.{block}.{sub}{n}", s) for sub in subs for n, s in shapes]
    return table + tail


Params = list[tuple[str, Tensor]]
RowGroups = list[tuple[GateVector | None, np.ndarray | None]]  # FFN (gate, rows); None: all rows


def _row_groups(gates: list[GateVector | None], lengths: Sequence[int]) -> RowGroups:
    """The row groups of samples packed in order, sample i's lengths[i] rows
    routed by gates[i]: one group of every row when the gates agree, else
    one per gate, in first-seen order."""
    if len(set(gates)) == 1:
        return [(gates[0], None)]
    rows: dict[GateVector | None, list[np.ndarray]] = {}
    for gate, start, length in zip(gates, np.cumsum([0, *lengths]), lengths):
        rows.setdefault(gate, []).append(np.arange(start, start + length))
    return [(gate, np.concatenate(r)) for gate, r in rows.items()]


def _layer(config: ModelConfig, stack: str, views: dict[str, Tensor], prefix: str):
    """Layer `prefix` ("enc.0.") of `stack` over its arena views: per
    _layer_blocks entry an attribute named after the block that holds its
    AttentionParams, LayerNormParams or FFNParams, an SMoELayer of them for
    a routed FFN block. Each tensor is looked up by its full name."""
    kinds = {"attn": functools.partial(AttentionParams, n_heads=config.n_heads),
             "norms": LayerNormParams, "ffn": FFNParams}
    layer = SimpleNamespace()
    for kind, block, shapes, experts in _layer_blocks(config, stack)[1]:
        subs = [f"expert{k}." for k in range(experts)] if experts else [""]
        made = [kinds[kind](**{n: views[f"{prefix}{block}.{sub}{n}"] for n, _ in shapes})
                for sub in subs]
        setattr(layer, block, SMoELayer(experts=made) if experts else made[0])
    return layer


@dataclass
class DualDecode:
    asr_ids: list[int]
    st_ids: list[int]
    asr_truncated: bool
    st_truncated: bool


@dataclass
class SingleDecode:
    ids: list[int]
    truncated: bool


class Model:
    """Encoder-decoder transformer with label-routed feedforward banks."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self._allocate(config, seed)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        init_parameters(self._params, rng)

    @classmethod
    def allocate(cls, config: ModelConfig) -> "Model":
        """A model of `config` whose arena is allocated but not filled, with
        the dropout stream of Model(config, seed=0). It draws no random
        value; the caller must write every parameter before using it."""
        model = cls.__new__(cls)
        model._allocate(config, seed=0)
        return model

    def _allocate(self, config: ModelConfig, seed: int) -> None:
        """The structure: every parameter a view of one arena, laid out by
        parameter_shapes."""
        self.config = config
        self.arena, self._params = parameter_arena(parameter_shapes(config))
        views = dict(self._params)
        self.embed = views["embed"]
        self.out_proj = views.get("out_proj")
        self.input_proj_w = views["input_proj.w"]
        self.input_proj_b = views["input_proj.b"]
        self.enc_layers = [_layer(config, "enc", views, f"enc.{i}.")
                           for i in range(config.n_enc_layers)]
        self.dec_layers = [_layer(config, "dec", views, f"dec.{i}.")
                           for i in range(config.n_dec_layers)]
        self.ln_enc_final = LayerNormParams(views["ln_enc_final.gain"], views["ln_enc_final.bias"])
        self.ln_dec_final = LayerNormParams(views["ln_dec_final.gain"], views["ln_dec_final.bias"])
        start = dict(zip(views, np.cumsum([0, *(t.size for t in views.values())]).tolist()))

        def stacked(name: str, shapes: Shapes, copies: int) -> list[np.ndarray]:
            """`copies` back-to-back runs of `shapes` from parameter `name` on, per
            entry one view [copies x rows x cols], or [copies x 1 x n] for a vector."""
            sizes = [math.prod(shape) for _, shape in shapes]
            run = self.arena[start[name] : start[name] + copies * sum(sizes)].reshape(copies, -1)
            return [run[:, end - n : end].reshape(copies, *(1, *shape)[-2:])
                    for (_, shape), n, end in zip(shapes, sizes, np.cumsum(sizes))]

        # greedy decode's arena views: w_q/w_k/w_v and their biases, and the experts
        first, copies = ("ffn.expert0.w_in", N_EXPERTS) if config.dec_smoe else ("ffn.w_in", 1)
        ffn = ffn_shapes(config.d_model, config.dec_ff, config.glu)
        for i, layer in enumerate(self.dec_layers):
            layer.qkv = stacked(f"dec.{i}.self_attn.w_q", attention_shapes(config.d_model)[:2], 3)
            layer.experts = [*stacked(f"dec.{i}.{first}", ffn, copies), None, None][:6]
        self.training = False
        self.reseed_dropout(seed)

    # -- mode & bookkeeping ------------------------------------------------

    def train(self) -> "Model":
        self.training = True
        return self

    def eval(self) -> "Model":
        self.training = False
        return self

    def reseed_dropout(self, seed: int) -> None:
        self._dropout_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))

    def smoe_layers(self) -> list[tuple[str, SMoELayer]]:
        """Every routed FFN bank with its name, encoder layers first."""
        return [(f"{stack}.{i}.ffn", layer.ffn)
                for stack, layers in (("enc", self.enc_layers), ("dec", self.dec_layers))
                for i, layer in enumerate(layers) if isinstance(layer.ffn, SMoELayer)]

    def reset_expert_counts(self) -> None:
        for _, bank in self.smoe_layers():
            bank.reset_counts()

    def named_parameters(self) -> Params:
        """Every parameter with its name, in arena order."""
        return list(self._params)

    def parameter_count(self) -> int:
        return self.arena.size

    # -- forward pieces ----------------------------------------------------

    def _dispatch_ffn(self, layer_ffn, groups: RowGroups, x: Tensor) -> Tensor:
        """The layer's feedforward block on x's row groups: each group's rows
        are gathered, sent once through the expert its gate picks (a shared
        block reads no gate) and scattered back; rows in no group get 0."""
        def ffn(gate: GateVector | None, h: Tensor) -> Tensor:
            if isinstance(layer_ffn, SMoELayer):
                return smoe_forward(layer_ffn, gate, h, activation=self.config.activation)
            return ffn_forward(layer_ffn, h, activation=self.config.activation)

        if groups[0][1] is None:
            return ffn(groups[0][0], x)
        return scatter_rows([(ffn(gate, gather_rows(x, rows)), rows) for gate, rows in groups],
                            x.shape[0])

    def encode(self, features: FbankFeatures, bw: Bandwidth) -> Tensor:
        """Encoder states [n_frames x d] of one utterance, routed by bw."""
        if bw is not features.bandwidth:
            features = replace(features, bandwidth=bw)
        return self.encode_batch([features])

    def encode_batch(self, features: Sequence[FbankFeatures]) -> Tensor:
        """Packed encoder states [sum of n_frames x d] of utterances'
        features: sample i's n_frames rows, in order, routed by its bandwidth.

        Each sample's frames are normalized and packed once; every layer
        runs on these rows alone, and attention reads each sample's own
        rows. A batch that mixes bandwidths sends each bandwidth's rows
        through its expert in one call, gathered and scattered back, so an
        expert no sample routes to is never invoked.
        """
        cfg = self.config
        if not features:
            raise ConfigError("cannot encode an empty batch")
        lengths = [f.n_frames for f in features]
        t_max = max(lengths)
        if t_max > cfg.max_src_frames:
            raise LimitError(f"{t_max} frames exceeds max_src_frames {cfg.max_src_frames}")
        n_mels = {f.frames.shape[1] for f in features}
        if n_mels != {N_MELS}:
            raise ConfigError(f"features have {sorted(n_mels)} mels, the input projection "
                              f"wants {N_MELS}")
        packed = np.concatenate([f.normalized() for f in features])
        positions = sinusoidal_positions(t_max, cfg.d_model)
        rng = self._dropout_rng if self.training else None
        x = linear(constant(packed), self.input_proj_w, self.input_proj_b,
                   np.concatenate([positions[:length] for length in lengths]))
        x = dropout(x, cfg.dropout, rng)
        groups = _row_groups([gate_encoder(f.bandwidth) if cfg.enc_smoe else None
                              for f in features], lengths)
        for layer in self.enc_layers:
            x = attention_sublayer(layer.attn, layer.ln_attn, x, None, lengths, lengths, False,
                                   cfg.dropout, rng)
            x = pre_norm_residual(lambda h: self._dispatch_ffn(layer.ffn, groups, h),
                                  layer.ln_ffn, x, cfg.dropout, rng)
        return layer_norm_params(self.ln_enc_final, x)

    def decode(self, enc_out: Tensor, ids: list[int], task: Task) -> Tensor:
        """Teacher-forced logits [len(ids) x vocab] over one encoder output;
        `task` must be the one ids[0] tags, or RoutingError."""
        if ids and task is not task_of(ids[0]):
            raise RoutingError(f"ids tagged {task_of(ids[0]).value} cannot decode as {task!r}")
        return self.decode_batch(enc_out, np.asarray([ids]))

    def decode_batch(self, enc_out: Tensor, ids: np.ndarray,
                     enc_lengths: Sequence[int] | None = None) -> Tensor:
        """Teacher-forced logits [B*L x vocab] of id rows [B x L] over packed
        encoder states [sum(enc_lengths) x d], each row routed by its own
        guiding tag, ids[i, 0]; each decoder expert runs once on its rows.

        enc_lengths are each sample's encoder rows (None: one sample owns
        all); cross-attention reads each sample's own rows only. Causal
        self-attention keeps each position from reading the ones after it,
        so trailing padding in `ids` never reaches a real position. A row
        whose tag is no task's raises RoutingError before any dropout draw.
        """
        cfg = self.config
        n, t = ids.shape
        if t == 0:
            raise ConfigError("cannot decode an empty id row")
        if t > cfg.max_tgt_tokens:
            raise LimitError(f"{t} target tokens exceeds max_tgt_tokens {cfg.max_tgt_tokens}")
        gates = [gate_decoder(task_of(tag)) for tag in ids[:, 0].tolist()]  # read routed or not
        lens = [t] * n  # each id row is one sample of t positions
        groups = _row_groups(gates if cfg.dec_smoe else [None] * n, lens)
        x = embedding(self.embed, ids.reshape(-1), math.sqrt(cfg.d_model),
                      np.tile(sinusoidal_positions(t, cfg.d_model), (n, 1)))
        rng = self._dropout_rng if self.training else None
        x = dropout(x, cfg.dropout, rng)
        for layer in self.dec_layers:
            x = attention_sublayer(layer.self_attn, layer.ln_self, x, None, lens, lens, True,
                                   cfg.dropout, rng)
            x = attention_sublayer(layer.cross_attn, layer.ln_cross, x, enc_out, lens, enc_lengths,
                                   False, cfg.dropout, rng)
            x = pre_norm_residual(lambda h: self._dispatch_ffn(layer.ffn, groups, h),
                                  layer.ln_ffn, x, cfg.dropout, rng)
        return self._output_head(x)

    def forward(
        self, features: FbankFeatures, bw: Bandwidth, target: TargetSequence
    ) -> Tensor:
        """Teacher-forced logits [len(target.ids) x vocab]."""
        enc_out = self.encode(features, bw)
        return self.decode(enc_out, target.ids, target.task)

    def _head_rows(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        """Vocabulary logits [rows x vocab] of decoder states x [rows x d],
        no tape: the final norm, then the output projection P (the embedding
        table's transpose when tied) by `matmul_columns`. Also returns the
        norm's output h, its xhat and inv_std, and P, for a backward."""
        ln = self.ln_dec_final
        h, xhat, inv_std = normalize(x, ln.gain.data, ln.bias.data)
        proj = self.embed.data.T if self.out_proj is None else self.out_proj.data
        return matmul_columns(h, proj), (h, xhat, inv_std, proj)

    def _output_head(self, x: Tensor) -> Tensor:
        """`_head_rows` as one tape node. Backward, for the logits gradient
        g: dP = h^T g (transposed onto the tied table), and the norm's
        backward of dh = g P^T."""
        ln, tied = self.ln_dec_final, self.out_proj is None
        weight = self.embed if tied else self.out_proj
        logits, (h, xhat, inv_std, proj) = self._head_rows(x.data)

        def grad_fn(g: np.ndarray):
            dproj = h.T @ g
            dx, dgain, dbias = normalize_backward(g @ proj.T, ln.gain.data, xhat, inv_std)
            return [(weight, dproj.T if tied else dproj), (ln.gain, dgain), (ln.bias, dbias),
                    (x, dx)]

        needs = x.requires_grad or weight.requires_grad or ln.gain.requires_grad
        return record_op(Tensor(logits, requires_grad=needs), grad_fn)

    # -- greedy decoding ----------------------------------------------------

    def _last_logits(self, last: np.ndarray) -> np.ndarray:
        """Vocabulary logits [rows x vocab] of decoder states [rows x d]: the
        output head of `decode`, without a tape."""
        return self._head_rows(last)[0]

    def _greedy_rows(self, enc_out: Tensor, prefixes: list, max_len: int) -> list[SingleDecode]:
        """Greedy decode of one row per guiding prefix, each of a distinct
        task, over one encoder output, with cached keys/values and no tape.

        Each step computes what `decode` computes at its new positions, for
        every live row at once: the guiding prefix is the first step, then
        one position per step. Each layer takes Q, K and V from one matmul
        over its `qkv` view and writes K and V in place into caches sized
        from max_len, head-major as `attend` reads them; cross-attention
        keys/values are projected once, by `affine_rows`. Every row's
        feedforward runs through its tag's expert in one `ffn_rows` call
        over the `experts` view. Only last positions reach the vocabulary,
        through `matmul_columns`, and a row leaves the batch and its caches
        at its EOS. The cross keys/values, the feedforward (over experts)
        and the vocabulary product each run as two parts on two cores when
        `halves.split_parts` finds them large enough, bitwise as one part.
        No dropout: this is the eval-mode computation, its logits within
        1e-12 relative of `decode`'s, not bitwise. A max_len past
        max_decode_len raises ConfigError before the first step.
        """
        cfg = self.config
        results = [SingleDecode(ids=[], truncated=True) for _ in prefixes]
        if max_len <= 0:
            return results
        if max_len > cfg.max_decode_len:
            raise ConfigError(f"max_len {max_len} exceeds max_tgt_tokens {cfg.max_tgt_tokens} - 2")
        d, n_heads, eos = cfg.d_model, cfg.n_heads, int(GuidingToken.EOS)
        d_h, enc, live = d // n_heads, enc_out.data, list(range(len(prefixes)))
        step_ids = np.array(prefixes)
        n_pos = step_ids.shape[1] + max_len - 1  # the last step's input sits at n_pos - 1
        positions = sinusoidal_positions(n_pos, d)

        def heads(x: np.ndarray, n_rows: int) -> np.ndarray:
            """Rows [n_rows*t x d] as [n_rows x heads x t x d_h], a view."""
            return x.reshape(n_rows, -1, n_heads, d_h).transpose(0, 2, 1, 3)

        def norm(ln: LayerNormParams, x: np.ndarray) -> np.ndarray:
            return normalize(x, ln.gain.data, ln.bias.data)[0]

        cross = [(np.ascontiguousarray(heads(affine_rows(enc, a.w_k.data, a.b_k.data), 1)
                                       .swapaxes(2, 3)),
                  np.ascontiguousarray(heads(affine_rows(enc, a.w_v.data, a.b_v.data), 1)))
                 for a in (layer.cross_attn for layer in self.dec_layers)]
        caches = [(np.empty((len(live), n_heads, d_h, n_pos)),
                   np.empty((len(live), n_heads, n_pos, d_h))) for _ in self.dec_layers]
        gates = [gate_decoder(task_of(prefix[0])) for prefix in prefixes]

        def routed(live: list[int]) -> tuple[slice, list[list]]:
            """The order that lines the live rows up with their experts, and
            each layer's `experts` view cut to those experts, consecutive
            because the tasks are distinct."""
            ks = [gates[r].selected for r in live] if cfg.dec_smoe else [0]
            picked = slice(min(ks), max(ks) + 1)
            return slice(None, None, 1 if ks[0] <= ks[-1] else -1), [
                [None if t is None else t[picked] for t in layer.experts]
                for layer in self.dec_layers]

        order, experts = routed(live)
        done = 0  # positions already in the self-attention caches
        for _ in range(max_len):
            n_rows, n_new = step_ids.shape
            end = done + n_new
            x = self.embed.data[step_ids] * math.sqrt(d) + positions[done:end]
            x = x.reshape(n_rows * n_new, d)
            for layer, (keys, values), (cross_k, cross_v), weights in zip(
                    self.dec_layers, caches, cross, experts):
                qkv = np.matmul(norm(layer.ln_self, x), layer.qkv[0]) + layer.qkv[1]
                q, k, v = qkv.reshape(3, n_rows, n_new, n_heads, d_h).transpose(0, 1, 3, 2, 4)
                keys[..., done:end] = k.swapaxes(2, 3)
                values[:, :, done:end] = v
                ctx = np.empty_like(x)  # each attention's context, heads merged
                ctx_heads = heads(ctx, n_rows)
                attend(q, keys[..., :end], values[:, :, :end], ctx_heads, causal=True)
                a = layer.self_attn
                x += ctx @ a.w_o.data + a.b_o.data
                a = layer.cross_attn
                attend(heads(norm(layer.ln_cross, x) @ a.w_q.data + a.b_q.data, n_rows),
                       cross_k, cross_v, ctx_heads)
                x += ctx @ a.w_o.data + a.b_o.data
                for r in live if cfg.dec_smoe else ():
                    select_expert(layer.ffn, gates[r])  # counts the call the next line makes
                h = norm(layer.ln_ffn, x).reshape(n_rows, n_new, d)[order]
                x += ffn_rows(h, *weights, cfg.activation)[0][order].reshape(-1, d)
            done = end
            last = x.reshape(n_rows, n_new, d)[:, -1]
            next_ids = self._last_logits(last).argmax(-1)
            keep = []
            for j, r in enumerate(live):
                token = int(next_ids[j])
                results[r].ids.append(token)
                if token == eos:
                    results[r].truncated = False
                else:
                    keep.append(j)
            if not keep:
                break
            if len(keep) < n_rows:
                live = [live[j] for j in keep]
                caches = [(k[keep], v[keep]) for k, v in caches]
                order, experts = routed(live)
            step_ids = next_ids[keep, None]
        return results

    def infer_single(
        self, features: FbankFeatures, bw: Bandwidth, task: Task, max_len: int
    ) -> SingleDecode:
        """Greedy decode of one task. The model is switched to eval mode
        first, as `_greedy_rows` is the eval-mode computation."""
        enc_out = self.eval().encode(features, bw)
        return self._greedy_rows(enc_out, [guiding_prefix(task)], max_len)[0]

    def infer_dual(self, features: FbankFeatures, bw: Bandwidth, max_len: int) -> DualDecode:
        """One encoder pass feeding a two-row greedy decode: the transcription
        row routes to the ASR expert, the translation row to the ST expert.
        The rows share only the encoder output, so each decodes the ids of
        the single-task decode of its task. The model is switched to eval
        mode first, as in infer_single."""
        enc_out = self.eval().encode(features, bw)
        asr, st = self._greedy_rows(enc_out, [guiding_prefix(task) for task in Task], max_len)
        return DualDecode(
            asr_ids=asr.ids,
            st_ids=st.ids,
            asr_truncated=asr.truncated,
            st_truncated=st.truncated,
        )


# -- expert expansion --------------------------------------------------------


def expand_experts(donor: Model, encoder: bool = False, decoder: bool = False) -> Model:
    """Build a routed model from a shared-FFN donor by cloning each shared
    feedforward block into an expert bank. The new model computes exactly
    what the donor does, under every gate, until training moves the experts
    apart.

    Every parameter is copied into the new model's arena from the donor
    parameter of the same name; a newly routed `...ffn.expertK.x` copies the
    donor's shared `...ffn.x`. No random value is drawn.
    """
    cfg = donor.config
    if encoder and cfg.enc_smoe:
        raise ConfigError("donor encoder is already routed")
    if decoder and cfg.dec_smoe:
        raise ConfigError("donor decoder is already routed")
    new_cfg = replace(
        cfg,
        enc_smoe=cfg.enc_smoe or encoder,
        dec_smoe=cfg.dec_smoe or decoder,
    )
    out = Model.allocate(new_cfg)
    source = dict(donor.named_parameters())
    for name, tensor in out.named_parameters():
        if name not in source:
            name = re.sub(r"\.ffn\.expert\d+\.", ".ffn.", name)
        tensor.data[...] = source[name].data
    return out


# -- checkpoint format --------------------------------------------------------
#
#   magic "SMOE" | u32 version | u64 step
#   u32 config byte length | config text (key = value lines)
#   the arena: every parameter in parameter_shapes(config) order, float64
#
# all integers little-endian, the arena little-endian float64, nothing after
# it. The config implies every name, shape and the arena's size, so the file
# stores none of them, and a change to the order or shapes of parameter_shapes
# must bump CHECKPOINT_VERSION. An FFN block's entries run w_in, b_in, w_out,
# b_out, w_gate, b_gate, so init_parameters draws its matrices in the order
# the weights are pinned to. There is no checksum: a flipped arena bit loads.

_HEADER = struct.Struct("<4sIQI")  # magic, version, step, config byte length


def _libc_fallocate():
    """Linux fallocate(2) from libc, errno kept for ctypes.get_errno, or None
    where libc has no such symbol."""
    try:
        fallocate = ctypes.CDLL(None, use_errno=True).fallocate64  # off64_t on every build
    except (OSError, AttributeError):
        return None
    fallocate.argtypes = (ctypes.c_int, ctypes.c_int, ctypes.c_int64, ctypes.c_int64)
    fallocate.restype = ctypes.c_int
    return fallocate


_fallocate = _libc_fallocate()


def _preallocate(fd: int, size: int, path: Path) -> None:
    """Allocate the `size` bytes of the empty file open as `fd` in one call
    (fallocate mode 0), before a write fills them. Skipped where libc or the
    filesystem has no fallocate (a missing symbol, EOPNOTSUPP, ENOSYS); any
    other failure (ENOSPC, EFBIG, EIO) raises OSError, as a failed write
    does. Not posix_fallocate: glibc emulates that one by writing every
    block where the filesystem lacks fallocate."""
    if _fallocate is None:
        return
    while _fallocate(fd, 0, 0, size) != 0:
        err = ctypes.get_errno()
        if err in (errno.EOPNOTSUPP, errno.ENOSYS):
            return
        if err != errno.EINTR:
            raise OSError(err, os.strerror(err), str(path))


def save_checkpoint(model: Model, path: str | Path, step: int = 0) -> None:
    """Write the header and config block, then the arena in one write,
    with no full-size copy in memory on a little-endian host. The file's
    blocks are allocated first, at its exact size (`_preallocate`).

    The bytes go to a temporary file beside `path`, which then replaces
    `path` in one rename, so a save that fails midway leaves the previous
    file whole and no temporary file behind.
    """
    path = Path(path)
    cfg_bytes = model.config.to_text().encode("utf-8")
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            _preallocate(fh.fileno(), _HEADER.size + len(cfg_bytes) + model.arena.nbytes, tmp)
            fh.write(_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, step, len(cfg_bytes)))
            fh.write(cfg_bytes)
            fh.write(model.arena.astype("<f8", copy=False))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _open_checkpoint(path: str | Path):
    try:
        return open(path, "rb")
    except OSError as exc:
        raise CheckpointError(str(exc)) from exc


def _read_header(fh, path: str | Path) -> tuple[ModelConfig, int]:
    """The config and step of the checkpoint open as `fh`, left at its arena.
    A file whose size is not exactly the header, the config block and the
    arena that config implies is rejected before any table or arena is built."""
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(_HEADER.size)
    if len(head) != _HEADER.size:
        raise CheckpointError(f"truncated checkpoint {path}: {len(head)} bytes")
    magic, version, step, cfg_len = _HEADER.unpack(head)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic in {path}")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version} in {path}")
    if cfg_len > size - _HEADER.size:
        raise CheckpointError(f"truncated checkpoint {path}: config block needs {cfg_len} bytes")
    try:
        config = ModelConfig.from_text(fh.read(cfg_len).decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"non-UTF-8 config block in {path}") from exc
    except ConfigError as exc:
        raise CheckpointError(f"bad config block in {path}: {exc}") from exc
    payload = size - _HEADER.size - cfg_len
    expected = 8 * count_params(config).trainable
    if payload != expected:
        raise CheckpointError(f"{path} has {payload} arena bytes, config implies {expected}")
    return config, step


def checkpoint_config(path: str | Path) -> tuple[ModelConfig, int]:
    """A checkpoint's config and step, read from its header alone: the file
    size is checked against the config, the arena is not read."""
    with _open_checkpoint(path) as fh:
        return _read_header(fh, path)


def load_checkpoint(path: str | Path) -> tuple[Model, int]:
    """Rebuild a model from a checkpoint; fails closed on a bad header or
    config block and on a file size other than the one they imply.

    The header is checked before the arena is allocated. The arena's bytes
    are then read straight into the new model's arena, from the descriptor
    the header was read from, so every parameter is written and no random
    value is drawn. Where the OS has positional reads (`os.preadv`, POSIX)
    the two halves of the arena are read at once (`map_halves`), and a
    failed read of the lower half is raised before one of the upper half;
    elsewhere it is one read.
    """
    with _open_checkpoint(path) as fh:
        config, step = _read_header(fh, path)
        model = Model.allocate(config)
        if hasattr(os, "preadv"):
            # two spans split on a whole float, each read by position from
            # the one descriptor, so a save that replaces `path` meanwhile
            # cannot give them different files
            fd, offset, raw = fh.fileno(), fh.tell(), memoryview(model.arena).cast("B")
            split = 8 * (model.arena.size // 2)
            map_halves(lambda span: _read_span(fd, raw[span], offset + span.start, path),
                       [slice(0, split), slice(split, raw.nbytes)])
        elif fh.readinto(model.arena) != model.arena.nbytes:
            raise CheckpointError(f"truncated checkpoint {path}")
    if sys.byteorder == "big":  # the arena on disk is little-endian
        model.arena.byteswap(inplace=True)
    return model, step


def _read_span(fd: int, buf: memoryview, offset: int, path: str | Path) -> None:
    """Fill `buf` from file offset `offset` by positional reads, looping on
    short counts; end of file before `buf` is full is a truncated checkpoint."""
    done = 0
    while done < len(buf):
        n = os.preadv(fd, [buf[done:]], offset + done)
        if n == 0:
            raise CheckpointError(f"truncated checkpoint {path}")
        done += n

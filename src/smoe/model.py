"""Full encoder-decoder model, parameter accounting, and checkpoints.

The encoder consumes log-Mel frames and routes its feedforward blocks by
audio bandwidth; the decoder consumes guiding-token-prefixed target ids and
routes its feedforward blocks by task. Everything else is shared. Forward
passes are per-sample (2-D activations, heads batched 3-D), which keeps the
routed subgraph and the tape trivially aligned.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, LimitError
from .moe import Bandwidth, GateVector, SMoELayer, Task, gate_decoder, gate_encoder, smoe_forward
from .nn import (
    AttentionParams,
    FFNParams,
    LayerNormParams,
    attention_forward,
    attention_param_count,
    causal_mask,
    ffn_forward,
    ffn_param_count,
    layer_norm_params,
    pre_norm_residual,
    sinusoidal_positions,
)
from .numerics import Tensor, add, constant, dropout, embedding, matmul, scale, transpose2d
from .seqio import LANGUAGE_TOKEN, TASK_LANGUAGE, TASK_TOKEN, GuidingToken, Language, TargetSequence
from .signal import N_MELS, FbankFeatures

CHECKPOINT_MAGIC = b"SMOE"
CHECKPOINT_VERSION = 1


@dataclass
class ModelConfig:
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    d_model: int = 64
    d_ff: int = 128
    d_ff_dec: int | None = None  # decoder FFN width when it differs (FFNx2 variants)
    n_heads: int = 4
    vocab_size: int = 272
    n_mels: int = N_MELS
    dropout: float = 0.15
    activation: str = "silu"
    glu: bool = True
    tied_embed: bool = True
    enc_smoe: bool = False
    dec_smoe: bool = False
    n_experts: int = 2
    max_src_frames: int = 3000
    max_tgt_tokens: int = 120

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for name in ("n_enc_layers", "n_dec_layers", "d_model", "d_ff", "n_heads",
                     "vocab_size", "n_mels", "max_src_frames", "max_tgt_tokens"):
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
        if self.n_experts < 1:
            raise ConfigError(f"n_experts must be >= 1, got {self.n_experts}")
        if self.d_ff_dec is not None and self.d_ff_dec <= 0:
            raise ConfigError(f"d_ff_dec must be positive, got {self.d_ff_dec}")

    @property
    def dec_ff(self) -> int:
        return self.d_ff if self.d_ff_dec is None else self.d_ff_dec

    @classmethod
    def toy(cls, vocab_size: int = 272, **overrides) -> "ModelConfig":
        base = dict(
            n_enc_layers=2, n_dec_layers=2, d_model=64, d_ff=128, n_heads=4,
            vocab_size=vocab_size,
        )
        base.update(overrides)
        return cls(**base)

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


CONFIG_TYPES = {
    "n_enc_layers": int, "n_dec_layers": int, "d_model": int, "d_ff": int,
    "d_ff_dec": "opt_int", "n_heads": int, "vocab_size": int, "n_mels": int,
    "dropout": float, "activation": str, "glu": "bool", "tied_embed": "bool",
    "enc_smoe": "bool", "dec_smoe": "bool", "n_experts": int,
    "max_src_frames": int, "max_tgt_tokens": int,
}


def parse_config_text(text: str, schema: dict) -> dict:
    """Parse flat `key = value` lines with # comments; unknown keys rejected."""
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
        kind = schema[key]
        try:
            if kind is int:
                out[key] = int(value)
            elif kind is float:
                out[key] = float(value)
            elif kind == "bool":
                if value not in ("true", "false"):
                    raise ValueError(value)
                out[key] = value == "true"
            elif kind == "opt_int":
                out[key] = None if value == "none" else int(value)
            else:
                out[key] = value
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


@dataclass(frozen=True)
class StackCount:
    """Parameters of one layer stack: per layer, attention, layer norms and
    `experts` copies of one FFN."""

    n_layers: int
    attn: int
    norms: int
    experts: int
    ffn: int

    @property
    def total(self) -> int:
        return self.n_layers * (self.attn + self.norms + self.experts * self.ffn)

    @property
    def inactive(self) -> int:
        """Expert copies one forward pass never touches under one-hot routing."""
        return self.n_layers * (self.experts - 1) * self.ffn


@dataclass
class ParamCount:
    trainable: int
    active: int
    parts: dict[str, int | StackCount] = field(default_factory=dict)  # component -> count

    def __post_init__(self):
        if self.active > self.trainable:
            raise ConfigError("active parameters cannot exceed trainable")


def count_params(config: ModelConfig) -> ParamCount:
    """Closed-form trainable/active parameter counts for a config, with the
    per-component breakdown they sum.

    Active counts what one forward pass touches under one-hot routing:
    trainable minus (n_experts - 1) expert copies per routed layer.
    """
    d, glu = config.d_model, config.glu
    attn = attention_param_count(d)
    ln = 2 * d
    enc = StackCount(
        config.n_enc_layers, attn, 2 * ln,
        config.n_experts if config.enc_smoe else 1, ffn_param_count(d, config.d_ff, glu),
    )
    dec = StackCount(
        config.n_dec_layers, 2 * attn, 3 * ln,
        config.n_experts if config.dec_smoe else 1, ffn_param_count(d, config.dec_ff, glu),
    )
    parts: dict[str, int | StackCount] = {"embedding": config.vocab_size * d}
    if not config.tied_embed:
        parts["output projection"] = d * config.vocab_size
    parts["input projection"] = config.n_mels * d + d
    parts["encoder layers"] = enc
    parts["decoder layers"] = dec
    parts["final norms"] = 2 * ln
    total = sum(p.total if isinstance(p, StackCount) else p for p in parts.values())
    return ParamCount(trainable=total, active=total - enc.inactive - dec.inactive, parts=parts)


class EncoderLayer:
    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        d = config.d_model
        self.attn = AttentionParams.init(d, config.n_heads, rng)
        self.ln_attn = LayerNormParams.init(d)
        self.ln_ffn = LayerNormParams.init(d)
        if config.enc_smoe:
            self.ffn: FFNParams | SMoELayer = SMoELayer(
                experts=[FFNParams.init(d, config.d_ff, config.glu, rng)
                         for _ in range(config.n_experts)]
            )
        else:
            self.ffn = FFNParams.init(d, config.d_ff, config.glu, rng)


class DecoderLayer:
    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        d = config.d_model
        self.self_attn = AttentionParams.init(d, config.n_heads, rng)
        self.cross_attn = AttentionParams.init(d, config.n_heads, rng)
        self.ln_self = LayerNormParams.init(d)
        self.ln_cross = LayerNormParams.init(d)
        self.ln_ffn = LayerNormParams.init(d)
        if config.dec_smoe:
            self.ffn: FFNParams | SMoELayer = SMoELayer(
                experts=[FFNParams.init(d, config.dec_ff, config.glu, rng)
                         for _ in range(config.n_experts)]
            )
        else:
            self.ffn = FFNParams.init(d, config.dec_ff, config.glu, rng)


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
        self.config = config
        init_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        d = config.d_model
        self.embed = Tensor(
            init_rng.normal(0.0, 1.0 / math.sqrt(d), size=(config.vocab_size, d)),
            requires_grad=True,
        )
        self.out_proj = None
        if not config.tied_embed:
            self.out_proj = Tensor(
                init_rng.normal(0.0, 1.0 / math.sqrt(d), size=(d, config.vocab_size)),
                requires_grad=True,
            )
        self.input_proj_w = Tensor(
            init_rng.normal(0.0, 1.0 / math.sqrt(config.n_mels), size=(config.n_mels, d)),
            requires_grad=True,
        )
        self.input_proj_b = Tensor(np.zeros(d), requires_grad=True)
        self.enc_layers = [EncoderLayer(config, init_rng) for _ in range(config.n_enc_layers)]
        self.dec_layers = [DecoderLayer(config, init_rng) for _ in range(config.n_dec_layers)]
        self.ln_enc_final = LayerNormParams.init(d)
        self.ln_dec_final = LayerNormParams.init(d)
        self.training = False
        self._dropout_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))

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
        out = []
        for i, layer in enumerate(self.enc_layers):
            if isinstance(layer.ffn, SMoELayer):
                out.append((f"enc.{i}.ffn", layer.ffn))
        for i, layer in enumerate(self.dec_layers):
            if isinstance(layer.ffn, SMoELayer):
                out.append((f"dec.{i}.ffn", layer.ffn))
        return out

    def reset_expert_counts(self) -> None:
        for _, bank in self.smoe_layers():
            bank.reset_counts()

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out: list[tuple[str, Tensor]] = [("embed", self.embed)]
        if self.out_proj is not None:
            out.append(("out_proj", self.out_proj))
        out.append(("input_proj.w", self.input_proj_w))
        out.append(("input_proj.b", self.input_proj_b))
        for i, layer in enumerate(self.enc_layers):
            p = f"enc.{i}."
            out.extend((p + "attn." + n, t) for n, t in layer.attn.tensors())
            out.extend((p + "ln_attn." + n, t) for n, t in layer.ln_attn.tensors())
            out.extend((p + "ln_ffn." + n, t) for n, t in layer.ln_ffn.tensors())
            out.extend((p + "ffn." + n, t) for n, t in layer.ffn.tensors())
        for i, layer in enumerate(self.dec_layers):
            p = f"dec.{i}."
            out.extend((p + "self_attn." + n, t) for n, t in layer.self_attn.tensors())
            out.extend((p + "cross_attn." + n, t) for n, t in layer.cross_attn.tensors())
            out.extend((p + "ln_self." + n, t) for n, t in layer.ln_self.tensors())
            out.extend((p + "ln_cross." + n, t) for n, t in layer.ln_cross.tensors())
            out.extend((p + "ln_ffn." + n, t) for n, t in layer.ln_ffn.tensors())
            out.extend((p + "ffn." + n, t) for n, t in layer.ffn.tensors())
        out.extend([("ln_enc_final." + n, t) for n, t in self.ln_enc_final.tensors()])
        out.extend([("ln_dec_final." + n, t) for n, t in self.ln_dec_final.tensors()])
        return out

    def parameter_count(self) -> int:
        return sum(t.size for _, t in self.named_parameters())

    # -- forward pieces ----------------------------------------------------

    def _sublayer_ffn(self, layer_ffn, gate: GateVector, x: Tensor) -> Tensor:
        if isinstance(layer_ffn, SMoELayer):
            return smoe_forward(layer_ffn, gate, x, activation=self.config.activation)
        return ffn_forward(layer_ffn, x, activation=self.config.activation)

    def encode(self, features: FbankFeatures, bw: Bandwidth) -> Tensor:
        cfg = self.config
        frames = features.frames.data
        if frames.shape[0] > cfg.max_src_frames:
            raise LimitError(
                f"{frames.shape[0]} frames exceeds max_src_frames {cfg.max_src_frames}"
            )
        if frames.shape[1] != cfg.n_mels:
            raise ConfigError(f"features have {frames.shape[1]} mels, config wants {cfg.n_mels}")
        # per-utterance global normalization keeps log-mel magnitudes sane
        # without erasing the relative band structure
        mean = frames.mean()
        std = max(frames.std(), 1e-8)
        x = constant((frames - mean) / std)
        x = add(matmul(x, self.input_proj_w), self.input_proj_b)
        x = add(x, sinusoidal_positions(frames.shape[0], cfg.d_model))
        x = dropout(x, cfg.dropout, self._dropout_rng, self.training)
        gate = gate_encoder(bw)
        for layer in self.enc_layers:
            x = pre_norm_residual(
                lambda h: attention_forward(layer.attn, h, h, h, None),
                layer.ln_attn, x, cfg.dropout, self._dropout_rng, self.training,
            )
            x = pre_norm_residual(
                lambda h: self._sublayer_ffn(layer.ffn, gate, h),
                layer.ln_ffn, x, cfg.dropout, self._dropout_rng, self.training,
            )
        return layer_norm_params(self.ln_enc_final, x)

    def decode(self, enc_out: Tensor, ids: list[int], task: Task) -> Tensor:
        cfg = self.config
        t = len(ids)
        if t > cfg.max_tgt_tokens:
            raise LimitError(f"{t} target tokens exceeds max_tgt_tokens {cfg.max_tgt_tokens}")
        x = scale(embedding(self.embed, ids), math.sqrt(cfg.d_model))
        x = add(x, sinusoidal_positions(t, cfg.d_model))
        x = dropout(x, cfg.dropout, self._dropout_rng, self.training)
        gate = gate_decoder(task)
        mask = causal_mask(t)
        for layer in self.dec_layers:
            x = pre_norm_residual(
                lambda h: attention_forward(layer.self_attn, h, h, h, mask),
                layer.ln_self, x, cfg.dropout, self._dropout_rng, self.training,
            )
            x = pre_norm_residual(
                lambda h: attention_forward(layer.cross_attn, h, enc_out, enc_out, None),
                layer.ln_cross, x, cfg.dropout, self._dropout_rng, self.training,
            )
            x = pre_norm_residual(
                lambda h: self._sublayer_ffn(layer.ffn, gate, h),
                layer.ln_ffn, x, cfg.dropout, self._dropout_rng, self.training,
            )
        x = layer_norm_params(self.ln_dec_final, x)
        if self.out_proj is not None:
            return matmul(x, self.out_proj)
        return matmul(x, transpose2d(self.embed))

    def forward(
        self, features: FbankFeatures, bw: Bandwidth, target: TargetSequence
    ) -> Tensor:
        """Teacher-forced logits [len(target.ids) x vocab]."""
        enc_out = self.encode(features, bw)
        return self.decode(enc_out, target.ids, target.task)

    # -- greedy decoding ----------------------------------------------------

    def _greedy_row(
        self, enc_out: Tensor, task: Task, language: Language, max_len: int
    ) -> SingleDecode:
        prefix = [int(TASK_TOKEN[task]), int(LANGUAGE_TOKEN[language]), int(GuidingToken.BOS)]
        ids = list(prefix)
        generated: list[int] = []
        for _ in range(max_len):
            logits = self.decode(enc_out, ids, task)
            next_id = int(np.argmax(logits.data[-1]))
            generated.append(next_id)
            ids.append(next_id)
            if next_id == GuidingToken.EOS:
                return SingleDecode(ids=generated, truncated=False)
        return SingleDecode(ids=generated, truncated=True)

    def infer_single(
        self,
        features: FbankFeatures,
        bw: Bandwidth,
        task: Task,
        max_len: int = 64,
        language: Language | None = None,
    ) -> SingleDecode:
        if language is None:
            language = TASK_LANGUAGE[task]
        enc_out = self.encode(features, bw)
        return self._greedy_row(enc_out, task, language, max_len)

    def infer_dual(
        self, features: FbankFeatures, bw: Bandwidth, max_len: int = 64
    ) -> DualDecode:
        """One encoder pass shared by two greedy decodes: the transcription
        row routes to the ASR expert, the translation row to the ST expert.
        The rows never interact, so each is exactly the single-task decode
        of its task."""
        enc_out = self.encode(features, bw)
        asr = self._greedy_row(enc_out, Task.ASR, TASK_LANGUAGE[Task.ASR], max_len)
        st = self._greedy_row(enc_out, Task.ST, TASK_LANGUAGE[Task.ST], max_len)
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

    Every tensor is a deep copy of the donor tensor of the same name; a
    newly routed `...ffn.expertK.x` copies the donor's shared `...ffn.x`.
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
    out = Model(new_cfg, seed=0)
    source = dict(donor.named_parameters())
    for name, tensor in out.named_parameters():
        if name not in source:
            name = re.sub(r"\.ffn\.expert\d+\.", ".ffn.", name)
        tensor.data = source[name].data.copy()
    return out


# -- checkpoint format --------------------------------------------------------
#
#   magic "SMOE" | u32 version | u64 step
#   u32 config byte length | config text (key = value lines)
#   u32 entry count
#   per entry: u32 name length | name | u32 rank | rank * u64 dims | float64 data
#
# all integers little-endian, parameter payloads little-endian float64.


def save_checkpoint(model: Model, path: str | Path, step: int = 0) -> None:
    params = model.named_parameters()
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<I", CHECKPOINT_VERSION)
    blob += struct.pack("<Q", step)
    cfg_bytes = model.config.to_text().encode("utf-8")
    blob += struct.pack("<I", len(cfg_bytes))
    blob += cfg_bytes
    blob += struct.pack("<I", len(params))
    for name, tensor in params:
        name_b = name.encode("utf-8")
        blob += struct.pack("<I", len(name_b))
        blob += name_b
        shape = tensor.data.shape
        blob += struct.pack("<I", len(shape))
        for dim in shape:
            blob += struct.pack("<Q", dim)
        blob += np.ascontiguousarray(tensor.data, dtype="<f8").tobytes()
    Path(path).write_bytes(bytes(blob))


def load_checkpoint(path: str | Path) -> tuple[Model, int]:
    """Rebuild a model from a checkpoint; fails closed on any corruption."""
    raw = Path(path).read_bytes()
    view = memoryview(raw)
    off = 0

    def take(n: int) -> memoryview:
        nonlocal off
        if off + n > len(raw):
            raise FormatError(f"truncated checkpoint {path} at byte {off}")
        chunk = view[off : off + n]
        off += n
        return chunk

    def take_text(n: int) -> str:
        try:
            return bytes(take(n)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"non-UTF-8 text at byte {off - n} of {path}") from exc

    if bytes(take(4)) != CHECKPOINT_MAGIC:
        raise FormatError(f"bad magic in {path}")
    (version,) = struct.unpack("<I", take(4))
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version} in {path}")
    (step,) = struct.unpack("<Q", take(8))
    (cfg_len,) = struct.unpack("<I", take(4))
    try:
        config = ModelConfig.from_text(take_text(cfg_len))
    except ConfigError as exc:
        raise FormatError(f"bad config block in {path}: {exc}") from exc
    (n_entries,) = struct.unpack("<I", take(4))

    model = Model(config, seed=0)
    expected = dict(model.named_parameters())
    if n_entries != len(expected):
        raise FormatError(
            f"checkpoint has {n_entries} entries, config implies {len(expected)}"
        )
    seen = set()
    for _ in range(n_entries):
        (name_len,) = struct.unpack("<I", take(4))
        name = take_text(name_len)
        if name not in expected:
            raise FormatError(f"unknown parameter entry {name!r}")
        if name in seen:
            raise FormatError(f"duplicate parameter entry {name!r}")
        seen.add(name)
        (rank,) = struct.unpack("<I", take(4))
        dims = tuple(struct.unpack("<Q", take(8))[0] for _ in range(rank))
        tensor = expected[name]
        if dims != tensor.data.shape:
            raise FormatError(
                f"entry {name!r} has shape {dims}, config implies {tensor.data.shape}"
            )
        count = int(np.prod(dims)) if dims else 1
        data = np.frombuffer(take(8 * count), dtype="<f8").reshape(dims)
        tensor.data = data.astype(np.float64).copy()
    if off != len(raw):
        raise FormatError(f"{len(raw) - off} trailing bytes in {path}")
    return model, step

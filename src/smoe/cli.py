"""Command-line interface.

Subcommands: datagen, train, finetune-nbwb, eval, infer, inspect,
gradcheck, benchmark. One flat `key = value` config namespace feeds model,
training, and data settings; `--set key=value` overrides apply after the
config file. Every command that writes outputs drops a resolved-config
snapshot (config.resolved) beside them.

Exit codes: 0 success, 1 config error, 2 checkpoint error, 3 input error,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .data import SyntheticTaskSpec, generate_dataset_files, load_dataset
from .errors import (
    AudioError,
    ConfigError,
    ContractError,
    FormatError,
    LimitError,
    NumericError,
    SequenceError,
)
from .metrics import bleu, corpus_token_accuracy, wer
from .model import (
    CONFIG_TYPES,
    Model,
    ModelConfig,
    checkpoint_config,
    count_params,
    format_value,
    load_checkpoint,
    parse_config_text,
    save_checkpoint,
)
from .moe import N_EXPERTS, Bandwidth, Task
from .numerics import grad_check
from .seqio import Vocabulary
from .signal import N_MELS, fbank, read_wav
from .train import (
    TrainConfig,
    decode_pairs,
    decode_payload_symbols,
    finetune_nbwb,
    run_interference_benchmark,
    run_training,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CHECKPOINT = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# -- flat config namespace ----------------------------------------------------

# the training keys are TrainConfig's fields but its seed, which --seed sets
TRAIN_KEYS = {key: kind for key, kind in get_type_hints(TrainConfig).items() if key != "seed"}
DATA_KEYS = {
    "n_items": int, "nbwb_mix_fraction": float, "symbols_min": int, "symbols_max": int,
    "n_merges": int,
}
BENCH_KEYS = {
    "budget_steps": int, "n_seeds": int, "n_train_inputs": int, "n_eval_inputs": int,
}
EXTRA_KEYS = {"preset": str, "max_decode_len": int}
SCHEMA = {**CONFIG_TYPES, **TRAIN_KEYS, **DATA_KEYS, **BENCH_KEYS, **EXTRA_KEYS}

DEFAULTS = {
    "preset": "toy",
    **{f.name: f.default for f in fields(TrainConfig) if f.name in TRAIN_KEYS},
    "n_items": 100, "nbwb_mix_fraction": 0.15, "symbols_min": 3, "symbols_max": 5, "n_merges": 0,
    "budget_steps": 500, "n_seeds": 3, "n_train_inputs": 768, "n_eval_inputs": 32,
    "max_decode_len": 16,
}


def _parse_settings(text: str, source: str) -> dict:
    try:
        return parse_config_text(text, SCHEMA)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def resolve_settings(config_path: str | None, overrides: list[str]) -> dict:
    settings = dict(DEFAULTS)
    if config_path:
        settings.update(_parse_settings(_read_text(config_path), config_path))
    for item in overrides:
        parsed = _parse_settings(item, "--set")
        if len(parsed) != 1:
            raise ConfigError(f"--set needs one key=value, got {item!r}")
        settings.update(parsed)
    return settings


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def build_model_config(settings: dict, vocab_size: int | None = None) -> ModelConfig:
    preset = settings.get("preset", "toy")
    if preset == "toy":
        cfg = ModelConfig.toy()
    elif preset == "paper":
        cfg = ModelConfig.paper_scale()
    else:
        raise ConfigError(f"unknown preset {preset!r} (use toy or paper)")
    overrides = {key: settings[key] for key in CONFIG_TYPES if key in settings}
    if vocab_size is not None:
        overrides["vocab_size"] = vocab_size
    return replace(cfg, **overrides)


def build_train_config(settings: dict, seed: int) -> TrainConfig:
    return TrainConfig(seed=seed, **{key: settings[key] for key in TRAIN_KEYS})


def write_snapshot(out_dir: Path, settings: dict, seed: int) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"seed = {seed}"] + [f"{k} = {format_value(settings[k])}" for k in sorted(settings)]
    (out_dir / "config.resolved").write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- shared loading helpers -----------------------------------------------------


def _read_checkpoint(read, path: str):
    """read(path), with a missing or bad checkpoint turned into exit code 2."""
    p = Path(path)
    if not p.exists():
        raise CliError(EXIT_CHECKPOINT, f"checkpoint not found: {path}")
    try:
        return read(p)
    except (FormatError, OSError) as exc:
        raise CliError(EXIT_CHECKPOINT, f"bad checkpoint: {exc}") from exc


def _load_vocab(vocab_arg: str | None, ckpt_path: str | None) -> Vocabulary:
    if vocab_arg:
        path = Path(vocab_arg)
    elif ckpt_path:
        path = Path(ckpt_path).parent / "vocab.txt"
    else:
        return Vocabulary()
    if not path.exists():
        raise CliError(EXIT_INPUT, f"vocabulary not found at {path}")
    try:
        return Vocabulary.load(path)
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"cannot read vocabulary {path}: {exc}") from exc


def _load_audio(path: str):
    p = Path(path)
    if not p.exists():
        raise CliError(EXIT_INPUT, f"audio file not found: {path}")
    try:
        wave = read_wav(p)
        return fbank(wave)
    except (FormatError, AudioError, LimitError, OSError) as exc:
        raise CliError(EXIT_INPUT, f"bad audio {path}: {exc}") from exc


def _load_items(data_dir: str, vocab: Vocabulary):
    manifest = Path(data_dir) / "manifest.tsv"
    if not manifest.exists():
        raise CliError(EXIT_INPUT, f"manifest not found: {manifest}")
    try:
        return load_dataset(manifest, vocab)
    except (FormatError, AudioError, OSError) as exc:
        raise CliError(EXIT_INPUT, f"bad dataset: {exc}") from exc


# -- subcommands ----------------------------------------------------------------


def cmd_datagen(args, settings: dict) -> int:
    out = Path(args.out)
    manifest = generate_dataset_files(
        out,
        n_items=settings["n_items"],
        nbwb_mix_fraction=settings["nbwb_mix_fraction"],
        seed=args.seed,
        min_len=settings["symbols_min"],
        max_len=settings["symbols_max"],
        n_merges=settings["n_merges"],
    )
    write_snapshot(out, settings, args.seed)
    print(f"wrote {manifest}")
    return EXIT_OK


def cmd_train(args, settings: dict) -> int:
    vocab = _load_vocab(str(Path(args.data) / "vocab.txt"), None)
    items = _load_items(args.data, vocab)
    cfg = build_model_config(settings, vocab_size=vocab.size)
    model = Model(cfg, seed=args.seed)
    tc = build_train_config(settings, args.seed)
    log_lines: list[str] = []
    losses = run_training(model, items, tc, log_lines=log_lines)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, out / "model.ckpt", step=tc.steps)
    vocab.save(out / "vocab.txt")
    (out / "metrics.log").write_text("\n".join(log_lines) + "\n", encoding="utf-8")
    write_snapshot(out, settings, args.seed)
    print(f"trained {tc.steps} steps, final loss {losses[-1]:.5f}")
    print(f"wrote {out / 'model.ckpt'}")
    return EXIT_OK


def cmd_finetune_nbwb(args, settings: dict) -> int:
    donor, _ = _read_checkpoint(load_checkpoint, args.ckpt)
    vocab = _load_vocab(args.vocab, args.ckpt)
    items = _load_items(args.data, vocab)
    tc = build_train_config(settings, args.seed)
    log_lines: list[str] = []
    model = finetune_nbwb(donor, items, tc, log_lines=log_lines)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, out / "model.ckpt", step=tc.steps)
    vocab.save(out / "vocab.txt")
    (out / "metrics.log").write_text("\n".join(log_lines) + "\n", encoding="utf-8")
    write_snapshot(out, settings, args.seed)
    print(f"wrote {out / 'model.ckpt'} (encoder experts: "
          f"{N_EXPERTS}, routing on)")
    return EXIT_OK


def cmd_eval(args, settings: dict) -> int:
    model, _ = _read_checkpoint(load_checkpoint, args.ckpt)
    vocab = _load_vocab(args.vocab, args.ckpt)
    items = _load_items(args.data, vocab)
    per_task = decode_pairs(model, items, vocab, settings["max_decode_len"])
    for task, pairs in per_task.items():
        if not pairs:
            continue
        acc = corpus_token_accuracy(pairs)
        rates = [wer(r, h)[0] for r, h in pairs]
        line = f"{task.value}: n={len(pairs)} token_acc={acc:.4f} wer={np.mean(rates):.4f}"
        if task is Task.ST:
            scores = [bleu([r], h) for r, h in pairs]
            line += f" bleu={np.mean(scores):.2f}"
        print(line)
    return EXIT_OK


def cmd_infer(args, settings: dict) -> int:
    model, _ = _read_checkpoint(load_checkpoint, args.ckpt)
    vocab = _load_vocab(args.vocab, args.ckpt)
    feats = _load_audio(args.audio)
    model.eval()
    max_len = settings["max_decode_len"]
    bw = feats.bandwidth
    if args.single_task:
        task = Task.ASR if args.single_task == "asr" else Task.ST
        result = model.infer_single(feats, bw, task, max_len=max_len)
        text = "".join(decode_payload_symbols(result.ids, vocab))
        print(f"{task.value}: {text}")
        return EXIT_OK
    dual = model.infer_dual(feats, bw, max_len=max_len)
    asr_text = "".join(decode_payload_symbols(dual.asr_ids, vocab))
    st_text = "".join(decode_payload_symbols(dual.st_ids, vocab))
    print(f"ASR: {asr_text}")
    print(f"ST: {st_text}")
    return EXIT_OK


def cmd_inspect(args, settings: dict) -> int:
    if args.ckpt:
        cfg, _ = _read_checkpoint(checkpoint_config, args.ckpt)
    else:
        cfg = build_model_config(settings)
    pc = count_params(cfg)
    print(f"trainable = {pc.trainable}")
    print(f"active    = {pc.active}")
    for name, total in pc.parts.items():
        s = pc.layers.get(name)
        bracket = (f"  ({s.n_layers} x [attn {s.attn} + norms {s.norms} + "
                   f"{s.copies} x ffn {s.ffn}])" if s else "")
        print(f"{name:<20}{total:>12d}{bracket}")
    dup = pc.trainable - pc.active
    print(f"expert duplication: {dup} parameters held by non-routed expert copies")
    return EXIT_OK


def cmd_gradcheck(args, settings: dict) -> int:
    settings = dict(settings, dropout=0.0)  # finite differences need a deterministic loss
    cfg = build_model_config(settings)
    model = Model(cfg, seed=args.seed)
    model.train()
    rng = np.random.default_rng(args.seed)
    from .numerics import constant
    from .seqio import GuidingToken
    from .signal import FbankFeatures
    from .train import shifted_targets
    from .numerics import softmax_cross_entropy

    feats = FbankFeatures(frames=constant(rng.normal(size=(6, N_MELS))), bandwidth=Bandwidth.WB)
    ids = [3, 6, 1, 20, 21, 22, 2]  # transcribe, ko, bos, payload, eos

    def f():
        logits = model.decode(model.encode(feats, Bandwidth.WB), ids, Task.ASR)
        return softmax_cross_entropy(logits, shifted_targets(ids), ignore_id=int(GuidingToken.PAD))

    report = grad_check(
        f, model.named_parameters(), step=1e-5, tolerance=args.tolerance,
        max_coords_per_param=args.coords, rng=np.random.default_rng(0),
    )
    print(report.summary())
    print(f"max relative error: {report.max_rel_err:.3e} (tolerance {args.tolerance:g})")
    if not report.passed:
        raise CliError(EXIT_NUMERIC, "gradient check failed")
    print("gradient check passed")
    return EXIT_OK


def cmd_benchmark(args, settings: dict) -> int:
    vocab = Vocabulary()
    base = build_model_config(settings, vocab_size=vocab.size)
    if base.dec_smoe:
        raise ConfigError("benchmark derives its variants; start from a plain decoder config")
    configs = {
        "base": base,
        "dec_ffn_x2": replace(base, d_ff_dec=2 * base.dec_ff),
        "dec_smoe": replace(base, dec_smoe=True),
    }
    seeds = [args.seed + i for i in range(settings["n_seeds"])]
    tc = build_train_config(settings, args.seed)
    result = run_interference_benchmark(
        SyntheticTaskSpec.default(),
        configs,
        budget_steps=settings["budget_steps"],
        seeds=seeds,
        n_train_inputs=settings["n_train_inputs"],
        n_eval_inputs=settings["n_eval_inputs"],
        train_config=tc,
    )
    print(result.report(), end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.tsv").write_text(result.report(), encoding="utf-8")
        (out / "benchmark.log").write_text("\n".join(result.log_lines) + "\n", encoding="utf-8")
        write_snapshot(out, settings, args.seed)
        print(f"wrote {out / 'report.tsv'}")
    if not result.control_ok:
        print("warning: single-task control below 99%; the task spec is too hard "
              "for this budget", file=sys.stderr)
    return EXIT_OK


# -- argument parsing -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoe",
        description="Desk-scale speech-to-text transformer with supervised expert routing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=False):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=out_required, help="output directory")

    p = sub.add_parser("datagen", help="generate a synthetic WAV dataset + manifest")
    common(p, out_required=True)

    p = sub.add_parser("train", help="train a model on a datagen directory")
    common(p, out_required=True)
    p.add_argument("--data", required=True, help="datagen output directory")

    p = sub.add_parser("finetune-nbwb", help="expand encoder experts and fine-tune on NB/WB data")
    common(p, out_required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--vocab")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--vocab")

    p = sub.add_parser("infer", help="transcribe and translate one WAV file")
    common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--vocab")
    p.add_argument("--single-task", choices=["asr", "st"])
    p.add_argument("audio", help="16-bit mono WAV at 8 or 16 kHz")

    p = sub.add_parser("inspect", help="print trainable/active parameter accounting")
    common(p)
    p.add_argument("--ckpt")

    p = sub.add_parser("gradcheck", help="finite-difference check of model gradients")
    common(p)
    p.add_argument("--tolerance", type=float, default=1e-3)
    p.add_argument("--coords", type=int, default=6,
                   help="sampled coordinates per parameter tensor")

    p = sub.add_parser("benchmark", help="task-interference comparison: base vs FFNx2 vs routed")
    common(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = resolve_settings(args.config, args.set)
        handler = {
            "datagen": cmd_datagen,
            "train": cmd_train,
            "finetune-nbwb": cmd_finetune_nbwb,
            "eval": cmd_eval,
            "infer": cmd_infer,
            "inspect": cmd_inspect,
            "gradcheck": cmd_gradcheck,
            "benchmark": cmd_benchmark,
        }[args.command]
        return handler(args, settings)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SequenceError, AudioError, LimitError, FormatError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericError, ContractError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

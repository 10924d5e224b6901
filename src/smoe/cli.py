"""Command-line interface.

Subcommands: datagen, train, finetune-nbwb, eval, infer, inspect,
gradcheck, benchmark. One flat `key = value` config namespace feeds model,
training, and data settings; `--set key=value` overrides apply after the
config file. Every command that writes outputs drops a resolved-config
snapshot (config.resolved) beside them.

Exit codes: 0 success, and for a failure the code EXIT_CODES gives its
exception type: 1 config error, 2 checkpoint error, 3 input error (any
unreadable or unwritable file included), 4 numeric failure.
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
    CheckpointError,
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
from .numerics import constant, grad_check, softmax_cross_entropy
from .seqio import GuidingToken, Vocabulary, guiding_prefix
from .signal import N_MELS, FbankFeatures, fbank, read_wav
from .train import (
    TrainConfig,
    decode_pairs,
    decode_payload_symbols,
    finetune_nbwb,
    run_interference_benchmark,
    run_training,
    shifted_targets,
)

EXIT_OK = 0
# the exit code and label of every failure, by exception type; the first
# matching row wins, so CheckpointError (a FormatError) comes before row 3
EXIT_CODES = (
    (ConfigError, 1, "config error"),
    (CheckpointError, 2, "checkpoint error"),
    ((SequenceError, AudioError, LimitError, FormatError, OSError), 3, "input error"),
    ((NumericError, ContractError), 4, "numeric error"),
)


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
    if settings["max_decode_len"] < 1:
        raise ConfigError(f"max_decode_len must be >= 1, got {settings['max_decode_len']}")
    return settings


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def build_model_config(settings: dict, vocab_size: int | None = None) -> ModelConfig:
    presets = {"toy": ModelConfig, "paper": ModelConfig.paper_scale}
    preset = settings.get("preset", "toy")
    if preset not in presets:
        raise ConfigError(f"unknown preset {preset!r} (use toy or paper)")
    overrides = {key: settings[key] for key in CONFIG_TYPES if key in settings}
    if vocab_size is not None:
        overrides["vocab_size"] = vocab_size
    return replace(presets[preset](), **overrides)


def build_train_config(settings: dict, seed: int) -> TrainConfig:
    return TrainConfig(seed=seed, **{key: settings[key] for key in TRAIN_KEYS})


def write_snapshot(out_dir: Path, settings: dict, seed: int) -> None:
    """config.resolved: every setting as a config line, so the file replays
    through --config; the seed is a comment, as --seed sets it."""
    lines = [f"# seed = {seed}"] + [f"{k} = {format_value(settings[k])}" for k in sorted(settings)]
    (out_dir / "config.resolved").write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- shared loading helpers -----------------------------------------------------


def _load_model(args) -> tuple[Model, Vocabulary]:
    """The checkpoint's model and the vocabulary it decodes with: --vocab,
    or vocab.txt beside the checkpoint. Their id counts must agree."""
    model, _ = load_checkpoint(args.ckpt)
    vocab = Vocabulary.load(args.vocab or Path(args.ckpt).parent / "vocab.txt")
    if vocab.size != model.config.vocab_size:
        raise FormatError(f"vocabulary has {vocab.size} ids, checkpoint {args.ckpt} has "
                          f"vocab_size {model.config.vocab_size}")
    return model, vocab


def _decode_len(settings: dict, cfg: ModelConfig) -> int:
    """max_decode_len, if a decode that long fits the checkpoint's
    max_tgt_tokens: the three guiding ids and every emitted id but the last."""
    if settings["max_decode_len"] > cfg.max_decode_len:
        raise ConfigError(f"max_decode_len {settings['max_decode_len']} exceeds the "
                          f"checkpoint's max_tgt_tokens {cfg.max_tgt_tokens} - 2")
    return settings["max_decode_len"]


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
    tc = build_train_config(settings, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    vocab = Vocabulary.load(Path(args.data) / "vocab.txt")
    items = load_dataset(Path(args.data) / "manifest.tsv", vocab)
    cfg = build_model_config(settings, vocab_size=vocab.size)
    model = Model(cfg, seed=args.seed)
    log_lines: list[str] = []
    losses = run_training(model, items, tc, log_lines=log_lines)
    save_checkpoint(model, out / "model.ckpt", step=tc.steps)
    vocab.save(out / "vocab.txt")
    (out / "metrics.log").write_text("\n".join(log_lines) + "\n", encoding="utf-8")
    write_snapshot(out, settings, args.seed)
    print(f"trained {tc.steps} steps, final loss {losses[-1]:.5f}")
    print(f"wrote {out / 'model.ckpt'}")
    return EXIT_OK


def cmd_finetune_nbwb(args, settings: dict) -> int:
    tc = build_train_config(settings, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    donor, vocab = _load_model(args)
    items = load_dataset(Path(args.data) / "manifest.tsv", vocab)
    log_lines: list[str] = []
    model = finetune_nbwb(donor, items, tc, log_lines=log_lines)
    save_checkpoint(model, out / "model.ckpt", step=tc.steps)
    vocab.save(out / "vocab.txt")
    (out / "metrics.log").write_text("\n".join(log_lines) + "\n", encoding="utf-8")
    write_snapshot(out, settings, args.seed)
    print(f"wrote {out / 'model.ckpt'} (encoder experts: "
          f"{N_EXPERTS}, routing on)")
    return EXIT_OK


def cmd_eval(args, settings: dict) -> int:
    model, vocab = _load_model(args)
    max_len = _decode_len(settings, model.config)
    items = load_dataset(Path(args.data) / "manifest.tsv", vocab)
    per_task = decode_pairs(model, items, vocab, max_len)
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
    model, vocab = _load_model(args)
    max_len = _decode_len(settings, model.config)
    feats = fbank(read_wav(args.audio))
    model.eval()
    bw = feats.bandwidth
    if args.single_task:
        task = Task.ASR if args.single_task == "asr" else Task.ST
        decoded = {task: model.infer_single(feats, bw, task, max_len=max_len).ids}
    else:
        dual = model.infer_dual(feats, bw, max_len=max_len)
        decoded = {Task.ASR: dual.asr_ids, Task.ST: dual.st_ids}
    for task, ids in decoded.items():
        print(f"{task.value}: {''.join(decode_payload_symbols(ids, vocab))}")
    return EXIT_OK


def cmd_inspect(args, settings: dict) -> int:
    if args.ckpt:
        cfg, _ = checkpoint_config(args.ckpt)
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
    if args.coords < 1 or not 0 < args.tolerance < np.inf:
        raise ConfigError("gradcheck needs --coords >= 1 and a finite --tolerance > 0")
    settings = dict(settings, dropout=0.0)  # finite differences need a deterministic loss
    cfg = build_model_config(settings)
    ids = [*guiding_prefix(Task.ASR), 20, 21, 22, int(GuidingToken.EOS)]
    if max(ids) >= cfg.vocab_size or len(ids) > cfg.max_tgt_tokens or cfg.max_src_frames < 6:
        raise ConfigError(f"gradcheck decodes {len(ids)} ids up to {max(ids)} over 6 frames, "
                          "more than vocab_size, max_tgt_tokens or max_src_frames allows")
    model = Model(cfg, seed=args.seed)
    model.train()
    rng = np.random.default_rng(args.seed)
    feats = FbankFeatures(frames=constant(rng.normal(size=(6, N_MELS))), bandwidth=Bandwidth.WB)

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
        raise NumericError("gradient check failed")
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
    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
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
    if out:
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
    except Exception as exc:
        for kinds, code, label in EXIT_CODES:
            if isinstance(exc, kinds):
                print(f"{label}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())

import contextlib
import io
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smoe.cli
import smoe.model
import smoe.train
from smoe.cli import DEFAULTS, TRAIN_KEYS, build_train_config, main
from smoe.data import generate_dataset_files, read_manifest, write_manifest
from smoe.errors import ConfigError
from smoe.model import Model, ModelConfig, load_checkpoint, save_checkpoint
from smoe.moe import Bandwidth, Task
from smoe.seqio import GuidingToken, Vocabulary
from smoe.signal import SAMPLE_RATE_NB, SAMPLE_RATE_WB, Waveform, write_wav


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """datagen + a short training run shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    run = root / "run"
    assert main([
        "datagen", "--out", str(data), "--seed", "3",
        "--set", "n_items=24", "--set", "symbols_min=3", "--set", "symbols_max=3",
        "--set", "nbwb_mix_fraction=0.25",
    ]) == 0
    assert main([
        "train", "--data", str(data), "--out", str(run), "--seed", "3",
        "--set", "steps=40", "--set", "d_model=32", "--set", "d_ff=32",
        "--set", "n_enc_layers=1", "--set", "n_dec_layers=1", "--set", "n_heads=2",
        "--set", "dropout=0.0",
    ]) == 0
    return root


def test_datagen_counts_and_snapshot(workspace):
    data = workspace / "data"
    records = read_manifest(data / "manifest.tsv")
    wb = [r for r in records if r.bandwidth is Bandwidth.WB]
    nb = [r for r in records if r.bandwidth is Bandwidth.NB]
    assert len(wb) == 24
    assert len(nb) == 6  # round(0.25 * 24)
    # the manifest is the one map from audio to text
    assert sorted(p.name for p in data.iterdir()) == [
        "config.resolved", "manifest.tsv", "vocab.txt", "wavs"]
    assert len(list((data / "wavs").iterdir())) == len(records)
    assert "n_items = 24" in (data / "config.resolved").read_text()


def test_datagen_deterministic(tmp_path):
    for sub in ("a", "b"):
        assert main([
            "datagen", "--out", str(tmp_path / sub), "--seed", "9",
            "--set", "n_items=6",
        ]) == 0
    m1 = (tmp_path / "a" / "manifest.tsv").read_bytes()
    m2 = (tmp_path / "b" / "manifest.tsv").read_bytes()
    assert m1 == m2


def test_train_outputs(workspace):
    run = workspace / "run"
    assert (run / "model.ckpt").exists()
    assert (run / "vocab.txt").exists()
    assert (run / "config.resolved").exists()
    log = (run / "metrics.log").read_text().splitlines()
    assert len(log) == 40
    assert log[0].startswith("step=0 task=A lr=")
    model, step = load_checkpoint(run / "model.ckpt")
    assert step == 40


def test_train_on_a_one_task_dataset_trains_that_task(tmp_path):
    data = tmp_path / "data"
    manifest = generate_dataset_files(data, n_items=3, nbwb_mix_fraction=0.0, seed=0)
    write_manifest(manifest, [r for r in read_manifest(manifest) if r.task is Task.ST])
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "run"),
                 "--set", "steps=4", "--set", "batch_size=2"]) == 0
    log = (tmp_path / "run" / "metrics.log").read_text().splitlines()
    assert [line.split()[1] for line in log] == ["task=S"] * 4


def test_train_on_mislabelled_records_in_both_halves_names_the_earlier(tmp_path, capsys):
    # load_dataset maps the manifest's halves on two threads; the upper half
    # reaches its bad first record before the lower half reaches its last
    data = tmp_path / "data"
    manifest = generate_dataset_files(data, n_items=6, nbwb_mix_fraction=0.0, seed=0)
    records = read_manifest(manifest)
    for i in (2, 3):
        records[i] = replace(records[i], bandwidth=Bandwidth.NB)
    write_manifest(manifest, records)
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "run"),
                 "--set", "steps=1"]) == 3
    err = capsys.readouterr().err
    assert "wavs/item_00002_wb.wav: manifest says NB, file is WB" in err
    assert "item_00003" not in err


def test_infer_dual_and_single_consistent(workspace, capsys):
    run = workspace / "run"
    wav = sorted((workspace / "data" / "wavs").glob("*.wav"))[0]
    assert main(["infer", "--ckpt", str(run / "model.ckpt"), str(wav)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("ASR: ")
    assert out[1].startswith("ST: ")
    assert main([
        "infer", "--ckpt", str(run / "model.ckpt"), "--single-task", "asr", str(wav)
    ]) == 0
    single = capsys.readouterr().out.splitlines()[0]
    assert single == out[0]


def test_infer_missing_audio_exit_3(workspace, capsys):
    run = workspace / "run"
    assert main(["infer", "--ckpt", str(run / "model.ckpt"), "/nonexistent.wav"]) == 3
    assert capsys.readouterr().out == ""  # fail closed: no partial output


def test_infer_malformed_audio_exit_3(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"not a wav at all")
    run = workspace / "run"
    assert main(["infer", "--ckpt", str(run / "model.ckpt"), str(bad)]) == 3
    capsys.readouterr()


def test_missing_checkpoint_exit_2(workspace, capsys):
    wav = sorted((workspace / "data" / "wavs").glob("*.wav"))[0]
    assert main(["infer", "--ckpt", "/no/such.ckpt", str(wav)]) == 2
    capsys.readouterr()


def test_corrupt_checkpoint_exit_2(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"JUNKJUNKJUNK")
    wav = sorted((workspace / "data" / "wavs").glob("*.wav"))[0]
    assert main(["infer", "--ckpt", str(bad), str(wav)]) == 2
    capsys.readouterr()


def test_unknown_config_key_exit_1(capsys):
    assert main(["inspect", "--set", "not_a_key=3"]) == 1
    capsys.readouterr()


def test_eval_runs(workspace, capsys):
    run = workspace / "run"
    assert main([
        "eval", "--ckpt", str(run / "model.ckpt"), "--data", str(workspace / "data"),
    ]) == 0
    out = capsys.readouterr().out
    assert "ASR:" in out and "ST:" in out and "bleu=" in out


def test_inspect_baseline_vs_smoe(capsys):
    assert main(["inspect", "--set", "preset=toy"]) == 0
    base_out = capsys.readouterr().out
    base_trainable = int(base_out.splitlines()[0].split("=")[1])
    base_active = int(base_out.splitlines()[1].split("=")[1])
    assert base_trainable == base_active

    assert main(["inspect", "--set", "preset=toy", "--set", "dec_smoe=true"]) == 0
    smoe_out = capsys.readouterr().out
    smoe_active = int(smoe_out.splitlines()[1].split("=")[1])
    assert smoe_active == base_trainable


def test_inspect_output_is_pinned(capsys):
    assert main(["inspect", "--set", "preset=toy", "--set", "dec_smoe=true"]) == 0
    assert capsys.readouterr().out == (
        "trainable = 273344\n"
        "active    = 223552\n"
        "embedding                  17408\n"
        "input projection            5184\n"
        "encoder layers             83584  (2 x [attn 16640 + norms 256 + 1 x ffn 24896])\n"
        "decoder layers            166912  (2 x [attn 33280 + norms 384 + 2 x ffn 24896])\n"
        "final norms                  256\n"
        "expert duplication: 49792 parameters held by non-routed expert copies\n"
    )
    assert main(["inspect", "--set", "preset=paper", "--set", "glu=false",
                 "--set", "tied_embed=false"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "trainable = 104056320"
    assert out[3] == "output projection       20480000"


def test_gradcheck_cli(capsys):
    assert main([
        "gradcheck", "--set", "d_model=16", "--set", "d_ff=16",
        "--set", "n_enc_layers=1", "--set", "n_dec_layers=1", "--set", "n_heads=2",
        "--coords", "2",
    ]) == 0
    assert "gradient check passed" in capsys.readouterr().out


def test_finetune_cli(workspace, tmp_path, capsys):
    run = workspace / "run"
    out = tmp_path / "ft"
    assert main([
        "finetune-nbwb", "--ckpt", str(run / "model.ckpt"),
        "--data", str(workspace / "data"), "--out", str(out), "--seed", "3",
        "--set", "steps=6", "--set", "lr_peak=0.0005", "--set", "lr_floor=0.00005",
    ]) == 0
    capsys.readouterr()
    model, _ = load_checkpoint(out / "model.ckpt")
    assert model.config.enc_smoe


def test_benchmark_cli_tiny(tmp_path, capsys):
    # tiny budget: exercises the plumbing, the report format and the step budget
    assert main([
        "benchmark", "--out", str(tmp_path / "bench"), "--seed", "0",
        "--set", "n_seeds=1", "--set", "steps=6",
        "--set", "n_train_inputs=8", "--set", "n_eval_inputs=4",
        "--set", "d_model=16", "--set", "d_ff=16", "--set", "d_ff_dec=8",
        "--set", "n_enc_layers=1", "--set", "n_dec_layers=1",
        "--set", "n_heads=2", "--set", "dropout=0.0",
    ]) == 0
    capsys.readouterr()
    report = (tmp_path / "bench" / "report.tsv").read_text().splitlines()
    assert report[0] == "model\ttrainable\tactive\tacc_asr\tacc_st"
    assert {ln.split("\t")[0] for ln in report[1:4]} == {"base", "dec_ffn_x2", "dec_smoe"}
    log = (tmp_path / "bench" / "benchmark.log").read_text().splitlines()
    runs = [ln for ln in log if ln.startswith("# ") and " acc" not in ln]
    assert len(runs) == 5  # two single-task controls, then the three models
    assert sum(ln.startswith("step=") for ln in log) == 6 * len(runs)
    resolved = (tmp_path / "bench" / "config.resolved").read_text().splitlines()
    assert "steps = 6" in resolved
    assert not any(ln.startswith("budget_steps") for ln in resolved)


# the stderr label of each failure's exit code
EXIT_LABELS = {1: "config error", 2: "checkpoint error", 3: "input error", 4: "numeric error"}


def _tiny_checkpoint(root, edit=None, vocab=None):
    """A tiny model checkpoint plus its vocab.txt (by default no merges) in
    root; edit rewrites its bytes."""
    vocab = vocab or Vocabulary()
    cfg = ModelConfig(n_enc_layers=1, n_dec_layers=1, d_model=16, d_ff=16, n_heads=2,
                      dropout=0.0, vocab_size=vocab.size)
    ckpt = root / "model.ckpt"
    save_checkpoint(Model(cfg, seed=0), ckpt)
    vocab.save(root / "vocab.txt")
    if edit is not None:
        raw = ckpt.read_bytes()
        edited = edit(raw)
        assert len(edited) == len(raw) and edited != raw
        ckpt.write_bytes(edited)
    return ckpt


def _wav(root, odd_data=False, no_data=False, non_pcm=False, data_first=False):
    path = root / "in.wav"
    write_wav(path, Waveform(samples=[0.1] * 800, sample_rate=SAMPLE_RATE_WB))
    raw = bytearray(path.read_bytes())
    if odd_data:  # declare and carry one byte more than the 16-bit samples
        raw[40:44] = (int.from_bytes(raw[40:44], "little") + 1).to_bytes(4, "little")
        raw += b"\x00"
    if no_data:  # the samples sit in a chunk of another name
        raw[36:40] = b"dat_"
    if non_pcm:  # fmt names format 3, IEEE float
        raw[20:22] = (3).to_bytes(2, "little")
    if data_first:  # the data chunk, then the fmt chunk
        raw = raw[:12] + raw[36:] + raw[12:36]
    path.write_bytes(bytes(raw))
    return path


def _infer_with_checkpoint(edit):
    def argv(root):
        return ["infer", "--ckpt", str(_tiny_checkpoint(root, edit)), str(_wav(root))]
    return argv


def _train_with_vocab(vocab_bytes, manifest_bytes=None):
    def argv(root):
        data = root / "data"
        data.mkdir()
        if vocab_bytes is not None:
            (data / "vocab.txt").write_bytes(vocab_bytes)
        if manifest_bytes is not None:
            (data / "manifest.tsv").write_bytes(manifest_bytes)
        return ["train", "--data", str(data), "--out", str(root / "run")]
    return argv


def _inspect_with_config(root):
    cfg = root / "bad.cfg"
    cfg.write_bytes(b"d_model = 32\n# \xff\xfe\n")
    return ["inspect", "--config", str(cfg)]


def _infer_wav(**edits):
    def argv(root):
        return ["infer", "--ckpt", str(_tiny_checkpoint(root)), str(_wav(root, **edits))]
    return argv


def _infer_with_vocab(vocab_bytes):
    def argv(root):
        ckpt = _tiny_checkpoint(root)
        (root / "given.txt").write_bytes(vocab_bytes)
        return ["infer", "--ckpt", str(ckpt), "--vocab", str(root / "given.txt"), str(_wav(root))]
    return argv


def _infer_empty_nb_wav(root):
    path = root / "empty_nb.wav"
    write_wav(path, Waveform(samples=[], sample_rate=SAMPLE_RATE_NB))
    return ["infer", "--ckpt", str(_tiny_checkpoint(root)), str(path)]


def _inspect_directory_checkpoint(root):
    (root / "model.ckpt").mkdir()
    return ["inspect", "--ckpt", str(root / "model.ckpt")]


def _infer_directory_vocab(root):
    ckpt = _tiny_checkpoint(root)
    (root / "vocab.txt").unlink()
    (root / "vocab.txt").mkdir()
    return ["infer", "--ckpt", str(ckpt), str(_wav(root))]


def _infer_directory_audio(root):
    (root / "in.wav").mkdir()
    return ["infer", "--ckpt", str(_tiny_checkpoint(root)), str(root / "in.wav")]


def _train_directory_manifest(root):
    argv = _train_with_vocab(b"smoe-vocab v1 merges=0\n")(root)
    (root / "data" / "manifest.tsv").mkdir()
    return argv


def _sets(settings):
    return [arg for setting in settings for arg in ("--set", setting)]


def _inspect_with(*settings):
    def argv(root):
        return ["inspect", *_sets(settings)]
    return argv


def _benchmark_with(*settings):
    def argv(root):
        return ["benchmark", "--set", "steps=1", *_sets(settings)]
    return argv


def _datagen_with(*settings):
    def argv(root):
        return ["datagen", "--out", str(root / "data"), "--set", "n_items=2", *_sets(settings)]
    return argv


def _gradcheck_with(*args):
    def argv(root):
        return ["gradcheck", "--set", "d_model=16", "--set", "d_ff=16", "--set", "n_heads=2",
                "--set", "n_enc_layers=1", "--set", "n_dec_layers=1", *args]
    return argv


def _eval_with_manifest(edit):
    """eval of the tiny checkpoint over a two-item dataset whose manifest
    bytes `edit` rewrites."""
    def argv(root):
        ckpt = _tiny_checkpoint(root)
        manifest = generate_dataset_files(root / "data", n_items=2, nbwb_mix_fraction=0.5, seed=0)
        manifest.write_bytes(edit(manifest.read_bytes()))
        return ["eval", "--ckpt", str(ckpt), "--data", str(root / "data")]
    return argv


def _train_with(*settings):
    def argv(root):
        generate_dataset_files(root / "data", n_items=2, nbwb_mix_fraction=0.0, seed=0)
        return ["train", "--data", str(root / "data"), "--out", str(root / "run"),
                "--set", "steps=2", *_sets(settings)]
    return argv


def _train_one_step_with(edit, *settings):
    """train, one step of batch 1 on a tiny model, over a two-item dataset
    (item 0 ASR, item 1 ST) whose manifest records `edit` rewrites."""
    def argv(root):
        manifest = generate_dataset_files(root / "data", n_items=2, nbwb_mix_fraction=0.0, seed=0)
        write_manifest(manifest, edit(read_manifest(manifest)))
        return ["train", "--data", str(root / "data"), "--out", str(root / "run"),
                *_sets(["steps=1", "batch_size=1", "d_model=16", "d_ff=16", "n_heads=2",
                        *settings])]
    return argv


def _long_st_text(records):
    """The ST record's text at 118 symbols: 122 target ids, past the 120 the
    toy preset allows. The one-step run draws only the ASR item."""
    asr, st = records
    return [asr, replace(st, text="a" * 118)]


def _with_seed(make_argv, seed):
    def argv(root):
        return [*make_argv(root), "--seed", str(seed)]
    return argv


def _train_with_config(text):
    def argv(root):
        generate_dataset_files(root / "data", n_items=2, nbwb_mix_fraction=0.0, seed=0)
        (root / "run.cfg").write_bytes(text)
        return ["train", "--data", str(root / "data"), "--out", str(root / "run"),
                "--config", str(root / "run.cfg")]
    return argv


def _decode_with(command, *settings):
    """eval or infer of the tiny checkpoint, with settings."""
    def argv(root):
        ckpt = _tiny_checkpoint(root)
        if command == "eval":
            generate_dataset_files(root / "data", n_items=2, nbwb_mix_fraction=0.0, seed=0)
            return ["eval", "--ckpt", str(ckpt), "--data", str(root / "data"), *_sets(settings)]
        return ["infer", "--ckpt", str(ckpt), str(_wav(root)), *_sets(settings)]
    return argv


_MERGES = [(bytes([c]), bytes([c + 1])) for c in b"abcdefgh"]


def _vocab_mismatch(command, ckpt_merges, vocab_merges):
    """finetune-nbwb, eval or infer of the tiny checkpoint built for a
    vocabulary of ckpt_merges merges, beside a vocab.txt of vocab_merges."""
    def argv(root):
        ckpt = _tiny_checkpoint(root, vocab=Vocabulary(_MERGES[:ckpt_merges]))
        Vocabulary(_MERGES[:vocab_merges]).save(root / "vocab.txt")
        if command == "infer":
            return ["infer", "--ckpt", str(ckpt), str(_wav(root))]
        generate_dataset_files(root / "data", n_items=2, nbwb_mix_fraction=0.5, seed=0)
        return [command, "--ckpt", str(ckpt), "--data", str(root / "data"),
                "--out", str(root / "run"), "--set", "steps=1"]
    return argv


def _resized_checkpoint(command, resize):
    """infer or inspect on the tiny checkpoint with its bytes resized."""
    def argv(root):
        ckpt = _tiny_checkpoint(root)
        ckpt.write_bytes(resize(ckpt.read_bytes()))
        if command == "inspect":
            return ["inspect", "--ckpt", str(ckpt)]
        return ["infer", "--ckpt", str(ckpt), str(_wav(root))]
    return argv


@pytest.mark.parametrize("make_argv, code", [
    pytest.param(_infer_with_checkpoint(lambda b: b.replace(b"d_model = 16", b"d_model = XX")),
                 2, id="ckpt-config-bad-value"),
    pytest.param(_infer_with_checkpoint(lambda b: b.replace(b"activation", b"\xffctivation")),
                 2, id="ckpt-config-not-utf8"),
    pytest.param(_train_with_vocab(None), 3, id="train-data-without-vocab"),
    pytest.param(_train_with_vocab(b"smoe-vocab v1 merges=1\nzz\t61\n"), 3, id="vocab-non-hex"),
    pytest.param(_train_with_vocab(b"smoe-vocab v1 merges=0\n\xe9\n"), 3, id="vocab-non-ascii"),
    pytest.param(_train_with_vocab(b"smoe-vocab v1 merges=2\n61\t62\n61\t62\n"), 3,
                 id="vocab-duplicate-merge"),
    pytest.param(_train_with_vocab(b"smoe-vocab v1 merges=0\n", b"smoe-manifest v1\n\xff\n"), 3,
                 id="manifest-not-utf8"),
    pytest.param(_inspect_with_config, 1, id="config-not-utf8"),
    pytest.param(_train_with_config(b"steps = 2\nsteps = 3\n"), 1, id="config-duplicate-key"),
    pytest.param(_infer_wav(odd_data=True), 3, id="wav-odd-data-bytes"),
    pytest.param(_infer_wav(no_data=True), 3, id="wav-no-data-chunk"),
    pytest.param(_infer_empty_nb_wav, 3, id="wav-empty-narrowband"),
    pytest.param(_inspect_directory_checkpoint, 2, id="ckpt-is-directory"),
    pytest.param(_infer_directory_vocab, 3, id="vocab-is-directory"),
    pytest.param(_infer_directory_audio, 3, id="audio-is-directory"),
    pytest.param(_train_directory_manifest, 3, id="manifest-is-directory"),
    # a bank holds one expert per label value: the count is no config key
    pytest.param(_train_with("dec_smoe=true", "n_experts=3"), 1, id="train-n-experts"),
    pytest.param(_inspect_with("enc_smoe=true", "n_experts=3"), 1, id="inspect-n-experts"),
    # fbank always emits N_MELS bins: the input width is no config key
    pytest.param(_inspect_with("n_mels=80"), 1, id="inspect-n-mels"),
    pytest.param(
        _infer_with_checkpoint(lambda b: b.replace(b"dropout = 0.0\n", b"n_experts = 2\n")),
        2, id="ckpt-config-n-experts"),
    pytest.param(_datagen_with("nbwb_mix_fraction=1.5"), 1, id="datagen-mix-fraction-out-of-range"),
    pytest.param(_datagen_with("symbols_min=0", "symbols_max=40"), 1,
                 id="datagen-symbols-min-zero"),
    pytest.param(_datagen_with("symbols_min=5", "symbols_max=3"), 1,
                 id="datagen-symbols-min-above-max"),
    pytest.param(_datagen_with("n_merges=-1"), 1, id="datagen-n-merges-negative"),
    pytest.param(_train_with("steps=0"), 1, id="train-steps-zero"),
    pytest.param(_train_with("lr_floor=-0.001"), 1, id="train-lr-floor-negative"),
    pytest.param(_train_with("lr_peak=nan"), 1, id="train-lr-peak-nan"),
    pytest.param(_train_with("lr_peak=inf"), 1, id="train-lr-peak-inf"),
    pytest.param(_train_with("lr_floor=nan"), 1, id="train-lr-floor-nan"),
    # gradient accumulation and SGD momentum are no training settings
    pytest.param(_train_with("accum_steps=5"), 1, id="train-accum-steps-removed"),
    pytest.param(_train_with("optimizer=sgd", "momentum=0.9"), 1, id="train-momentum-removed"),
    pytest.param(_decode_with("eval", "max_decode_len=0"), 1, id="eval-max-decode-len-zero"),
    pytest.param(_decode_with("infer", "max_decode_len=-3"), 1,
                 id="infer-max-decode-len-negative"),
    # 301 symbols render 30.08 s of audio, past fbank's 30 s cap
    pytest.param(_datagen_with("symbols_min=301", "symbols_max=301"), 1,
                 id="datagen-symbols-past-audio-cap"),
    pytest.param(_benchmark_with("n_seeds=0"), 1, id="benchmark-no-seeds"),
    # the benchmark trains `steps` steps: its own budget key is gone
    pytest.param(_benchmark_with("budget_steps=500"), 1, id="benchmark-budget-steps-removed"),
    # numpy seeds are non-negative
    pytest.param(_with_seed(_datagen_with(), -1), 1, id="datagen-seed-negative"),
    pytest.param(_with_seed(_train_with(), -1), 1, id="train-seed-negative"),
    pytest.param(_benchmark_with("n_train_inputs=0"), 1, id="benchmark-no-train-inputs"),
    pytest.param(_benchmark_with("n_eval_inputs=0", "n_seeds=1"), 1,
                 id="benchmark-no-eval-inputs"),
    # the benchmark scores a 16-step decode, which needs 18 target positions
    pytest.param(_benchmark_with("max_tgt_tokens=12", "n_seeds=1", "n_train_inputs=8",
                                 "n_eval_inputs=2"), 1,
                 id="benchmark-max-tgt-tokens-below-decode"),
    # a check of no coordinates, or against no finite positive tolerance, proves nothing
    pytest.param(_gradcheck_with("--coords", "0"), 1, id="gradcheck-coords-zero"),
    pytest.param(_gradcheck_with("--coords", "-2"), 1, id="gradcheck-coords-negative"),
    pytest.param(_gradcheck_with("--tolerance", "-1"), 1, id="gradcheck-tolerance-negative"),
    pytest.param(_gradcheck_with("--tolerance", "0"), 1, id="gradcheck-tolerance-zero"),
    pytest.param(_gradcheck_with("--tolerance", "nan"), 1, id="gradcheck-tolerance-nan"),
    pytest.param(_gradcheck_with("--tolerance", "inf"), 1, id="gradcheck-tolerance-inf"),
    # gradcheck decodes fixed ids up to 22
    pytest.param(_gradcheck_with("--set", "vocab_size=22"), 1, id="gradcheck-vocab-too-small"),
    pytest.param(_gradcheck_with("--set", "vocab_size=4"), 1, id="gradcheck-vocab-tiny"),
    # ... over 7 token positions and 6 frames
    pytest.param(_gradcheck_with("--set", "max_tgt_tokens=5"), 1,
                 id="gradcheck-max-tgt-tokens-too-small"),
    pytest.param(_gradcheck_with("--set", "max_src_frames=5"), 1,
                 id="gradcheck-max-src-frames-too-small"),
    # WER and token accuracy are undefined against an empty reference
    pytest.param(_eval_with_manifest(lambda b: b.rstrip(b"\n").rsplit(b"\t", 1)[0] + b"\t\n"),
                 3, id="eval-manifest-empty-text"),
    # the file size must be exactly what the header and config imply
    pytest.param(_resized_checkpoint("infer", lambda b: b[:-1]), 2, id="ckpt-one-byte-short"),
    pytest.param(_resized_checkpoint("infer", lambda b: b + b"\x00"), 2, id="ckpt-one-byte-extra"),
    pytest.param(_resized_checkpoint("inspect", lambda b: b[:-1]), 2,
                 id="inspect-ckpt-one-byte-short"),
    pytest.param(_resized_checkpoint("inspect", lambda b: b[:30]), 2,
                 id="inspect-ckpt-cut-in-config"),
    pytest.param(_resized_checkpoint("inspect", lambda b: b + b"\x00"), 2,
                 id="inspect-ckpt-one-byte-extra"),
    # the vocabulary must hold exactly the checkpoint's vocab_size ids
    pytest.param(_vocab_mismatch("finetune-nbwb", 0, 8), 3, id="finetune-vocab-larger"),
    pytest.param(_vocab_mismatch("infer", 0, 8), 3, id="infer-vocab-larger"),
    pytest.param(_vocab_mismatch("eval", 8, 0), 3, id="eval-vocab-smaller"),
    # every item is checked against the model's limits, not only the ones drawn
    pytest.param(_train_one_step_with(_long_st_text), 3, id="train-item-past-max-tgt-tokens"),
    pytest.param(_inspect_with("n_items=1\nn_merges=2"), 1, id="set-two-keys"),
    pytest.param(_inspect_with("preset=huge"), 1, id="set-unknown-preset"),
    pytest.param(_inspect_with("n_heads=3"), 1, id="set-heads-not-dividing-d-model"),
    pytest.param(_inspect_with("activation=gelu"), 1, id="set-unknown-activation"),
    pytest.param(_infer_wav(non_pcm=True), 3, id="wav-not-pcm"),
    pytest.param(_infer_wav(data_first=True), 3, id="wav-data-before-fmt"),
    pytest.param(_infer_with_vocab(b"smoe-vocab v1 merges=x\n"), 3, id="vocab-bad-merge-count"),
    pytest.param(_infer_with_vocab(b"smoe-vocab v1 merges=1\n61\n"), 3,
                 id="vocab-one-field-merge-line"),
])
def test_malformed_input_exit_code(make_argv, code, tmp_path, capsys):
    assert main(make_argv(tmp_path)) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{EXIT_LABELS[code]}: ") and "Traceback" not in captured.err


def test_gradcheck_past_its_tolerance_exits_4(capsys):
    assert main(_gradcheck_with("--tolerance", "1e-300")(None)) == 4
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert captured.err == "numeric error: gradient check failed\n"


@pytest.mark.parametrize("make_argv, message", [
    (_train_one_step_with(_long_st_text),
     r"training item 1 \(ST, WB\): 122 target tokens exceeds max_tgt_tokens 120"),
    (_train_one_step_with(lambda records: records, "max_src_frames=20"),
     r"training item 0 \(ASR, WB\): \d+ frames exceeds max_src_frames 20"),
], ids=["target-tokens", "frames"])
def test_over_long_training_item_fails_before_any_step(make_argv, message, tmp_path, capsys,
                                                       monkeypatch):
    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran before every item was checked")

    monkeypatch.setattr(smoe.train, "train_step", no_step)
    assert main(make_argv(tmp_path)) == 3
    assert re.search(f"input error: {message}", capsys.readouterr().err)
    assert list((tmp_path / "run").iterdir()) == []


@pytest.mark.parametrize("setting, key", [
    ("n_seeds=0", "seed"),
    ("n_train_inputs=0", "n_train_inputs"),
    ("n_eval_inputs=0", "n_eval_inputs"),
    ("dec_smoe=true", "plain decoder"),
    ("budget_steps=6", "budget_steps"),
])
def test_benchmark_rejects_empty_counts_before_any_dataset(setting, key, tmp_path, capsys,
                                                          monkeypatch):
    def no_dataset(*args, **kwargs):
        raise AssertionError("dataset built before the counts were checked")

    monkeypatch.setattr(smoe.train, "make_paired_dataset", no_dataset)
    assert main(_benchmark_with(setting)(tmp_path)) == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("make_argv", [_datagen_with(), _train_with(), _benchmark_with()],
                         ids=["datagen", "train", "benchmark"])
def test_negative_seed_fails_before_any_output(make_argv, tmp_path, capsys):
    argv = make_argv(tmp_path)
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "bench")]
    out = Path(argv[argv.index("--out") + 1])
    assert main([*argv, "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert "config error: --seed must be >= 0, got -1" in captured.err
    assert "Traceback" not in captured.err and not out.exists()


def test_datagen_rejected_merge_count_writes_no_wav(tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["datagen", "--out", str(out), "--set", "n_items=3", "--set", "n_merges=-1"]) == 1
    assert "merge count" in capsys.readouterr().err
    assert not (out / "wavs").exists()


@pytest.mark.parametrize("setting", [
    "batch_size=-1", "batch_size=0", "lr_peak=nan", "lr_peak=inf", "lr_floor=nan",
    "accum_steps=5", "momentum=0.9",
])
def test_train_rejects_bad_settings_before_any_model(setting, tmp_path, capsys, monkeypatch):
    def no_model(*args, **kwargs):
        raise AssertionError("model built before the training settings were checked")

    monkeypatch.setattr(smoe.cli, "Model", no_model)
    assert main(_train_with("optimizer=sgd", setting)(tmp_path)) == 1
    assert setting.split("=")[0] in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--coords", "0"], ["--tolerance", "nan"], ["--tolerance", "-1"], ["--set", "vocab_size=22"],
    ["--set", "max_tgt_tokens=5"], ["--set", "max_src_frames=5"],
])
def test_gradcheck_rejects_bad_arguments_before_any_model(args, tmp_path, capsys, monkeypatch):
    def no_model(*a, **kw):
        raise AssertionError("model built before the gradcheck arguments were checked")

    monkeypatch.setattr(smoe.cli, "Model", no_model)
    assert main(_gradcheck_with(*args)(tmp_path)) == 1
    assert "config error" in capsys.readouterr().err


def test_gradcheck_with_the_smallest_vocabulary_passes(capsys):
    assert main(_gradcheck_with("--set", "vocab_size=23", "--coords", "1")(None)) == 0
    assert "gradient check passed" in capsys.readouterr().out


def test_datagen_rejected_symbol_count_writes_nothing(tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["datagen", "--out", str(out), "--set", "n_items=2",
                 "--set", "symbols_min=300", "--set", "symbols_max=301"]) == 1
    assert "audio cap" in capsys.readouterr().err
    assert not out.exists()


def test_train_snapshot_replays_through_config(workspace, tmp_path, capsys):
    """config.resolved fed back through --config (with the same --seed)
    reproduces the run byte for byte."""
    run, replay = workspace / "run", tmp_path / "replay"
    assert (run / "config.resolved").read_text().startswith("# seed = 3\n")
    assert main(["train", "--data", str(workspace / "data"), "--out", str(replay),
                 "--seed", "3", "--config", str(run / "config.resolved")]) == 0
    capsys.readouterr()
    for name in ("config.resolved", "metrics.log", "model.ckpt"):
        assert (replay / name).read_bytes() == (run / name).read_bytes(), name


_VALUES = {
    int: st.integers(), float: st.floats(), str: st.sampled_from(["sgd", "adam"]) | st.text(),
}


@st.composite
def _train_overrides(draw):
    keys = draw(st.lists(st.sampled_from(sorted(TRAIN_KEYS)), unique=True, min_size=1, max_size=3))
    return {key: draw(_VALUES[TRAIN_KEYS[key]]) for key in keys}


@settings(max_examples=200, deadline=None)
@given(_train_overrides())
def test_train_config_is_in_range_or_a_config_error(overrides):
    try:
        tc = build_train_config({**DEFAULTS, **overrides}, seed=0)
    except ConfigError:
        return
    assert min(tc.steps, tc.batch_size) >= 1
    assert all(math.isfinite(v) for v in (tc.lr_peak, tc.lr_floor))
    assert 0 <= tc.lr_floor <= tc.lr_peak
    assert tc.optimizer in ("sgd", "adam")


def test_inspect_ckpt_reads_the_header_alone(tmp_path, capsys, monkeypatch):
    """inspect --ckpt builds no arena, and prints what inspect --set prints
    for the checkpoint's config."""
    ckpt = _tiny_checkpoint(tmp_path)
    cfg = load_checkpoint(ckpt)[0].config

    def no_arena(*args, **kwargs):
        raise AssertionError("inspect --ckpt built a model")

    with monkeypatch.context() as mp:
        mp.setattr(Model, "allocate", no_arena)
        mp.setattr(smoe.model, "parameter_arena", no_arena)
        assert main(["inspect", "--ckpt", str(ckpt)]) == 0
    from_ckpt = capsys.readouterr().out
    sets = _sets(line.replace(" = ", "=") for line in cfg.to_text().splitlines())
    assert main(["inspect", *sets]) == 0
    assert capsys.readouterr().out == from_ckpt


# -- fuzzed input files through main --------------------------------------------


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    """The tiny checkpoint, its vocab.txt, in.wav and a two-item dataset."""
    root = tmp_path_factory.mktemp("fuzz")
    _tiny_checkpoint(root)
    _wav(root)
    generate_dataset_files(root / "data", n_items=2, nbwb_mix_fraction=0.5, seed=0)
    return root


_FUZZ_ARGV = {
    "infer": lambda root: ["infer", "--ckpt", str(root / "model.ckpt"), str(root / "in.wav")],
    "inspect": lambda root: ["inspect", "--ckpt", str(root / "model.ckpt")],
    "eval": lambda root: ["eval", "--ckpt", str(root / "model.ckpt"), "--data", str(root / "data")],
}
# overwrite values lean on the bytes that delimit config, vocabulary and manifest fields
_FUZZ_BYTE = st.integers(0, 255) | st.sampled_from(b"0123456789#=.-\t\n/\x00")


@pytest.mark.parametrize("command, target", [
    ("infer", "model.ckpt"), ("infer", "in.wav"), ("infer", "vocab.txt"),
    ("inspect", "model.ckpt"),
    ("eval", "data/manifest.tsv"), ("eval", "data/wavs/item_00000_wb.wav"), ("eval", "vocab.txt"),
])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_mutated_input_file_exits_with_an_input_code(command, target, fuzz_root, data):
    """A few bytes of one input file overwritten, and the file cut short or
    zero-extended: the command exits 0-3 and prints no traceback. Edits
    favour the first 256 bytes, where the headers and config blocks sit."""
    raw = bytearray((fuzz_root / target).read_bytes())
    where = st.integers(0, min(len(raw), 256) - 1) | st.integers(0, len(raw) - 1)
    for pos, value in data.draw(st.lists(st.tuples(where, _FUZZ_BYTE), min_size=1, max_size=4)):
        raw[pos] = value
    resize = data.draw(st.integers(-8, 8))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(shutil.copytree(fuzz_root, Path(tmp) / "root"))
        (root / target).write_bytes(raw[:len(raw) + resize] if resize < 0 else raw + bytes(resize))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(_FUZZ_ARGV[command](root))
    assert code in (0, 1, 2, 3) and "Traceback" not in err.getvalue(), (code, err.getvalue())


def _no_step(*args, **kwargs):
    raise AssertionError("a training or decode step ran before the inputs were checked")


@pytest.mark.parametrize("command", ["datagen", "train", "finetune-nbwb", "benchmark"])
def test_out_under_a_file_exits_3_before_any_step(command, workspace, tmp_path, capsys,
                                                  monkeypatch):
    monkeypatch.setattr(smoe.cli, "run_training", _no_step)
    monkeypatch.setattr(smoe.train, "run_training", _no_step)
    (tmp_path / "file").write_text("")
    out = str(tmp_path / "file" / "out")
    argv = {
        "datagen": ["datagen", "--set", "n_items=2"],
        "train": ["train", "--data", str(workspace / "data")],
        "finetune-nbwb": ["finetune-nbwb", "--ckpt", str(workspace / "run" / "model.ckpt"),
                          "--data", str(workspace / "data")],
        "benchmark": ["benchmark", "--set", "n_seeds=1", "--set", "steps=1"],
    }[command]
    assert main([*argv, "--out", out]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "input error" in captured.err and out in captured.err


def test_benchmark_rejects_max_tgt_tokens_below_its_decode_before_any_step(capsys, monkeypatch):
    monkeypatch.setattr(smoe.train, "make_paired_dataset", _no_step)
    monkeypatch.setattr(smoe.train, "run_training", _no_step)
    argv = _benchmark_with("max_tgt_tokens=17", "n_seeds=1", "n_train_inputs=8", "n_eval_inputs=2")
    assert main(argv(None)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "needs max_tgt_tokens >= 18, got 17" in captured.err


@pytest.mark.parametrize("command", ["finetune-nbwb", "eval", "infer"])
def test_vocab_size_mismatch_names_both_sizes_before_any_step(command, tmp_path, capsys,
                                                             monkeypatch):
    monkeypatch.setattr(smoe.train, "run_training", _no_step)
    monkeypatch.setattr(Model, "_greedy_rows", _no_step)
    assert main(_vocab_mismatch(command, 0, 8)(tmp_path)) == 3
    err = capsys.readouterr().err
    assert f"has {Vocabulary().size + 8} ids" in err and f"vocab_size {Vocabulary().size}" in err


@pytest.mark.parametrize("command", ["eval", "infer"])
def test_max_decode_len_fits_the_checkpoint_without_eos(command, tmp_path, capsys, monkeypatch):
    """The tiny checkpoint's max_tgt_tokens is 120: 118 decode steps fit even
    when no row ever emits EOS, and 119 is a config error before any decode."""
    last_logits = Model._last_logits

    def never_eos(self, last):
        logits = last_logits(self, last)
        logits[:, GuidingToken.EOS] = -np.inf
        return logits

    monkeypatch.setattr(Model, "_last_logits", never_eos)
    (tmp_path / "fits").mkdir()
    assert main(_decode_with(command, "max_decode_len=118")(tmp_path / "fits")) == 0
    assert capsys.readouterr().out
    monkeypatch.setattr(Model, "_greedy_rows", _no_step)
    (tmp_path / "past").mkdir()
    assert main(_decode_with(command, "max_decode_len=119")(tmp_path / "past")) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "max_tgt_tokens 120" in captured.err


# -- runtime dependencies ---------------------------------------------------------


_IMPORT_EVERY_MODULE = """
import importlib, pkgutil, sys
before = set(sys.modules)
import smoe
for info in pkgutil.walk_packages(smoe.__path__, "smoe."):
    importlib.import_module(info.name)
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(added - set(sys.stdlib_module_names))))
"""


def test_numpy_is_the_only_runtime_dependency():
    """A fresh interpreter that imports every smoe module loads no top-level
    package outside the standard library but smoe and numpy."""
    env = dict(os.environ, PYTHONPATH=str(Path(smoe.cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _IMPORT_EVERY_MODULE], env=env,
                         capture_output=True, text=True, check=True, timeout=120).stdout
    assert out.split() == ["numpy", "smoe"]

import pytest

import smoe.model
import smoe.train
from smoe.cli import main
from smoe.data import generate_dataset_files, read_manifest
from smoe.model import Model, ModelConfig, load_checkpoint, save_checkpoint
from smoe.moe import Bandwidth
from smoe.seqio import Vocabulary
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
    assert (data / "config.resolved").exists()
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
    # tiny budget: just exercises the plumbing and the report format
    assert main([
        "benchmark", "--out", str(tmp_path / "bench"), "--seed", "0",
        "--set", "n_seeds=1", "--set", "budget_steps=6",
        "--set", "n_train_inputs=8", "--set", "n_eval_inputs=4",
        "--set", "d_model=16", "--set", "d_ff=16", "--set", "d_ff_dec=8",
        "--set", "n_enc_layers=1", "--set", "n_dec_layers=1",
        "--set", "n_heads=2", "--set", "dropout=0.0",
    ]) == 0
    capsys.readouterr()
    report = (tmp_path / "bench" / "report.tsv").read_text().splitlines()
    assert report[0] == "model\ttrainable\tactive\tacc_asr\tacc_st"
    assert {ln.split("\t")[0] for ln in report[1:4]} == {"base", "dec_ffn_x2", "dec_smoe"}
    assert (tmp_path / "bench" / "benchmark.log").exists()


def _tiny_checkpoint(root, edit=None):
    """A tiny model checkpoint plus vocab.txt in root; edit rewrites its bytes."""
    cfg = ModelConfig(n_enc_layers=1, n_dec_layers=1, d_model=16, d_ff=16, n_heads=2,
                      dropout=0.0, vocab_size=Vocabulary().size)
    ckpt = root / "model.ckpt"
    save_checkpoint(Model(cfg, seed=0), ckpt)
    Vocabulary().save(root / "vocab.txt")
    if edit is not None:
        raw = ckpt.read_bytes()
        edited = edit(raw)
        assert len(edited) == len(raw) and edited != raw
        ckpt.write_bytes(edited)
    return ckpt


def _wav(root, odd_data=False, no_data=False):
    path = root / "in.wav"
    write_wav(path, Waveform(samples=[0.1] * 800, sample_rate=SAMPLE_RATE_WB))
    raw = bytearray(path.read_bytes())
    if odd_data:  # declare and carry one byte more than the 16-bit samples
        raw[40:44] = (int.from_bytes(raw[40:44], "little") + 1).to_bytes(4, "little")
        raw += b"\x00"
    if no_data:  # the samples sit in a chunk of another name
        raw[36:40] = b"dat_"
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


def _infer_odd_wav(root):
    return ["infer", "--ckpt", str(_tiny_checkpoint(root)), str(_wav(root, odd_data=True))]


def _infer_wav_without_data(root):
    return ["infer", "--ckpt", str(_tiny_checkpoint(root)), str(_wav(root, no_data=True))]


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
        return ["benchmark", "--set", "budget_steps=1", *_sets(settings)]
    return argv


def _datagen_with(*settings):
    def argv(root):
        return ["datagen", "--out", str(root / "data"), "--set", "n_items=2", *_sets(settings)]
    return argv


def _train_with(*settings):
    def argv(root):
        generate_dataset_files(root / "data", n_items=2, nbwb_mix_fraction=0.0, seed=0)
        return ["train", "--data", str(root / "data"), "--out", str(root / "run"),
                "--set", "steps=2", *_sets(settings)]
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
    pytest.param(_infer_odd_wav, 3, id="wav-odd-data-bytes"),
    pytest.param(_infer_wav_without_data, 3, id="wav-no-data-chunk"),
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
    pytest.param(_train_with("momentum=-0.5"), 1, id="train-momentum-negative"),
    pytest.param(_benchmark_with("n_seeds=0"), 1, id="benchmark-no-seeds"),
    pytest.param(_benchmark_with("n_train_inputs=0"), 1, id="benchmark-no-train-inputs"),
    pytest.param(_benchmark_with("n_eval_inputs=0", "n_seeds=1"), 1,
                 id="benchmark-no-eval-inputs"),
    # the file size must be exactly what the header and config imply
    pytest.param(_resized_checkpoint("infer", lambda b: b[:-1]), 2, id="ckpt-one-byte-short"),
    pytest.param(_resized_checkpoint("infer", lambda b: b + b"\x00"), 2, id="ckpt-one-byte-extra"),
    pytest.param(_resized_checkpoint("inspect", lambda b: b[:-1]), 2,
                 id="inspect-ckpt-one-byte-short"),
    pytest.param(_resized_checkpoint("inspect", lambda b: b[:30]), 2,
                 id="inspect-ckpt-cut-in-config"),
    pytest.param(_resized_checkpoint("inspect", lambda b: b + b"\x00"), 2,
                 id="inspect-ckpt-one-byte-extra"),
])
def test_malformed_input_exit_code(make_argv, code, tmp_path, capsys):
    assert main(make_argv(tmp_path)) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("setting, key", [
    ("n_seeds=0", "seed"),
    ("n_train_inputs=0", "n_train_inputs"),
    ("n_eval_inputs=0", "n_eval_inputs"),
])
def test_benchmark_rejects_empty_counts_before_any_dataset(setting, key, tmp_path, capsys,
                                                          monkeypatch):
    def no_dataset(*args, **kwargs):
        raise AssertionError("dataset built before the counts were checked")

    monkeypatch.setattr(smoe.train, "make_paired_dataset", no_dataset)
    assert main(_benchmark_with(setting)(tmp_path)) == 1
    assert key in capsys.readouterr().err


def test_datagen_rejected_merge_count_writes_no_wav(tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["datagen", "--out", str(out), "--set", "n_items=3", "--set", "n_merges=-1"]) == 1
    assert "merge count" in capsys.readouterr().err
    assert not (out / "wavs").exists()


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

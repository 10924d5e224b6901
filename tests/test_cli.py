import pytest

from smoe.cli import main
from smoe.data import read_manifest
from smoe.model import Model, ModelConfig, load_checkpoint, save_checkpoint
from smoe.moe import Bandwidth
from smoe.seqio import Vocabulary
from smoe.signal import SAMPLE_RATE_WB, Waveform, write_wav


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


def _wav(root, odd_data=False):
    path = root / "in.wav"
    write_wav(path, Waveform(samples=[0.1] * 800, sample_rate=SAMPLE_RATE_WB))
    if odd_data:  # declare and carry one byte more than the 16-bit samples
        raw = bytearray(path.read_bytes())
        raw[40:44] = (int.from_bytes(raw[40:44], "little") + 1).to_bytes(4, "little")
        path.write_bytes(bytes(raw) + b"\x00")
    return path


def _infer_with_checkpoint(edit):
    def argv(root):
        return ["infer", "--ckpt", str(_tiny_checkpoint(root, edit)), str(_wav(root))]
    return argv


def _train_with_vocab(vocab_bytes):
    def argv(root):
        data = root / "data"
        data.mkdir()
        if vocab_bytes is not None:
            (data / "vocab.txt").write_bytes(vocab_bytes)
        return ["train", "--data", str(data), "--out", str(root / "run")]
    return argv


def _inspect_with_config(root):
    cfg = root / "bad.cfg"
    cfg.write_bytes(b"d_model = 32\n# \xff\xfe\n")
    return ["inspect", "--config", str(cfg)]


def _infer_odd_wav(root):
    return ["infer", "--ckpt", str(_tiny_checkpoint(root)), str(_wav(root, odd_data=True))]


@pytest.mark.parametrize("make_argv, code", [
    pytest.param(_infer_with_checkpoint(lambda b: b.replace(b"d_model = 16", b"d_model = XX")),
                 2, id="ckpt-config-bad-value"),
    pytest.param(_infer_with_checkpoint(lambda b: b.replace(b"activation", b"\xffctivation")),
                 2, id="ckpt-config-not-utf8"),
    pytest.param(_infer_with_checkpoint(lambda b: b.replace(b"input_proj.w", b"\xffnput_proj.w")),
                 2, id="ckpt-name-not-utf8"),
    pytest.param(_train_with_vocab(None), 3, id="train-data-without-vocab"),
    pytest.param(_train_with_vocab(b"smoe-vocab v1 merges=1\nzz\t61\n"), 3, id="vocab-non-hex"),
    pytest.param(_train_with_vocab(b"smoe-vocab v1 merges=0\n\xe9\n"), 3, id="vocab-non-ascii"),
    pytest.param(_inspect_with_config, 1, id="config-not-utf8"),
    pytest.param(_infer_odd_wav, 3, id="wav-odd-data-bytes"),
])
def test_malformed_input_exit_code(make_argv, code, tmp_path, capsys):
    assert main(make_argv(tmp_path)) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err and "Traceback" not in captured.err

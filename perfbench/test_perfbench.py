"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that every workload emits every metric BENCHMARK.json names, and that
the correctness checks count a wrong output as a failed operation.
"""

import json
import math
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import smoe.model  # noqa: E402
import smoe.train  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from run import WORKLOAD_NAMES, report  # noqa: E402
from workloads import WORKLOADS, run_workload  # noqa: E402


def tiny_run(name, tmp_path, trace=False):
    return run_workload(name, seed=3, seconds=0.01, trace=trace, workdir=tmp_path, tiny=True)


def test_benchmark_json_matches_metric_lists():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == WORKLOAD_NAMES == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(name, trace, tmp_path):
    result = tiny_run(name, tmp_path, trace)
    _, out = report(result, trace)
    expected = PER_LAYER if trace else END_TO_END
    assert list(out["metrics"]) == [m[0] for m in expected]
    assert all(math.isfinite(m["value"]) for m in out["metrics"].values())
    assert out["attempted"] >= 1
    assert out["failed"] == 0 and out["correct"] is True
    if not trace:
        assert all(m["value"] > 0 for m in out["metrics"].values())


def test_layer_counts_reach_the_program(tmp_path):
    m = report(tiny_run("train", tmp_path, trace=True), True)[1]["metrics"]
    assert m["numerics.tape_nodes_per_step"]["value"] > 0
    assert m["moe.dec.0.ffn.expert0.calls_per_step"]["value"] > 0
    assert m["moe.zero_row_calls"]["value"] == 0
    assert m["calls.train.Adam.step"]["value"] == 1.0


def test_tampered_single_decode_counts_as_failed(tmp_path, monkeypatch):
    original = smoe.model.Model.infer_single

    def tampered(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        result.ids[-1] += 1
        return result

    monkeypatch.setattr(smoe.model.Model, "infer_single", tampered)
    result = tiny_run("decode_single", tmp_path)
    assert result.attempted >= 1 and result.failed == result.attempted
    assert report(result, False)[1]["correct"] is False


def test_tampered_dual_decode_counts_as_failed(tmp_path, monkeypatch):
    original = smoe.model.Model.infer_dual

    def tampered(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        result.st_ids[0] += 1
        return result

    monkeypatch.setattr(smoe.model.Model, "infer_dual", tampered)
    result = tiny_run("decode_dual", tmp_path)
    assert result.attempted >= 1 and result.failed == result.attempted


def test_flipped_checkpoint_byte_counts_as_failed(tmp_path, monkeypatch):
    original = smoe.model.save_checkpoint

    def flipping(model, path, step=0):
        original(model, path, step)
        raw = bytearray(Path(path).read_bytes())
        raw[-3] ^= 0x01  # inside the last parameter's float payload
        Path(path).write_bytes(bytes(raw))

    monkeypatch.setattr(smoe.model, "save_checkpoint", flipping)
    result = tiny_run("checkpoint", tmp_path)
    assert result.attempted >= 1 and result.failed == result.attempted


def test_wrong_gradient_fails_the_training_reference(tmp_path, monkeypatch):
    original = smoe.train.Adam.step

    def sign_flipped(self, lr):
        for name, p in self.params:
            if name == "embed" and p.grad is not None:
                p.grad = -p.grad
        original(self, lr)

    monkeypatch.setattr(smoe.train.Adam, "step", sign_flipped)
    result = tiny_run("train", tmp_path)
    # the reference run fails; the tiny runs agree with their own warm-up
    assert result.failed == 1

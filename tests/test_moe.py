import numpy as np
import pytest

from smoe.errors import RoutingError
from smoe.moe import (
    Bandwidth,
    GateVector,
    SMoELayer,
    Task,
    gate_decoder,
    gate_encoder,
    smoe_forward,
)
from smoe.nn import FFNParams, ffn_forward, ffn_shapes
from smoe.numerics import Tape, backward, constant, sum_all

from blocks import build_block


def make_ffn(seed, d_model=6, d_ff=10, glu=True):
    return build_block(FFNParams, ffn_shapes(d_model, d_ff, glu), np.random.default_rng(seed))


def make_layer(n=2, d_model=6, d_ff=10):
    """An expert bank and each expert's named tensors."""
    experts, params = zip(*(make_ffn(i, d_model, d_ff) for i in range(n)))
    return SMoELayer(experts=list(experts)), params


def test_gating_truth_table():
    assert gate_encoder(Bandwidth.WB).weights == (1.0, 0.0)
    assert gate_encoder(Bandwidth.NB).weights == (0.0, 1.0)
    assert gate_decoder(Task.ST).weights == (1.0, 0.0)
    assert gate_decoder(Task.ASR).weights == (0.0, 1.0)


def test_gates_are_one_hot_for_all_labels():
    for bw in Bandwidth:
        g = gate_encoder(bw)
        assert sum(g.weights) == 1.0 and set(g.weights) == {0.0, 1.0}
    for task in Task:
        g = gate_decoder(task)
        assert sum(g.weights) == 1.0 and set(g.weights) == {0.0, 1.0}
    assert gate_decoder(Task.ASR) != gate_decoder(Task.ST)


@pytest.mark.parametrize("gate, label", [
    (gate_encoder, "wb"), (gate_encoder, "WB"), (gate_encoder, None), (gate_encoder, Task.ST),
    (gate_encoder, Task.ASR), (gate_decoder, "st"), (gate_decoder, "ASR"), (gate_decoder, None),
    (gate_decoder, Bandwidth.WB), (gate_decoder, Bandwidth.NB), (gate_decoder, ["ST"]),
])
def test_gates_fail_closed_on_any_other_value(gate, label):
    with pytest.raises(RoutingError, match="no expert for"):
        gate(label)


@pytest.mark.parametrize("bad", [(0.5, 0.5), (1.0, 1.0), (0.0, 0.0), (2.0, -1.0), (1.0,) * 3 + (0.0,)])
def test_soft_or_invalid_gates_rejected(bad):
    if bad == (1.0,) * 3 + (0.0,):
        with pytest.raises(RoutingError):
            GateVector(bad)
        return
    with pytest.raises(RoutingError):
        GateVector(bad)


def test_forward_selects_expert_bitwise():
    layer, _ = make_layer()
    x = constant(np.random.default_rng(42).normal(size=(4, 6)))
    out0 = smoe_forward(layer, GateVector((1.0, 0.0)), x)
    assert np.array_equal(out0.data, ffn_forward(layer.experts[0], x).data)
    assert layer.call_counts == [1, 0]
    out1 = smoe_forward(layer, GateVector((0.0, 1.0)), x)
    assert np.array_equal(out1.data, ffn_forward(layer.experts[1], x).data)
    assert layer.call_counts == [1, 1]


def test_hundred_random_gates_count_tally():
    layer, _ = make_layer()
    rng = np.random.default_rng(7)
    x = constant(rng.normal(size=(2, 6)))
    tally = [0, 0]
    for _ in range(100):
        k = int(rng.integers(0, 2))
        tally[k] += 1
        gate = GateVector(tuple(1.0 if i == k else 0.0 for i in range(2)))
        smoe_forward(layer, gate, x)
    assert sum(layer.call_counts) == 100
    assert layer.call_counts == tally


def test_gate_width_mismatch():
    layer, _ = make_layer(n=2)
    x = constant(np.zeros((1, 6)))
    with pytest.raises(RoutingError):
        smoe_forward(layer, GateVector((1.0, 0.0, 0.0)), x)


def test_gradient_isolation_exact():
    layer, params = make_layer()
    x = constant(np.random.default_rng(3).normal(size=(4, 6)))
    tape = Tape()
    with tape:
        loss = sum_all(smoe_forward(layer, gate_decoder(Task.ASR), x))
    backward(loss, tape)
    # ASR routes to expert 1: expert 0 must have no gradients at all
    for name, t in params[0]:
        assert t.grad is None, f"unexpected grad on inactive expert: {name}"
    grads = [t.grad for _, t in params[1]]
    assert all(g is not None for g in grads)
    assert any(np.any(g != 0.0) for g in grads)


def test_reset_counts():
    layer, _ = make_layer()
    x = constant(np.zeros((1, 6)))
    smoe_forward(layer, GateVector((1.0, 0.0)), x)
    layer.reset_counts()
    assert layer.call_counts == [0, 0]

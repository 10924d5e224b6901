"""Supervised expert routing: predefined one-hot gates over an FFN bank.

The gate is a function of labels that are known up front (audio bandwidth
for the encoder, task for the decoder), so there is no gating network to
train. A routed bank holds one expert per label value, N_EXPERTS of them.
A zero gate weight means the expert is never invoked: the layer calls
exactly one expert per forward and counts invocations to prove it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import ConfigError, RoutingError, ShapeError
from .nn import FFNParams, ffn_forward
from .numerics import Tensor


class Bandwidth(Enum):
    NB = "NB"
    WB = "WB"


class Task(Enum):
    ASR = "ASR"
    ST = "ST"


N_EXPERTS = 2  # experts per routed bank: one per Bandwidth, or one per Task


@dataclass(frozen=True)
class GateVector:
    """One-hot expert selection; soft weights are rejected at construction."""

    weights: tuple[float, ...]

    def __post_init__(self):
        if sum(1 for w in self.weights if w == 1.0) != 1 or any(
            w not in (0.0, 1.0) for w in self.weights
        ):
            raise RoutingError(f"gate must be one-hot over experts, got {self.weights}")

    @property
    def selected(self) -> int:
        return self.weights.index(1.0)

    def __len__(self) -> int:
        return len(self.weights)


def gate_encoder(bw: Bandwidth) -> GateVector:
    """Wideband audio selects expert 0; narrowband selects expert 1."""
    if bw is Bandwidth.WB:
        return GateVector((1.0, 0.0))
    return GateVector((0.0, 1.0))


def gate_decoder(task: Task) -> GateVector:
    """Translation selects expert 0; transcription selects expert 1."""
    if task is Task.ST:
        return GateVector((1.0, 0.0))
    return GateVector((0.0, 1.0))


@dataclass
class SMoELayer:
    """A bank of same-shaped FFN experts with invocation counters.

    call_counts is test instrumentation, not model state: it is excluded
    from checkpoints and resettable for test isolation.
    """

    experts: list[FFNParams]
    call_counts: list[int] = field(default_factory=list)

    def __post_init__(self):
        if not self.experts:
            raise ConfigError("expert bank must hold at least one expert")
        shapes = {(e.d_model, e.d_ff, e.glu) for e in self.experts}
        if len(shapes) != 1:
            raise ShapeError(f"experts must share dimensions, got {shapes}")
        if not self.call_counts:
            self.call_counts = [0] * len(self.experts)
        elif len(self.call_counts) != len(self.experts):
            raise ShapeError("call_counts length must match expert count")

    @property
    def n_experts(self) -> int:
        return len(self.experts)

    def reset_counts(self) -> None:
        self.call_counts = [0] * len(self.experts)


def smoe_forward(
    layer: SMoELayer, gate: GateVector, x: Tensor, activation: str = "silu"
) -> Tensor:
    """Run the single gated expert; every zero-weight expert is skipped.

    The output is bit-identical to ffn_forward of the selected expert, the
    selected expert's counter is the only one incremented, and gradients
    can only flow into the selected expert's parameters because no other
    expert contributes tape nodes.
    """
    if len(gate) != layer.n_experts:
        raise RoutingError(
            f"gate width {len(gate)} does not match expert count {layer.n_experts}"
        )
    k = gate.selected
    layer.call_counts[k] += 1
    return ffn_forward(layer.experts[k], x, activation=activation)


"""Dense float64 tensors and the gradient tape.

A Tensor wraps a row-major float64 ndarray. Operations (see ops.py) record
nodes on the currently active Tape; the tape is rebuilt on every forward
pass, so the recorded graph is exactly the subgraph that was computed.
backward() replays the node list in reverse; because nodes are appended in
execution order the list is already topologically sorted and each node is
visited exactly once. Gradients are stored only on leaves.

A parameter arena is one contiguous float64 buffer that a table of named
parameters tiles in order; each parameter's data is a view of its slice.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from ..errors import ContractError, ShapeError

GradFn = Callable[[np.ndarray], "list[tuple[Tensor, np.ndarray]]"]


class Tensor:
    """Float64 array with optional gradient storage.

    backward() writes `grad` only on leaves, tensors that no tape node
    produced (parameters and inputs); it stays None on intermediate tensors
    and on tensors off the loss path, which the gradient-isolation tests
    rely on.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 0 and min(arr.shape) <= 0:
            raise ShapeError(f"tensor dimensions must be positive, got {arr.shape}")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class TapeNode:
    __slots__ = ("output", "grad_fn")

    def __init__(self, output: Tensor, grad_fn: GradFn):
        self.output = output
        self.grad_fn = grad_fn


class Tape:
    """Ordered record of one forward pass, used as a context manager.

    Nodes are appended in execution order, so the list is a topological
    order of the computed subgraph by construction.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []

    def record(self, output: Tensor, grad_fn: GradFn) -> None:
        self.nodes.append(TapeNode(output, grad_fn))

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self, "tape stack corrupted"

    def __len__(self) -> int:
        return len(self.nodes)


_TAPE_STACK: list[Tape] = []


def active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def record_op(out: Tensor, grad_fn: GradFn) -> Tensor:
    """Attach a backward rule to `out` on the active tape, if any."""
    tape = active_tape()
    if tape is not None and out.requires_grad:
        tape.record(out, grad_fn)
    return out


def backward(loss: Tensor, tape: Tape) -> None:
    """Accumulate d(loss)/d(leaf) into .grad of every requires_grad leaf
    reachable from `loss`; a leaf is a tensor no tape node produced.

    Seeds d(loss)/d(loss) = 1 and walks the tape in reverse. A node output
    has all its consumers later in the tape, so by the time the node is
    visited its gradient is complete: it is consumed there and dropped, and
    intermediate tensors keep grad None. Nodes whose output never received
    a gradient are skipped, leaving off-path tensors with grad None.
    Gradients accumulate into pre-existing .grad buffers.
    """
    if loss.data.shape != ():
        raise ContractError(f"backward() needs a scalar loss, got shape {loss.data.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=np.float64)}
    holders: dict[int, Tensor] = {id(loss): loss}
    for node in reversed(tape.nodes):
        key = id(node.output)
        out_grad = grads.pop(key, None)
        if out_grad is None:
            continue
        del holders[key]
        for tensor, grad in node.grad_fn(out_grad):
            if not tensor.requires_grad:
                continue
            key = id(tensor)
            if key in grads:
                grads[key] = grads[key] + grad
            else:
                grads[key] = grad
                holders[key] = tensor
    for key, grad in grads.items():  # only leaves are left
        tensor = holders[key]
        if tensor.grad is None:
            tensor.grad = np.array(grad, dtype=np.float64, copy=True)
        else:
            tensor.grad = tensor.grad + grad


def parameter_arena(
    shapes: Sequence[tuple[str, tuple[int, ...]]],
) -> tuple[np.ndarray, list[tuple[str, Tensor]]]:
    """One float64 buffer for a table of (name, shape) entries and a
    trainable Tensor viewing each entry's slice of it, in table order.

    The buffer is uninitialised: the caller must write every view.
    """
    sizes = [math.prod(shape) for _, shape in shapes]
    arena = np.empty(sum(sizes))
    params, off = [], 0
    for (name, shape), n in zip(shapes, sizes):
        params.append((name, Tensor(arena[off : off + n].reshape(shape), requires_grad=True)))
        off += n
    return arena, params


def arena_bounds(params: Sequence[tuple[str, Tensor]]) -> tuple[np.ndarray, list[int]]:
    """The arena that `params` tile in order, as parameter_arena lays them
    out, and the offsets bounds[i]:bounds[i + 1] of the i-th one's slice.
    Raises ContractError unless the params are exactly such a tiling."""
    arena = params[0][1].data.base if params else None
    bounds = [0]
    for name, p in params:
        if (arena is None or p.data.base is not arena or not p.data.flags.c_contiguous
                or p.data.ctypes.data != arena.ctypes.data + 8 * bounds[-1]):
            raise ContractError(f"parameter {name} is not the next slice of one arena")
        bounds.append(bounds[-1] + p.size)
    if arena is None or arena.ndim != 1 or arena.size != bounds[-1]:
        raise ContractError("parameters do not tile their whole arena")
    return arena, bounds

"""Building one model block outside a Model, for the block-level tests."""

from smoe.nn import init_parameters
from smoe.numerics import parameter_arena


def build_block(block_type, shapes, rng=None, **fields):
    """A block built as a Model builds one (its arena, the block over the
    arena's views, then init_parameters), with its named tensors."""
    _, params = parameter_arena(shapes)
    block = block_type(**dict(params), **fields)
    init_parameters(params, rng)
    return block, params

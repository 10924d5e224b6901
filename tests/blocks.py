"""Building one model block outside a Model, for the block-level tests."""

from smoe.numerics import parameter_arena


def build_block(block_type, shapes, rng=None, **fields):
    """A block built as a Model builds one (its arena, the block over the
    arena's views, then its init), with its named tensors."""
    _, params = parameter_arena(shapes)
    block = block_type(**dict(params), **fields)
    block.fill(rng)
    return block, params

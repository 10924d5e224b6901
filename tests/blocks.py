"""Building one model block outside a Model, and the compositions that
fused blocks replaced, for the block-level tests."""

from smoe.nn import attention_forward, init_parameters, pre_norm_residual
from smoe.numerics import parameter_arena


def build_block(block_type, shapes, rng=None, **fields):
    """A block built as a Model builds one (its arena, the block over the
    arena's views, then init_parameters), with its named tensors."""
    _, params = parameter_arena(shapes)
    block = block_type(**dict(params), **fields)
    init_parameters(params, rng)
    return block, params


def composed_attention_sublayer(p, ln, x, memory=None, q_lengths=None, k_lengths=None,
                                causal=False, dropout_rate=0.0, rng=None):
    """The pre-norm attention sublayer as the model composed it before
    `nn.attention_sublayer`: layer norm, the q/k/v `linear`s, the attention
    node, the output `linear`, dropout and the residual `add`, each its own
    tape node. memory None is self-attention."""
    return pre_norm_residual(
        lambda h: attention_forward(p, h, h if memory is None else memory,
                                    h if memory is None else memory, q_lengths, k_lengths, causal),
        ln, x, dropout_rate, rng,
    )

"""Exception types shared across the package.

The CLI exit code of each, bar ShapeError and RoutingError, is in `smoe.cli.EXIT_CODES`.
"""


class ConfigError(ValueError):
    """Invalid configuration value, unknown key, or inconsistent preset."""


class ShapeError(ValueError):
    """Tensor shapes do not satisfy an operation's contract."""


class ContractError(RuntimeError):
    """An operation was called outside its stated preconditions."""


class RoutingError(ValueError):
    """No expert for a label: a gate that is not one-hot, or an id that is not a task tag."""


class SequenceError(ValueError):
    """Target sequence does not follow the guiding-token layout."""


class FormatError(ValueError):
    """A serialized artifact (checkpoint, vocab, manifest) is malformed."""


class CheckpointError(FormatError):
    """A checkpoint cannot be opened, or its header, config block or size is bad."""


class NumericError(ArithmeticError):
    """Non-finite values encountered where finite values are required."""


class AudioError(ValueError):
    """Waveform input violates a signal-processing precondition."""


class LimitError(ValueError):
    """Input exceeds a configured length limit."""

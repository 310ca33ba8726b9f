"""Exception types shared across the library, and the one integer rule, the
one real-number rule and the one range check of a positive run setting."""

import math
import numbers


class SaSoftmaxError(Exception):
    """Base class for all library errors."""


class EmptyRow(SaSoftmaxError):
    """A row operation received a logit row with no entries, or a batched
    kernel a mask row with no live entry."""


class NonFiniteInput(SaSoftmaxError):
    """An input entry is NaN or infinite, or finite inputs overflowed: the
    attention scores, or a perplexity that is not finite."""


class ShapeMismatch(SaSoftmaxError):
    """Array arguments disagree on sequence length or feature dimension, a
    mask or upstream gradient does not broadcast to the scores' shape, or a
    token batch is empty or holds ids that are not integers."""


class OddHeadDim(SaSoftmaxError):
    """Rotary embedding requires an even head dimension."""


class CacheMismatch(SaSoftmaxError):
    """A backward pass received a cache or upstream gradient that does not
    match the forward call that produced it."""


class EmptyHistory(SaSoftmaxError):
    """A metrics history with zero steps was passed where data is required."""


class LengthMismatch(SaSoftmaxError):
    """Two metrics histories differ in step count."""


class CorpusTooSmall(SaSoftmaxError):
    """The training corpus has fewer tokens than one training window."""


class UnknownSymbol(SaSoftmaxError):
    """Text contains a byte that is not part of the trained vocabulary, or a
    token batch an id outside it."""


class TextTooShort(SaSoftmaxError):
    """Evaluation text is shorter than one window."""


class NonFiniteGradient(SaSoftmaxError):
    """A parameter gradient became NaN or infinite during training."""


class CheckpointError(SaSoftmaxError, ValueError):
    """A checkpoint file is corrupt, truncated, or not a checkpoint at all."""


class ConfigError(SaSoftmaxError, ValueError):
    """A run setting is out of range: a config field, a sweep or gradcheck
    argument, or a variant name or kind. The CLI exits 2 on it."""


def _require_real(name: str, value) -> None:
    # a Python or numpy real; bool is an int subclass but not a setting's value
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ConfigError(f"{name} must be a real number, got {value!r}")


def _require_positive(name: str, value: float) -> None:
    _require_real(name, value)
    # written as `not ok` so that NaN fails too
    if not (0.0 < value < math.inf):
        raise ConfigError(f"{name} must be positive and finite, got {value}")


def _is_int(value) -> bool:
    # a Python or numpy integer; bool is an int subclass but not a count
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)

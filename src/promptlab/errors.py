"""Exception types shared across the package."""


class PromptLabError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(PromptLabError, ValueError):
    """Tensor shapes are incompatible for the requested operation."""


class NumericsError(PromptLabError, ArithmeticError):
    """A computation produced NaN or Inf."""


class ContractError(PromptLabError, ValueError):
    """An operation was called in a way that violates its contract."""


class CapacityError(PromptLabError, ValueError):
    """A composed sequence exceeds the encoder's maximum length."""


class ParameterError(PromptLabError, ValueError):
    """A numeric parameter is outside its valid range."""


class ConfigError(PromptLabError, ValueError):
    """A configuration value is invalid or inconsistent."""


class DataError(PromptLabError, ValueError):
    """A dataset or split does not satisfy a precondition."""


class IndexRangeError(PromptLabError, IndexError):
    """A class label or token id is outside the range it indexes."""


class TokenizationError(PromptLabError, KeyError):
    """A word is not present in the active vocabulary."""

    def __str__(self):
        # KeyError repr-quotes its argument; keep the plain message.
        return self.args[0] if self.args else ""


class FixtureLookupError(PromptLabError, KeyError):
    """A requested fixture entry does not exist."""

    def __str__(self):
        return self.args[0] if self.args else ""


class CheckpointError(PromptLabError, ValueError):
    """A checkpoint file is malformed or disagrees with the runtime config."""


class RemoteError(PromptLabError, RuntimeError):
    """A remote request failed after all retries."""


class ParseError(PromptLabError, ValueError):
    """A remote response could not be parsed."""


class ExtractionError(PromptLabError, ValueError):
    """A response did not yield the requested structured content."""

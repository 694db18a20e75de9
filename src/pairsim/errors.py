"""Exception types shared across the package.

The CLI maps these onto process exit codes: ConfigError -> 1,
DataError -> 2, NumericError -> 3.
"""


class ShapeError(ValueError):
    """Operands with incompatible dimensions; message names both shapes."""


class ConfigError(ValueError):
    """Bad or inconsistent configuration value."""


class DataError(ValueError):
    """Unreadable or malformed input data (datasets, embedding files)."""


class CheckpointError(ValueError):
    """Unreadable, truncated, or incompatible checkpoint file."""


class NumericError(ArithmeticError):
    """Non-finite value encountered during training or inference."""

    def __init__(self, message, batch_index=None):
        super().__init__(message)
        self.batch_index = batch_index

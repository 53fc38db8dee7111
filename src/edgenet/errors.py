"""Exception types shared across the toolkit.

Every error raised by edgenet derives from EdgenetError so callers (and the
CLI) can distinguish our failures from programming errors.
"""

from __future__ import annotations


class EdgenetError(Exception):
    """Base class for all edgenet errors."""


class ConfigError(EdgenetError):
    """Invalid or out-of-range configuration value."""


# --- data pipeline ---

class EmptyFile(EdgenetError):
    pass


class MissingColumn(EdgenetError):
    def __init__(self, columns):
        self.columns = list(columns)
        super().__init__(f"CSV header is missing required column(s): {', '.join(self.columns)}")


class ParseError(EdgenetError):
    """Unparseable or missing cell. ``row`` is the 1-based data row number."""

    def __init__(self, row: int, column: str, message: str = ""):
        self.row = row
        self.column = column
        detail = f": {message}" if message else ""
        super().__init__(f"row {row}, column '{column}'{detail}")


class BadCsv(EdgenetError):
    """Not usable CSV text: a byte that is not UTF-8, a field over the size
    limit, or a header that names a schema column twice."""


class EmptySplit(EdgenetError):
    """A train, validation or test split with no rows."""


class ScaleOverflow(ParseError):
    """The training range max - min overflows float64, e.g. for +-1e308."""


class UnknownCategory(EdgenetError):
    def __init__(self, value: str, column: str):
        self.value = value
        self.column = column
        super().__init__(f"value '{value}' in column '{column}' was not seen when the encoder was fitted")


class BadRatios(EdgenetError):
    pass


# --- network / numerics ---

class DimensionMismatch(EdgenetError):
    pass


class CacheMismatch(EdgenetError):
    """Backward pass received a cache that does not match the network or mode."""


class NonFiniteLoss(EdgenetError):
    """Training loss became NaN or infinite (divergence guard)."""


class EmptyTensor(EdgenetError):
    pass


# --- metrics ---

class LengthMismatch(EdgenetError):
    pass


class EmptyInput(EdgenetError):
    pass


class SingleClassInput(EdgenetError):
    """ROC needs at least one positive and one negative label."""


class NonFiniteScore(EdgenetError):
    """ROC received a NaN or infinite score."""


# --- model container ---

class StoreError(EdgenetError):
    """Base for model/dataset container format errors."""


class BadMagic(StoreError):
    pass


class VersionUnsupported(StoreError):
    pass


class CrcMismatch(StoreError):
    def __init__(self, path: str, tensor: str):
        self.tensor = tensor
        super().__init__(f"{path}: payload CRC mismatch for tensor '{tensor}'")


class MaskViolation(StoreError):
    def __init__(self, tensor: str):
        self.tensor = tensor
        super().__init__(f"tensor '{tensor}' has nonzero entries at masked positions")

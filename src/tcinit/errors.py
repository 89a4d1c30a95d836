"""Exception types shared across the package."""


class TcinitError(Exception):
    """Base class for all tcinit errors."""


class DimensionMismatch(TcinitError):
    """Paired contraction axes have unequal sizes."""


class AxisOutOfRange(TcinitError):
    """An axis index is outside a tensor's rank."""


class DuplicateAxis(TcinitError):
    """The same axis of one tensor was named twice in a contraction."""


class UnboundAxis(TcinitError):
    """A tensor axis appears in neither a contraction group nor the open list."""


class InvalidDummySpec(TcinitError):
    """Convolution index-pattern parameters violate their preconditions."""


class InvalidShape(TcinitError, ValueError):
    """A tensor shape or size is out of range or disagrees with its data.
    Also a ``ValueError``, which these checks raised before."""


class InvalidPadding(TcinitError):
    """Backward construction requires padding <= window - 1."""


class TooManyIndices(TcinitError):
    """A contraction needs more distinct indices than einsum has letters."""


class ParseError(TcinitError):
    """Format text could not be parsed.

    Carries 1-based ``line`` and ``column`` of the offending token.
    """

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ValidationError(TcinitError):
    """A layer format violates one or more structural invariants."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class InvalidParams(TcinitError):
    """Builtin format parameters are missing or inconsistent."""


class PlanIncomplete(TcinitError):
    """An initialization plan does not cover every weight vertex."""


class ShapeMismatch(TcinitError):
    """Adjacent layers or a layer and its input disagree on shapes."""


class ResourceLimit(TcinitError):
    """An array would exceed the memory limit; raised before allocating it."""

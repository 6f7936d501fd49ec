"""Shared exception types.

Everything user-facing raises one of these so the CLI can map failures to
exit code 1 with a message naming the offending input.
"""


class YamabeError(Exception):
    """Base class for all package errors."""


class DomainError(YamabeError):
    """Evaluation requested outside a profile's declared open domain."""


class PositivityError(YamabeError):
    """A profile that must stay positive (phi, f) failed a sampled check."""


class DimensionMismatchError(YamabeError):
    """Vector lengths or base/fiber dimensions are inconsistent."""


class ExpressionSyntaxError(YamabeError):
    """Parse failure; carries the byte offset and what was expected."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class EvaluationError(YamabeError):
    """Expression evaluated to a non-finite value or hit a math domain error."""


class BranchDomainError(YamabeError):
    """Lambert W argument outside the requested branch's real domain."""


class QuadratureError(YamabeError):
    """Integrand singular or tolerance unreachable; carries a bracket if known."""

    def __init__(self, message: str, bracket=None):
        super().__init__(message)
        self.bracket = bracket


class RootFindError(YamabeError):
    """Bracketing or Newton polishing failed during implicit inversion."""


class FamilyConstructionError(YamabeError):
    """Family parameters violate the construction's hypotheses; message quotes them."""


class SpecValidationError(YamabeError):
    """Spec document rejected; names the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"invalid field '{key}': {message}")
        self.key = key

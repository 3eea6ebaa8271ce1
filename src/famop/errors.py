"""Exception types and the instance budget shared across the package."""

# The instances an exhaustive check may run; an estimate over it raises
# ResourceBoundError before the check starts.
LAW_BUDGET = 500_000


class FamopError(Exception):
    """Base class for all package errors."""


class PreconditionError(FamopError, ValueError):
    """An argument violates a documented precondition."""


class ResourceBoundError(FamopError, RuntimeError):
    """A requested computation exceeds the configured size bounds."""


class ParseError(FamopError, ValueError):
    """Malformed textual input; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class MixingConsistencyError(FamopError, ValueError):
    """Color evaluation is not constant on some quotient class."""

    def __init__(self, class_rep: str):
        super().__init__(f"not a valid algebra for this presentation: "
                         f"evaluation is non-constant on the class of {class_rep}")
        self.class_rep = class_rep

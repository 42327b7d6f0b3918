"""Exception hierarchy shared across the toolkit, and the number rules checked with it."""

import math


class MeshCAError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(MeshCAError):
    """Invalid parameter or malformed input data."""


class RangeConfigError(ValidationError):
    """Transmission range incompatible with the requested grid geometry."""


class ConnectivityError(MeshCAError):
    """A connected random layout could not be drawn within the retry budget."""


class IncompleteAssignmentError(ValidationError):
    """Channel assignment does not match the topology's radios, or uses out-of-range channels."""


class NonGridTopologyError(ValidationError):
    """Operation requires a grid layout but the node positions do not form one."""


class BudgetExceededError(MeshCAError):
    """Exhaustive search space exceeds the configured enumeration budget."""

    def __init__(self, search_space: int, budget: int):
        self.search_space = search_space
        self.budget = budget
        super().__init__(
            f"exhaustive search space has {search_space} assignments, "
            f"which exceeds the budget of {budget}"
        )


def is_integer(value) -> bool:
    """An int that is not a bool: True and False are never a count, an id or a channel."""
    return isinstance(value, int) and not isinstance(value, bool)


def as_float(value, what: str) -> float:
    """value, an int or a float that is not a bool, as a float; else a ValidationError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{what} {value!r} is not a number")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{what} {value!r} is not a finite number") from None


def positive_float(value, what: str) -> float:
    """as_float(value, what), which must also be finite and > 0."""
    value = as_float(value, what)
    if not (math.isfinite(value) and value > 0):
        raise ValidationError(f"{what} must be a finite number > 0, got {value!r}")
    return value

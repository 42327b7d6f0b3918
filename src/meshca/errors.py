"""Exception hierarchy shared across the toolkit."""


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

"""Exception taxonomy shared across the package."""


class EolstopError(Exception):
    """Base class for all package-specific errors."""


class NonNormalizable(EolstopError):
    """No nonnegative intensity profile achieves the requested total demand."""


class OutOfHorizon(EolstopError, ValueError):
    """Time argument outside [0, T]."""


class OutOfGrid(EolstopError, IndexError):
    """(period, inventory) outside the kernel table bounds."""


class CapSaturated(EolstopError):
    """An optimal order-up-to search hit the inventory cap; results would be truncated.

    ``tables`` holds the positions, in a pass over several kernel tables, of
    the tables that hit it."""

    def __init__(self, message: str, tables=()):
        super().__init__(message)
        self.tables = tuple(tables)


class BudgetMisuse(EolstopError, ValueError):
    """Model specification outside the supported taxonomy."""


class PolicyIncompatible(EolstopError):
    """Operation requires a policy solved with dynamic stopping."""


class AssumptionViolated(EolstopError):
    """Switching-time analytics called outside the POS/NON-INC assumption set."""


class NotFound(EolstopError):
    """A bounded search exhausted its grid without satisfying the condition."""


class UnreachableState(EolstopError):
    """Simulation reached a state the policy table does not cover."""


class ConfigError(EolstopError, ValueError):
    """Experiment configuration failed validation."""

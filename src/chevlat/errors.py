"""Shared exception types."""


class SizeCapError(RuntimeError):
    """Raised when a requested enumeration would exceed the element cap."""

    def __init__(self, needed: int, cap: int, what: str = "group", unit: str = "elements"):
        self.needed = needed
        self.cap = cap
        super().__init__(f"{what} has {needed} {unit}, exceeding the cap of {cap}")


class TableBoundError(SizeCapError):
    """Raised when an element table's keys or indices would not fit their
    integer type; `needed` is the size asked for, `cap` the bound."""

    def __init__(self, needed: int, cap: int, message: str):
        self.needed = needed
        self.cap = cap
        RuntimeError.__init__(self, message)


class TheoremViolation(AssertionError):
    """A verified statement failed on a model that satisfies its hypotheses."""

    def __init__(self, anchor: str, message: str, witness=None):
        self.anchor = anchor
        self.witness = witness
        super().__init__(f"{anchor}: {message}")


class ConfigError(ValueError):
    """Malformed run configuration."""

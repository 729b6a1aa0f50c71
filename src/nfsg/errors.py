"""Typed exceptions shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class InvalidArgumentError(ValueError):
    """A structurally invalid argument (bad count, index out of range, ...)."""


class DegenerateSupportError(DomainError):
    """A conditional distribution was requested on an empty support."""


class ConfigError(ValueError):
    """Configuration document is malformed; message names the offending key."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")


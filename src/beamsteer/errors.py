"""Exception types shared across the package."""


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class BlowUpError(RuntimeError):
    """A simulated trajectory exceeded the divergence guard."""


class ConfigError(InvalidArgumentError):
    """An experiment configuration violates a constraint."""

"""Exception types shared across the library."""


class DomainError(ValueError):
    """A parameter lies outside the supported mathematical domain."""


class GridMismatchError(ValueError):
    """A requested time does not lie on the uniform sample grid."""


class ModelValidationError(ValueError):
    """A model configuration violates one of its construction-time checks.

    ``hypothesis`` names the violated condition (e.g. ``"(H5)"``) when the
    check corresponds to one of the standing assumptions.
    """

    def __init__(self, message, hypothesis=None):
        super().__init__(message)
        self.hypothesis = hypothesis


class ConfigError(ValueError):
    """Experiment configuration text failed to parse or validate."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class PicardDivergenceError(RuntimeError):
    """The Picard iteration failed to contract within its iteration budget."""

    def __init__(self, message, residual_history=()):
        super().__init__(message)
        self.residual_history = list(residual_history)


class OuterLoopDivergenceError(RuntimeError):
    """The control/trajectory alternation failed to reach a fixed point."""

    def __init__(self, message, residual_history=()):
        super().__init__(message)
        self.residual_history = list(residual_history)

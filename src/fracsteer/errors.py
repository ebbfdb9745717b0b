"""Exception types shared across the library."""


class DomainError(ValueError):
    """A parameter lies outside the supported mathematical domain."""


class GridMismatchError(ValueError):
    """Arrays sampled on a time grid disagree in shape with it or each other."""


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
    """A fixed-point iteration did not settle within its budget: the Picard
    solve of the mild solution or the closed loop's control/trajectory
    alternation.  ``residual_history`` holds the change of each iteration."""

    def __init__(self, message, residual_history=()):
        super().__init__(message)
        self.residual_history = list(residual_history)

"""Exception types shared across the library."""


class DomainError(ValueError):
    """A parameter lies outside the supported mathematical domain; ``key``
    names its field, if it has one (the dataclass field, also its config key)."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class GridMismatchError(ValueError):
    """Arrays sampled on a time grid disagree in shape with it or each other."""


class ModelValidationError(ValueError):
    """A model configuration violates one of its construction-time checks.

    ``hypothesis`` names the violated condition (e.g. ``"(H5)"``) when the
    check corresponds to one of the standing assumptions, and ``key`` the
    offending field as ``DomainError`` does.
    """

    def __init__(self, message, hypothesis=None, key=None):
        super().__init__(message)
        self.hypothesis = hypothesis
        self.key = key


class ConfigError(ValueError):
    """Experiment configuration text failed to parse or validate: a key is
    rejected as ``line L: [section] key: message [violates (Hn)]``, with no
    line for a key the text did not give (a default or an override)."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class PicardDivergenceError(RuntimeError):
    """A fixed-point iteration did not settle within its budget: the Picard
    solve of the mild solution or the closed loop's control/trajectory
    alternation, both run by ``solver.fixed_point``.  The message gives the
    last change and says when it is rounding of the iterate (a stall, not a
    failure to contract).  ``residual_history`` holds each change."""

    def __init__(self, message, residual_history=()):
        super().__init__(message)
        self.residual_history = list(residual_history)

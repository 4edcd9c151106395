"""Exception types shared across the package."""


class DivergedError(RuntimeError):
    """An iteration produced a non-finite or unbounded quantity; the
    message names the iteration."""


class BoxViolationError(RuntimeError):
    """A visited (t, jet) point left the regularization box."""


class OracleInfeasibleError(RuntimeError):
    """The nodewise residual cannot be interpolated by a single function
    of the jet: two (near-)identical jet points carry different residuals."""


class ConfigError(ValueError):
    """A config that fails strict parsing or diverges in simulation; given
    the config line at fault, the message starts with `line N: `."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)

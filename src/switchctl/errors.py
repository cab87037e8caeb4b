"""Exception taxonomy shared across the library.

Every error that can surface through the CLI carries an ``exit_code``
matching the documented contract: 2 for configuration problems, 3 for
numeric failures, 4 for non-convergence of an iterative solver.
"""


class SwitchctlError(Exception):
    """Base class for all library errors."""

    exit_code = 3


class ConfigError(SwitchctlError):
    """Invalid configuration: bad keys, malformed expressions, bad grids."""

    exit_code = 2


class GeometryError(ConfigError):
    """Switching geometry violates the threshold ordering at some state."""


class ResolutionError(ConfigError):
    """A requested quantity is not resolvable on the configured grids."""


class DomainError(ConfigError):
    """An argument lies outside the domain an operation is defined on."""


class NumericError(SwitchctlError):
    """Quadrature failure, simulation blow-up, division by zero, ..."""

    exit_code = 3


class ConvergenceError(SwitchctlError):
    """An iterative solver exhausted its iteration budget."""

    exit_code = 4

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class ExpressionError(ConfigError):
    """Syntax error in a coefficient expression; carries the byte offset."""

    def __init__(self, message, text=None, offset=None):
        if text is not None and offset is not None:
            caret = " " * offset + "^"
            message = f"{message} (at byte {offset})\n  {text}\n  {caret}"
        super().__init__(message)
        self.text = text
        self.offset = offset

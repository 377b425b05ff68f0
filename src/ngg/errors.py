"""Exception types shared across the package."""

from typing import Optional


class NggError(Exception):
    """Base class for all package-specific errors."""


class InvalidParamError(NggError, ValueError):
    """A bad argument, parameter, path or file (wrong type, range or content).

    .field names the parameter or config field at fault (`beta`, or
    `game.beta` from a config), or is None where no one field is.
    """

    def __init__(self, message: str, field: Optional[str] = None):
        self.field = field
        super().__init__(message)


class ConnectivityFailureError(NggError):
    """No connected network was produced within the retry budget."""

    def __init__(self, attempts: int, detail: str = ""):
        self.attempts = attempts
        msg = f"no connected network after {attempts} attempts"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


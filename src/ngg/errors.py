"""Exception types shared across the package."""


class NggError(Exception):
    """Base class for all package-specific errors."""


class InvalidParamError(NggError, ValueError):
    """A bad argument, parameter, path or file (wrong type, range or content)."""


class ConnectivityFailureError(NggError):
    """No connected network was produced within the retry budget."""

    def __init__(self, attempts: int, detail: str = ""):
        self.attempts = attempts
        msg = f"no connected network after {attempts} attempts"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class ValidationError(NggError):
    """The configuration parsed but a field is missing, unknown, or out of range."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")

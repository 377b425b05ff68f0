"""Exception types shared across the package."""


class NggError(Exception):
    """Base class for all package-specific errors."""


class InvalidParamError(NggError, ValueError):
    """A model or game parameter is outside its legal range."""


class ConnectivityFailureError(NggError):
    """No connected network was produced within the retry budget."""

    def __init__(self, attempts: int, detail: str = ""):
        self.attempts = attempts
        msg = f"no connected network after {attempts} attempts"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class DisconnectedError(NggError):
    """A statistic that requires a connected network was asked of one that is not."""


class UnknownSourceError(NggError):
    """A word was scheduled for transmission that nobody spoke this round."""


class EmptyTraceError(NggError):
    """A summary was requested for a run that recorded no iterations."""


class ParseError(NggError):
    """A config file cannot be read or is not valid JSON."""


class ValidationError(NggError):
    """The configuration parsed but a field is missing, unknown, or out of range."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")

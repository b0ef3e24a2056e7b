"""Exception types shared across the package."""


class MimosecError(ValueError):
    """Base class for all errors raised by this package."""


class ConfigurationError(MimosecError):
    """Inconsistent or out-of-range system parameters, naming any one at fault in ``field``."""

    def __init__(self, message: str, *, field: str | None = None):
        self.field = field
        super().__init__(message)


class DegenerateChannelError(MimosecError):
    """A channel coefficient required to be non-zero is exactly zero."""


class SingularChannelError(MimosecError):
    """Effective channel too ill-conditioned for zero-forcing inversion."""


class InfeasibleSelectionError(MimosecError):
    """Requested antenna selection cannot be satisfied (e.g. L > M)."""


class FitError(MimosecError):
    """Curve fit is undefined for the given data (degenerate regressor)."""


class ConfigParseError(MimosecError):
    """Malformed configuration document.

    Carries the offending key and line number when they are known.
    """

    def __init__(self, reason: str, *, path: str | None = None,
                 key: str | None = None, line: int | None = None):
        super().__init__(reason)
        self.reason, self.path, self.key, self.line = reason, path, key, line

    def __str__(self) -> str:
        where = [f"{self.path}" if self.path is not None else "",
                 f"line {self.line}" if self.line is not None else "",
                 f"key '{self.key}'" if self.key is not None else ""]
        prefix = " ".join(w for w in where if w)
        return f"{prefix}: {self.reason}" if prefix else self.reason

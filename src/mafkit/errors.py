"""Exception hierarchy shared by all mafkit modules.

Each class declares the CLI exit status of its errors as `exit_code`: 2 for
a bad configuration, 3 for bad data, and 4, the base class's, for a
numerical condition that failed on valid input.
"""


class MafkitError(Exception):
    """Base class for all mafkit errors."""

    exit_code = 4


class InvalidInputError(MafkitError):
    """Malformed numeric input: non-finite values, bad shapes, zero vectors."""

    exit_code = 3


class InsufficientDataError(MafkitError):
    """Too few observations for the requested operation."""

    exit_code = 3


class SingularMatrixError(MafkitError):
    """A matrix required to be (numerically) positive definite is not."""


class DegenerateSeriesError(MafkitError):
    """A series is constant (or otherwise carries no usable variation)."""

    exit_code = 3


class DegenerateResidualError(MafkitError):
    """Smoother residuals are numerically zero; the SNR statistic is undefined."""

    exit_code = 3


class ParameterPoleError(MafkitError):
    """A closed-form expression was evaluated at a pole of its parameters."""


class InvalidConfigError(MafkitError):
    """Inconsistent or out-of-range run configuration."""

    exit_code = 2


class CsvParseError(MafkitError):
    """CSV input violates the expected panel schema.

    Carries optional 1-based ``row``/``column`` locations for tooling.
    """

    exit_code = 3

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column

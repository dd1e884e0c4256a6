"""Exception hierarchy shared across the package."""


class PovdynError(Exception):
    """Base class for all package errors."""


class ConfigError(PovdynError):
    """Invalid configuration value or config file."""


class DataError(PovdynError):
    """Malformed or inconsistent input data."""


class SeriesFormatError(DataError):
    """CSV series could not be parsed (carries line/year context)."""


class NonContiguousSeriesError(DataError):
    """A year-indexed series has interior gaps where none are allowed."""


class ExtrapolationRefusedError(DataError):
    """Filling would require values outside the observed year range."""


class InvalidTargetError(PovdynError):
    """Initialization or calibration target share outside its range."""


class PropagationOverflowError(PovdynError):
    """An agent's income became non-finite during propagation."""

    def __init__(self, agent: int, year: int):
        self.agent = agent
        self.year = year
        super().__init__(
            f"non-finite income for agent {agent} while stepping year {year}"
        )


class UnusableBracketError(PovdynError):
    """No rate in the calibration bracket steps to a usable population."""


class UndefinedShareError(PovdynError):
    """Bottom share is undefined (total income is not positive)."""


class UndefinedGiniError(PovdynError):
    """Gini is undefined (value sum is not positive)."""


class CalibrationDivergenceError(PovdynError):
    """Target share unreachable within the tau bracket (strict mode only)."""


class OutputError(PovdynError):
    """Failure while writing result files."""

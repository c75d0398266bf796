"""Exception types shared across the package."""


class SdrMatchError(Exception):
    """Base class for all sdrmatch errors."""


class InvalidMatrix(SdrMatchError):
    """Input is not a usable matrix (non-square, asymmetric, non-finite)."""


class NotPSD(SdrMatchError):
    """Matrix required to be positive semi-definite has a negative eigenvalue."""


class InvalidArgument(SdrMatchError):
    """Argument outside its documented domain."""


class SchemaError(SdrMatchError):
    """CSV schema problem: a referenced column does not exist."""


class ParseError(SdrMatchError):
    """CSV cell could not be parsed; message carries row and column."""


class InsufficientData(SdrMatchError):
    """Too few subjects for the requested fit."""


class SliceError(SdrMatchError):
    """Outcome ties collapsed the slicing below two usable slices."""


class DegenerateLabels(SdrMatchError):
    """Binary labels contain only one class."""


class InsufficientDonors(SdrMatchError):
    """Opposite treatment group is smaller than the requested match count."""


class ConfigError(SdrMatchError):
    """Scenario coefficient configuration is missing or malformed."""

"""Exception types shared across the library."""


class CaError(Exception):
    """Base class for all errors raised by this package."""


class ContractViolationError(CaError, ValueError):
    """An argument breaks a documented precondition."""


class EmptyDatasetError(ContractViolationError):
    """A dataset with zero samples was supplied."""


class CapacityError(CaError):
    """A problem size exceeds the supported bounds."""


class NumericFailureError(CaError, ArithmeticError):
    """An iterative numeric routine failed to converge."""


class NotPsdError(NumericFailureError):
    """A matrix required to be positive semi-definite is not."""


class SingularCovarianceError(NumericFailureError):
    """A covariance matrix is singular where an inverse is required."""


class DegenerateEmbeddingError(CaError):
    """Encoder outputs collapsed to a rank-deficient covariance."""


class TrainingDivergedError(CaError):
    """Training produced a non-finite loss."""

    def __init__(self, message, epoch):
        super().__init__(message)
        self.epoch = epoch


class UnsupportedOperationError(CaError):
    """The operation is not defined for the given data kind."""


class CsvParseError(CaError):
    """A delimited text file could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line

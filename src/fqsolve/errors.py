"""Exception types shared across the package."""


class FqsolveError(Exception):
    """Base class for all package-specific errors."""


class NotPrimePowerError(FqsolveError, ValueError):
    """The requested field order is not a prime power."""


class FieldTooLargeError(FqsolveError, ValueError):
    """The requested field order exceeds the supported table budget."""


class DegreeTooHighError(FqsolveError, ValueError):
    """A polynomial's total degree exceeds the degree bound of a point set."""


class SizeMismatchError(FqsolveError, ValueError):
    """An evaluation vector does not match its point set."""


class InvalidParamsError(FqsolveError, ValueError):
    """Solver parameters violate their invariants."""


class TooLargeError(FqsolveError, ValueError):
    """A request would allocate past a size limit; raised by every size
    check before the allocation."""


class PesFormatError(FqsolveError, ValueError):
    """Malformed polynomial-system text input."""


class DimacsFormatError(FqsolveError, ValueError):
    """Malformed DIMACS CNF input."""

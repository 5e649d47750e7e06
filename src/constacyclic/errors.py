"""Exception types shared across the package."""


class NotPrime(ValueError):
    """Requested characteristic is not a prime number."""


class TooLarge(ValueError):
    """Requested object exceeds the supported desk-scale bounds."""


class NonUnit(ValueError):
    """Integer is not invertible modulo its modulus."""


class NotClosed(ValueError):
    """Set is not closed under the required multiplication."""


class NotInvariant(ValueError):
    """Set (or polynomial) is not invariant under the required multiplier."""


class SettingMismatch(ValueError):
    """Operands belong to different code settings or fields."""


class DivideByZero(ZeroDivisionError):
    """Division by the zero polynomial or zero field element."""


class NoSplitting(RuntimeError):
    """No duadic splitting of the requested kind exists for the setting."""


class BadQ(ValueError):
    """Field size fails the precondition of the requested construction."""


class BadLambda(ValueError):
    """Constacyclic unit has the wrong multiplicative order."""


class Internal(RuntimeError):
    """Invariant violation that indicates a bug rather than bad input."""

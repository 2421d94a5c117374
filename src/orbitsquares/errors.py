"""Exception types shared across the package.  A malformed or out-of-domain
argument raises ValueError; a class here names what a ValueError cannot: a
hypothesis of the paper's theorems that the input fails (NotTwoOrdinary,
NotPurelyPeriodic), the degree budget of f^n (DegreeBudgetExceeded), or
division by zero (DivisionByZero, also a ZeroDivisionError)."""


class OrbitSquaresError(Exception):
    """Base class for all package-specific errors."""


class DivisionByZero(OrbitSquaresError, ZeroDivisionError):
    pass


class DegreeBudgetExceeded(OrbitSquaresError):
    pass


class NotPurelyPeriodic(OrbitSquaresError):
    pass


class NotTwoOrdinary(OrbitSquaresError):
    pass

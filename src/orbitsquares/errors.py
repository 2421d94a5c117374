"""Exception types shared across the package."""


class OrbitSquaresError(Exception):
    """Base class for all package-specific errors."""


class NotPrime(OrbitSquaresError):
    pass


class EvenCharacteristic(OrbitSquaresError):
    pass


class ReducibleModulus(OrbitSquaresError):
    pass


class MixedFields(OrbitSquaresError):
    pass


class DivisionByZero(OrbitSquaresError, ZeroDivisionError):
    pass


class NonSquare(OrbitSquaresError):
    pass


class BothZero(OrbitSquaresError):
    pass


class ConstantInput(OrbitSquaresError):
    pass


class DegreeBudgetExceeded(OrbitSquaresError):
    pass


class DegreeTooSmall(OrbitSquaresError):
    pass


class DegreeMismatch(OrbitSquaresError):
    pass


class ZeroA(OrbitSquaresError):
    pass


class NotPurelyPeriodic(OrbitSquaresError):
    pass


class NotTwoOrdinary(OrbitSquaresError):
    pass


"""Exception types shared across the package."""


class CcmaError(Exception):
    """Base class for all package errors."""


class GuardExceeded(CcmaError):
    """An enumeration would touch more objects than the configured limit."""

    def __init__(self, what, size, limit):
        super().__init__(f"{what}: {size} objects exceeds guard limit {limit}")
        self.what = what
        self.size = size
        self.limit = limit


class InvalidRequest(CcmaError):
    """A request names what does not exist: a strategy, a field size, a flag."""


class FieldMismatch(CcmaError):
    """Two operands live over incompatible fields or algebras."""


class PoleAtPlace(CcmaError):
    """A local expansion was requested at a pole of the function."""


class NonCoprimeModuli(CcmaError):
    """CRT moduli share an irreducible factor."""


class DegreeOverflow(CcmaError):
    """A residue does not fit below its modulus degree."""


class MalformedPayload(CcmaError):
    """A stored algorithm or curve instance is not an object, lacks a key or is not canonical."""


class VerificationError(CcmaError):
    """A bilinear algorithm failed its exhaustive correctness check."""


class PlanInfeasible(CcmaError):
    """No evaluation plan exists within the user-imposed caps."""


class DivisorSearchFailed(CcmaError):
    """Bounded divisor search exhausted its candidate budget."""


class ConditionFailure(CcmaError):
    """An interpolation condition (surjectivity/injectivity) does not hold."""


class SupercodeConditionError(CcmaError):
    """A supercode condition is violated; `condition` is 1 or 2."""

    def __init__(self, condition, message):
        super().__init__(message)
        self.condition = condition


class DegenerateDecomposition(CcmaError):
    """The A matrix of a decomposition has rank below the algebra dimension."""

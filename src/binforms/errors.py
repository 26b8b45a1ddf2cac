"""Exception types shared across the package."""


class BinformsError(Exception):
    """Base class for all package errors."""


class FormSyntaxError(BinformsError):
    """Input text does not match the form grammar."""


class InputTooLargeError(BinformsError):
    """Input past a parser limit on degree, exponent or coefficient bits."""


class NotHomogeneousError(BinformsError):
    """Parsed polynomial mixes total degrees."""


class ZeroFormError(BinformsError):
    """Operation requires a nonzero form."""


class OddDegreeError(BinformsError):
    """Operation requires an even-degree form."""


class DegreeMismatchError(BinformsError):
    """Two forms of different degrees where equal degrees are required."""


class SingularSubstitutionError(BinformsError):
    """Linear change of variables with determinant zero."""


class ZeroPolynomialError(BinformsError):
    """Operation requires a nonzero polynomial."""


class RankOutOfRangeError(BinformsError):
    """Hankel block degree outside 1..d."""


class DimensionMismatchError(BinformsError):
    """Vector/matrix dimensions do not match."""


class PrecisionExhaustedError(BinformsError):
    """Refinement budget spent before the requested tolerance was met."""


class NotIncomparableError(BinformsError):
    """Badge pair is comparable where an incomparable pair is required."""


class DegenerateRepresentationError(BinformsError):
    """Representation too small or with zero expansion for a certificate."""


class InternalCheckError(BinformsError):
    """An exact check that a result rests on failed: the engine is at fault,
    not the input.  Raised instead of asserting so it survives `python -O`."""


class SylvesterRejectionError(BinformsError):
    """Candidate coefficient vector is not a valid Sylvester form."""

    NOT_SQUAREFREE = "not-squarefree"
    COMPLEX_ROOTS = "complex-roots"
    REPEATED_INFINITY = "repeated-infinity"
    ZERO = "zero-candidate"

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)

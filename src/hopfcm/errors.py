"""Exception types shared across the package."""


class HopfcmError(Exception):
    """Base class for all domain errors raised by this package."""


class DivisionByZero(HopfcmError):
    """A field element with an identically zero denominator was formed."""


class PoleAtPoint(HopfcmError):
    """A rational expression was evaluated where its denominator vanishes."""


class SchemaError(HopfcmError):
    """A system definition document violates the input schema."""


class RegionUndefined(HopfcmError):
    """A catalog family was built at parameters outside its domain (a radical
    of the closed-form equilibrium is not real, or a required coefficient is
    zero)."""


class SingularTransform(HopfcmError):
    """A coordinate change with a singular linear part was requested."""


class NotHopf(HopfcmError):
    """The equilibrium does not satisfy the Hopf eigenvalue conditions."""


class BadTransform(HopfcmError):
    """The supplied matrix does not reduce the linear part to rotation + axis."""


class NotRealSystem(HopfcmError):
    """A focus quantity came out with a nonzero imaginary part, so the
    complexified system was not the image of a real field."""


class DegenerateLambda(HopfcmError):
    """The transverse eigenvalue is zero, so the recursion divisors degenerate."""


class NotAFirstIntegralCandidate(HopfcmError):
    """A constant function was offered as a first-integral candidate."""


class FocusObstruction(HopfcmError):
    """A secular (nonzero-mean) radial term appeared in the periodic-solution
    construction: the point is a focus at this order, not a center.

    ``value`` is normalized so that at the first obstruction it equals the
    matching focus quantity (the radial first-return coefficient divided by pi).
    """

    def __init__(self, order, value):
        self.order = order
        self.value = value
        super().__init__(f"focus obstruction at radial order {order}: {value}")


class TruncationTooLow(HopfcmError):
    """A jet was asked for a homogeneous part beyond its truncation degree."""


class BadPivots(HopfcmError):
    """The chosen pivot parameters do not make the leading linear parts
    invertible, or a quantity of a cyclicity bound does not vanish at the
    expansion point."""


class StiffnessFailure(HopfcmError):
    """The adaptive integrator underflowed its step size."""


class WorkCeiling(HopfcmError):
    """An integration reached its fixed ceiling of right-hand-side evaluations."""


class NoReturn(HopfcmError):
    """The orbit failed to return to the Poincare section within the horizon."""

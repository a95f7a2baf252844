"""Exception types shared across the package."""


class CrsingError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(CrsingError):
    """Operands live in polynomial rings of different ambient dimension."""


class UnknownVariable(CrsingError):
    """A variable name does not match z<k>, zb<k> or w."""


class IndexOutOfRange(CrsingError):
    """A variable or field index lies outside 1..n."""


class WVariablePresent(CrsingError):
    """The operation requires a polynomial without the w variable."""


class ConstantTermInSubstitution(CrsingError):
    """The polynomial substituted for w has a nonzero constant term."""


class PolyParseError(CrsingError):
    """Syntax error while reading a polynomial expression."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)


class ManifoldSpecError(CrsingError):
    """A manifold description violates the documented schema."""


class AsymmetricMatrix(ManifoldSpecError):
    """A bilinear coefficient matrix that must be symmetric is not."""

    def __init__(self, which):
        self.which = which
        super().__init__("matrix %s must be symmetric" % which)


class EOrderTooLow(ManifoldSpecError):
    """The higher-order term E contains terms of total degree below three."""


class RequiresNGe2(CrsingError):
    """The operation is only defined for ambient dimension n >= 2."""


class NotCR(CrsingError):
    """The function fails the CR equations; degree points at the offending
    homogeneous part when known."""

    def __init__(self, message, degree=None):
        self.degree = degree
        super().__init__(message)


class NoExtension(CrsingError):
    """The linear matching system for a holomorphic extension is
    inconsistent; degree identifies the homogeneous part that failed."""

    def __init__(self, message, degree=None):
        self.degree = degree
        super().__init__(message)


class DegenerateQuadric(CrsingError):
    """The quadric has no antiholomorphic part at all (A = B = 0)."""


class RankTooLow(CrsingError):
    """The stacked coefficient matrix has rank below two."""


class RankNotOne(CrsingError):
    """Normalization applies only to quadrics of stacked rank exactly one."""


class SingularTransform(CrsingError):
    """The linear change of coordinates is not invertible."""


class FirstIntegralError(CrsingError):
    """A candidate first integral fails a precondition other than the CR
    equations (not real valued, or wrong quadratic part)."""

"""Exception hierarchy shared by all modules."""


class WeingartenError(Exception):
    """Base class for every error raised by this package."""


class DomainError(WeingartenError):
    """Input outside the domain of the question asked; the CLI reports it
    as one ``error:`` line with exit code 2."""


class ZeroPolynomial(DomainError):
    """A nonzero polynomial was required (the zero relation holds on every surface)."""


class ZeroRadius(DomainError):
    """The substitution radius must be nonzero."""


class InternalMismatch(WeingartenError):
    """A mandatory internal cross-check failed; indicates a bug, never user error."""


class NonpositiveRadius(DomainError):
    """Tube radii must be positive."""


class DegenerateRelation(DomainError):
    """Linear relation a*x + b*y - c with (a, b) = (0, 0)."""


class NonpositiveLength(DomainError):
    """Second-fundamental-form length must be positive."""


class NotMember(DomainError):
    """Polynomial does not vanish on the given surface."""


class LinearInput(DomainError):
    """Operation requires a nonlinear polynomial (total degree >= 2)."""


class DimensionMismatch(WeingartenError):
    """Vector arguments have incompatible or unsupported dimensions."""


class DegenerateFrame(DomainError):
    """Curve is not biregular at this parameter; no Frenet frame exists."""


class LightlikeNormal(DomainError):
    """Normal vector is numerically lightlike; unsupported degenerate configuration."""


class InvalidSpecRow(DomainError):
    """Requested curve-causality/section combination does not exist."""


class FormUnderflow(DomainError):
    """First fundamental form E*G - F**2 underflows to 0 at a regular point:
    the tube radius is too small for double precision."""


class IrregularPoint(WeingartenError):
    """Tube parametrization is singular (|xi| below cutoff) at the requested point."""


class NoRegularPoints(DomainError):
    """Every grid point was irregular; nothing to sample."""


class GridTooLarge(DomainError):
    """Sample grid has more points than the verification budget allows."""


class DegreeTooLarge(DomainError):
    """Parsed exponent or product has a total degree over the input budget."""


class UnwritableOutput(DomainError):
    """An output file named on the command line cannot be opened or written."""


class PolySyntaxError(WeingartenError):
    """Polynomial expression could not be parsed.  Carries the input position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariable(PolySyntaxError):
    """Variable name outside the allowed set."""


class NonIntegerExponent(PolySyntaxError):
    """Exponent is not a nonnegative integer literal."""

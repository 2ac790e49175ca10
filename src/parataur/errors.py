"""Error types shared across the toolkit.

Every user-facing failure is an instance of ParataurError so the CLI can
report the specific error name and exit with code 1.
"""


class ParataurError(Exception):
    """Base class for all toolkit errors."""

    @property
    def name(self) -> str:
        return type(self).__name__.removesuffix("Error")


class ModelSyntaxError(ParataurError):
    """Malformed model text (bad JSON shape, bad atom syntax)."""

    def __init__(self, message: str, where: str | None = None):
        super().__init__(message if where is None else f"{message} (in {where})")


class UnknownIdentifierError(ParataurError):
    """An atom, reset, or location reference names an undeclared identifier."""


class MalformedBoundsError(ParataurError):
    """Parameter bounds are not natural-number intervals, or only some
    parameters carry bounds."""


class NotLUError(ParataurError):
    """Operation requires a lower/upper parameter partition and none exists."""


class OpenBoundsError(ParataurError):
    """Operation requires closed (or absent) parameter bounds."""


class UnboundedError(ParataurError):
    """Operation requires finite parameter bounds on every parameter."""


class UnboundedUniversalityError(ParataurError):
    """Worst-case extreme valuation needs a finite upper bound for every
    lower parameter (and vice versa) and the model has none."""


class NotAZoneError(ParataurError):
    """Polyhedron is not a parametric zone: a clock constraint is not
    rectangular or diagonal with unit clock coefficients."""


class EmptyInitialError(ParataurError):
    """The initial location's invariant excludes the origin for every
    parameter valuation, so the model has no runs at all."""


class ZoneShapeError(ParataurError):
    """Diagnostic: a successor computation produced a constraint outside the
    parametric-zone fragment.  This indicates a bug in the operators, not in
    the input model."""


class InternalError(ParataurError):
    """An internal consistency check failed.  This indicates a bug in the
    toolkit, not in the input model."""

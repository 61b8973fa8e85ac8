"""Exception types shared across the package, and the default caps behind
DimensionCap and LevelCap."""

DEFAULT_DIM_CAP = 10**6  # largest dim V(lambda) built by default
DEFAULT_LEVEL_CAP = 200000  # most vertices on one growth-graph level, by default


def format_weight(v) -> str:
    """A weight as error text: (2, -1/2), rationals printed as p/q."""
    return "(" + ", ".join(str(c) for c in v) + ")"


class WeylWalksError(Exception):
    """Base class for all domain errors raised by this package."""


class UnsupportedType(WeylWalksError):
    """Requested Cartan type is not a supported simple type at desk scale."""


class DimensionCap(WeylWalksError):
    """A representation-dimension guard was exceeded."""


class LevelCap(WeylWalksError):
    """A growth-graph level grew past the configured vertex cap."""


class EnumerationCap(WeylWalksError):
    """An exact enumeration would exceed the configured word cap."""


class InvalidWeight(WeylWalksError, ValueError):
    """A weight argument is not dominant integral, of the right rank or nonzero."""


class OrderViolation(WeylWalksError):
    """mu - lambda is not a nonnegative integer combination of simple roots."""


class NotAdmissible(WeylWalksError):
    """The given subset of simple roots is not delta-admissible."""


class NotInPolytope(WeylWalksError):
    """The given point lies outside the weight polytope K(delta)."""


class NotDominantDrift(WeylWalksError):
    """A chamber measure was requested for a drift outside K(delta)+."""


class NotAWeight(WeylWalksError):
    """The given lattice point is not a weight at the requested level."""


class NoConvergence(WeylWalksError):
    """The drift-inversion Newton solve failed to reach tolerance."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}

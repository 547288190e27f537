"""Exception types shared across the package."""


class QtcharError(Exception):
    """Base class for all package errors."""


class UnsupportedType(QtcharError):
    """Requested Lie type is outside the simply-laced families A, D, E."""


class NotInRootLattice(QtcharError):
    """A weight does not lie in the root lattice."""


class DomainError(QtcharError):
    """Arguments outside the domain of a coefficient operation."""


class NotComparable(QtcharError):
    """Monomial quotient is not a product of inverse simple affinizations."""


class NotDominant(QtcharError):
    """Expansion requested at a monomial that is not dominant for the node."""


class InconsistentExpansion(QtcharError):
    """Two nodes force contradictory coefficients during character expansion."""


class InternalError(QtcharError):
    """An internal consistency guarantee was violated; signals a bug."""


class ParseError(QtcharError):
    """Malformed textual input."""

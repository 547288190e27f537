"""Exception types shared across the package, and the integer readers of
its text parsers and constructors, which raise them."""

import operator
import sys


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


def _parse_int(text: str) -> int:
    """The integer a decimal numeral spells, for text a parser has matched.
    int refuses a numeral past the interpreter's int-string limit
    (sys.get_int_max_str_digits, 4,300 digits by default) with a bare
    ValueError; this raises ParseError instead."""
    try:
        return int(text)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"{len(text.lstrip('+-'))}-digit number past the limit of {limit} digits") from None


def _integer(x) -> int:
    """x as an int, for an entry of a monomial or root datum: an int, or
    an object operator.index accepts; anything else, a float with an
    integral value included, raises DomainError rather than being
    truncated."""
    try:
        return operator.index(x)
    except TypeError:
        raise DomainError(f"{x!r} is not an integer") from None

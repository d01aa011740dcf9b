"""Exception types shared across the package.

A bad value (a wrong type, length or range: a non-integer entry, a letter
above the rank, a matrix of the wrong shape) raises ValueError, and
require_int is the one rule for what counts as an integer.  A violated
mathematical precondition (a cyclic matrix, a word that is no reflection,
a vector that is no real root) raises a subclass of ArcrootsError.  The
command line maps both to exit 2.  Exceptions that signal an internal
invariant breaking (rather than bad input) say so in their docstring.
"""

from __future__ import annotations


class ArcrootsError(Exception):
    """Base class for the package's violated-precondition errors."""


def require_int(value: object, name: str) -> int:
    """Return value if it is an int other than a bool, else raise
    ValueError naming it, so that 2.9, "2" or true never load as 2 or 1.
    The message quotes at most 80 characters of the value's repr, so a
    large or deeply nested entry is not echoed back whole."""
    if isinstance(value, bool) or not isinstance(value, int):
        text = repr(value)
        if len(text) > 80:
            text = text[:77] + "..."
        raise ValueError(f"{name} = {text} is not an integer")
    return value


class NoDecreasingMutation(ArcrootsError):
    """No mutation direction strictly decreases the weights."""


class MultipleDecreasingMutations(ArcrootsError):
    """More than one direction decreases the weights (out-of-class input)."""


class IncompleteTournament(ArcrootsError):
    """An acyclic matrix has a zero off-diagonal pair, so its vertices carry
    no unique total order."""


class NotAcyclic(ArcrootsError):
    """The operation needs an acyclic matrix."""


class NotNormalized(ArcrootsError):
    """The operation needs b[i][j] >= 0 for i < j."""


class NotAReflection(ArcrootsError):
    """The word is not an odd-length palindrome after reduction."""


class NotARealRoot(ArcrootsError):
    """The vector is not a real root of the form (self-pairing 2, coherent
    signs, finite reflection descent)."""


class SignIncoherent(ArcrootsError):
    """A vector mixes strictly positive and strictly negative entries."""


class WrongArity(ArcrootsError):
    """The arc tuple is empty or its length is not the pairing's rank."""


class UnreducedArc(ArcrootsError):
    """Crossing sequence has an adjacent repeat or ends at its own puncture."""


class TwinEndpointClash(ArcrootsError):
    """Twin construction needs the two arcs to end at distinct punctures."""


class LengthPreconditionError(ArcrootsError):
    """The walk needs the moving arc to be long enough that twin
    replacements cannot exhaust it."""


class TwinDisjunctionError(ArcrootsError):
    """Both an arc and its twin form a bad pair with the same obstacle.
    This cannot happen for valid inputs; it signals a bug in this library,
    not in the caller."""


class CapExceeded(ArcrootsError):
    """The search space is larger than the configured cap."""


class NotEmbeddable(ArcrootsError):
    """The arc admits no embedding, so no seed can contain it."""


class DepthExhausted(ArcrootsError):
    """The search reached its depth limit without finding the target."""

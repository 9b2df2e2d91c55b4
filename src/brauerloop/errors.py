"""Exceptions shared across the package.

Verification helpers raise rather than return booleans wherever a failure
should carry a witness (the offending pattern, position or point); the
command line interface catches these and turns them into report lines.
"""

from __future__ import annotations


class BrauerLoopError(Exception):
    """Base class for all package-specific errors."""


class InexactDivision(BrauerLoopError):
    """Polynomial division left a nonzero remainder."""


class NotHomogeneous(BrauerLoopError):
    """A polynomial expected to be homogeneous is not."""


class NotInvertible(BrauerLoopError):
    """A matrix has a zero diagonal entry, so no circle-product inverse."""


class AmbiguousPairing(BrauerLoopError):
    """The diagonal of M^2 does not determine a unique link pattern."""


class DegenerateParameters(BrauerLoopError):
    """Sample parameters t fail the genericity requirements."""


class ChordPresent(BrauerLoopError):
    """The transposition recursion was applied across an existing little arc."""


class ChainInconsistency(BrauerLoopError):
    """Two recursion chains produced different polynomials for one pattern."""


class IdentityViolation(BrauerLoopError):
    """A polynomial identity failed; the message carries the witness."""


class Mismatch(BrauerLoopError):
    """Cross-validation of two independently computed tables failed."""


class NonUniqueStationary(BrauerLoopError):
    """The chain's stationary space is not one-dimensional."""


class PoleHit(BrauerLoopError):
    """An evaluation point lies on a pole of a closed formula."""


class ExponentOverflow(BrauerLoopError):
    """An exponent does not fit the bit field its packed monomial key gives it."""

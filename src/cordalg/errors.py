"""Exception hierarchy for the cord algebra pipeline."""


class CordAlgError(Exception):
    """Base class for all package errors."""


class SpecError(CordAlgError):
    """Malformed or unsupported knot specification."""


class NonEmbedded(SpecError):
    """Curve self-intersects (non-adjacent segments closer than the clearance floor)."""


class DegenerateSpec(SpecError):
    """Too few points, zero-curvature segment, or otherwise unusable input."""


class UnsupportedFraming(SpecError):
    """The requested output framing cannot be derived for this knot layout."""


class VerticalTangent(CordAlgError):
    """Blackboard framing undefined: a vertical tangent where nu is evaluated."""


class NumericalAmbiguity(CordAlgError):
    """A quantity that must be an integer came out too far from one."""


class InvariantLost(CordAlgError):
    """A perturbation broke a type invariant; caller retries with smaller magnitude."""


class DegenerateCritical(CordAlgError):
    """Critical point with a Hessian eigenvalue below the nondegeneracy floor."""


class SeedingInsufficient(CordAlgError):
    """Critical point census failed the Euler count at maximal seeding density."""


class ZeroProjection(CordAlgError):
    """Chord parallel to the tangent at its endpoint: the framing event
    function is undefined.  A vertical tangent is ``VerticalTangent``."""


class TangentialContact(CordAlgError):
    """Non-transverse chord/knot contact (flat distance minimum)."""


class GenericityViolation(CordAlgError):
    """A flow trace hit a non-generic configuration; perturb and recompute.

    Carries a short machine-readable reason in ``reason`` so the pipeline can
    pick the right perturbation target (basepoint, framing, or knot).
    """

    def __init__(self, message, reason="generic"):
        super().__init__(message)
        self.reason = reason


class MaxSplits(CordAlgError):
    """Split recursion exceeded the hard guard (convention bug, not math)."""


class MirrorMismatch(CordAlgError):
    """An index-1 cord's flow start points are not the exact swap of its
    partner's, so the partner's traces cannot be mirrored."""


class StepCollapse(CordAlgError):
    """Integrator step size collapsed below the floor."""


class SelfReference(CordAlgError):
    """Substitution rule replaces a generator by an expression containing it."""


class GrammarError(CordAlgError):
    """Algebra element text does not conform to the grammar."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class GenericityExhausted(CordAlgError):
    """The perturb-and-retry loop ran out of attempts."""

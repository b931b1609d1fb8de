"""Exception types shared across the package."""


class MembraneError(Exception):
    """Base class for all package-specific errors."""


class NondegeneracyViolation(MembraneError):
    """Forces are not strictly decreasing."""


class InvalidWeight(MembraneError):
    """A membrane weight is not strictly positive."""


class NotConnected(MembraneError):
    """Operation requires a connected cone (no point-only coincidence sets)."""


class AsymptoticMismatch(MembraneError):
    """Outermost second derivatives do not match the cone coefficients."""


class NoRegionFound(MembraneError):
    """Region iteration for the branch-to-breakpoint map failed to stabilize."""


class ZeroVector(MembraneError):
    """A nonzero branch vector is required."""


class OrderingViolation(MembraneError):
    """Assembled membranes violate the ordering constraint."""

    def __init__(self, message, angle=None):
        super().__init__(message)
        self.angle = angle


class TwoRayViolation(MembraneError):
    """Inter-group coincidence set is not at most two rays at an obtuse angle."""


class UnorderedBoundary(MembraneError):
    """Dirichlet data violates the ordering constraint on the boundary."""


class NonFiniteData(MembraneError):
    """Weights, forces, Dirichlet data, payoffs or an initial guess contain
    NaN or infinite values."""


class EmptyGrid(MembraneError):
    """The grid has no interior nodes to solve for."""


class NotConverged(MembraneError):
    """Iteration hit its sweep budget before reaching the tolerance."""


class IncompatibleGrids(MembraneError):
    """Two solutions do not share a grid and problem spec."""


class EmptyFreeBoundary(MembraneError):
    """No free boundary found for the requested membrane pair."""


class BallOutsideDomain(MembraneError):
    """A quadrature ball is not contained in the computational domain."""


class OutOfDomain(MembraneError):
    """Rescaling target exceeds the available domain."""


class InsufficientData(MembraneError):
    """Not enough radii, or too small a span, for a rate fit."""


class NotRegular(MembraneError):
    """Field is not approximated by the half-plane cone at the probe ball."""


class TooLarge(MembraneError):
    """Problem size exceeds the limit of an exhaustive oracle."""


class ScenarioError(MembraneError):
    """Scenario file fails schema validation."""

    def __init__(self, messages):
        if isinstance(messages, str):
            messages = [messages]
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))

"""Exception types shared across the package: ``InvalidInput`` (also a
``ValueError``) and its subclasses for bad input, the other ``MembraneError``
subclasses for outcomes of valid input (no convergence, no free boundary, a
violated ordering), and ``ScenarioError`` for a scenario file."""


class MembraneError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(MembraneError, ValueError):
    """An argument is out of its domain; the base of every input check."""


class NondegeneracyViolation(InvalidInput):
    """Forces are not strictly decreasing."""


class InvalidWeight(InvalidInput):
    """A membrane weight is not strictly positive."""


class NotConnected(InvalidInput):
    """Operation requires a connected cone (no point-only coincidence sets)."""


class AsymptoticMismatch(MembraneError):
    """Outermost second derivatives do not match the cone coefficients."""


class NoRegionFound(MembraneError):
    """Region iteration for the branch-to-breakpoint map failed to stabilize."""


class ZeroVector(InvalidInput):
    """A nonzero branch vector is required."""


class OrderingViolation(MembraneError):
    """Assembled membranes violate the ordering constraint."""

    def __init__(self, message, angle=None):
        super().__init__(message)
        self.angle = angle


class TwoRayViolation(MembraneError):
    """Inter-group coincidence set is not at most two rays at an obtuse angle."""


class UnorderedBoundary(InvalidInput):
    """Dirichlet data violates the ordering constraint on the boundary."""


class NonFiniteData(InvalidInput):
    """Weights, forces, Dirichlet data, payoffs, an initial guess, a ball or a
    rate-fit series contain NaN or infinite values."""


class EmptyGrid(InvalidInput):
    """The grid has no interior nodes to solve for."""


class NotConverged(MembraneError):
    """Iteration hit its sweep budget before reaching the tolerance."""


class IncompatibleGrids(InvalidInput):
    """Two solutions do not share a grid and problem spec."""


class EmptyFreeBoundary(MembraneError):
    """No free boundary found for the requested membrane pair."""


class BallOutsideDomain(InvalidInput):
    """A quadrature ball is not contained in the computational domain."""


class OutOfDomain(InvalidInput):
    """An interpolation point lies outside the stored box."""


class InsufficientData(InvalidInput):
    """Too few or non-positive radii for a Weiss profile or rate fit, or too narrow a span."""


class NotRegular(MembraneError):
    """Field is not approximated by the half-plane cone at the probe ball."""


class ScenarioError(MembraneError):
    """Scenario file fails schema validation."""

    def __init__(self, messages):
        if isinstance(messages, str):
            messages = [messages]
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))

"""The catalogue of 1D cones: homogeneous degree-2 solutions with all free
boundaries at the origin.

A cone is identified by its coincidence pattern: for each consecutive pair
(m, m+1) the coincidence set is the left half-line 'L', the origin only '.',
or the right half-line 'R'.  There are 3^(N-1) cones and 2^(N-1) connected
ones (no '.' entries).  Degenerate cones split at their '.' entries into
connected sub-cones over re-centered sub-problems.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .problem import ProblemSpec, normalize, pooled_forces, pooled_groups

LEFT = "L"
POINT = "."
RIGHT = "R"


@dataclass(frozen=True, eq=False)
class Cone1D:
    """A 1D cone over a normalized spec, identified by its pattern string."""

    spec: ProblemSpec
    pattern: str

    def __post_init__(self):
        if len(self.pattern) != self.spec.n_membranes - 1:
            raise InvalidInput(
                f"pattern length {len(self.pattern)} does not match N={self.spec.n_membranes}"
            )
        if any(c not in (LEFT, POINT, RIGHT) for c in self.pattern):
            raise InvalidInput(f"invalid pattern {self.pattern!r}")
        a_minus, a_plus = _coefficients(self.spec, self.pattern)
        object.__setattr__(self, "_a", (a_minus, a_plus))
        object.__setattr__(self, "_cache", {})

    @property
    def id(self):
        return self.pattern

    @property
    def n(self):
        return self.spec.n_membranes

    @property
    def connected(self):
        return POINT not in self.pattern

    @property
    def a_minus(self):
        return self._a[0]

    @property
    def a_plus(self):
        return self._a[1]

    def eval(self, x):
        """Membrane values p_i(x) = a_i^- (x^-)^2 + a_i^+ (x^+)^2.

        Scalar x gives shape (N,), array x gives shape x.shape + (N,).
        """
        x = np.asarray(x, dtype=float)
        xm = np.minimum(x, 0.0) ** 2
        xp = np.maximum(x, 0.0) ** 2
        return xm[..., None] * self.a_minus + xp[..., None] * self.a_plus

    def eval_2d(self, points, angle=0.0):
        """Trivial 2D extension p(x . nu) rotated by ``angle`` (nu = e2 at 0)."""
        pts = np.asarray(points, dtype=float)
        nu = np.array([-np.sin(angle), np.cos(angle)])
        return self.eval(pts @ nu)

    def __repr__(self):
        return f"Cone1D(N={self.n}, pattern={self.pattern!r})"


def _coefficients(spec, pattern):
    return tuple(0.5 * pooled_forces(spec, [c == side for c in pattern]) for side in (LEFT, RIGHT))


def enumerate_cones(spec: ProblemSpec):
    """All 3^(N-1) cones of the catalogue, in lexicographic pattern order."""
    spec = normalize(spec)
    n = spec.n_membranes
    return [
        Cone1D(spec, "".join(p))
        for p in itertools.product((LEFT, POINT, RIGHT), repeat=n - 1)
    ]


@dataclass(frozen=True)
class DegenerateDecomposition:
    """Split of a cone at its point-only entries into connected groups.

    Each group carries its 0-based half-open index range (lo, hi) from
    ``pooled_groups``, the second derivative of the group average quadratic
    (equal to the group force), and the connected sub-cone of the
    re-centered sub-problem.
    """

    cone: Cone1D
    cut_indices: tuple  # 1-based pair indices k with pattern[k-1] == '.'
    groups: tuple  # of ((lo, hi), qpp, Cone1D)


def decompose_degenerate(cone: Cone1D) -> DegenerateDecomposition:
    """Group decomposition of any cone; connected cones give one group."""
    spec = cone.spec
    cuts = tuple(k + 1 for k, c in enumerate(cone.pattern) if c == POINT)
    joined = [c != POINT for c in cone.pattern]
    forces = pooled_forces(spec, joined)
    groups = []
    for lo, hi in pooled_groups(joined):
        qpp = float(forces[lo])
        sub_spec = ProblemSpec(hi - lo, tuple(spec.w[lo:hi]), tuple(spec.f[lo:hi] - qpp))
        groups.append(((lo, hi), qpp, Cone1D(sub_spec, cone.pattern[lo : hi - 1])))
    return DegenerateDecomposition(cone, cuts, tuple(groups))


def catalogue_json(spec: ProblemSpec):
    """Catalogue entries for the CLI: id, pattern, coefficients, connected."""
    entries = []
    for cone in enumerate_cones(spec):
        entries.append(
            {
                "id": cone.id,
                "pattern": cone.pattern,
                "a_minus": list(cone.a_minus),
                "a_plus": list(cone.a_plus),
                "connected": cone.connected,
            }
        )
    return entries

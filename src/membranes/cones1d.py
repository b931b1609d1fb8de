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

from .problem import GroupIndex, ProblemSpec, group_force, normalize

LEFT = "L"
POINT = "."
RIGHT = "R"


def _side_groups(pattern, side):
    """Maximal contiguous 1-based groups coinciding on the given side."""
    n = len(pattern) + 1
    groups = []
    lo = 1
    for m in range(1, n):
        if pattern[m - 1] != side:
            groups.append(GroupIndex(lo, m))
            lo = m + 1
    groups.append(GroupIndex(lo, n))
    return tuple(groups)


@dataclass(frozen=True, eq=False)
class Cone1D:
    """A 1D cone over a normalized spec, identified by its pattern string."""

    spec: ProblemSpec
    pattern: str

    def __post_init__(self):
        if len(self.pattern) != self.spec.n_membranes - 1:
            raise ValueError(
                f"pattern length {len(self.pattern)} does not match N={self.spec.n_membranes}"
            )
        if any(c not in (LEFT, POINT, RIGHT) for c in self.pattern):
            raise ValueError(f"invalid pattern {self.pattern!r}")
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

    def left_groups(self):
        return _side_groups(self.pattern, LEFT)

    def right_groups(self):
        return _side_groups(self.pattern, RIGHT)

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
    n = spec.n_membranes
    out = []
    for side in (LEFT, RIGHT):
        a = np.empty(n)
        for grp in _side_groups(pattern, side):
            a[grp.indices()] = 0.5 * group_force(spec, grp)
        out.append(a)
    return tuple(out)


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

    Each group carries its index range, the second derivative of the group
    average quadratic (equal to the group force), and the connected sub-cone
    of the re-centered sub-problem.
    """

    cone: Cone1D
    cut_indices: tuple  # 1-based pair indices k with pattern[k-1] == '.'
    groups: tuple  # of (GroupIndex, qpp, Cone1D)

    def reassemble_eval(self, x):
        """Group sub-cone values plus group quadratics; equals cone.eval(x)."""
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape + (self.cone.n,))
        for grp, qpp, sub in self.groups:
            vals = sub.eval(x) + (0.5 * qpp * x * x)[..., None]
            out[..., grp.lo - 1 : grp.hi] = vals
        return out


def decompose_degenerate(cone: Cone1D) -> DegenerateDecomposition:
    """Group decomposition of any cone; connected cones give one group."""
    spec = cone.spec
    cuts = tuple(k + 1 for k, c in enumerate(cone.pattern) if c == POINT)
    bounds = [0] + list(cuts) + [cone.n]
    groups = []
    for lo0, hi0 in zip(bounds[:-1], bounds[1:]):
        grp = GroupIndex(lo0 + 1, hi0)
        qpp = group_force(spec, grp)
        idx = grp.indices()
        sub_spec = ProblemSpec(
            len(grp),
            tuple(spec.w[idx]),
            tuple(spec.f[idx] - qpp),
        )
        sub_pattern = cone.pattern[lo0 : hi0 - 1]
        groups.append((grp, qpp, Cone1D(sub_spec, sub_pattern)))
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

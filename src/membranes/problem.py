"""Problem definition and the global identities the rest of the package assumes.

A problem instance is a number of membranes N, strictly positive weights
``w_k`` and strictly decreasing constant force densities ``f_k``.  After
normalization the weighted force sum vanishes, so the weighted sum of the
membranes is harmonic and can be subtracted off pointwise; every other module
works with normalized instances only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, InvalidWeight, NonFiniteData, NondegeneracyViolation

EQ_TOL = 1e-12


@dataclass(frozen=True)
class ProblemSpec:
    """N membranes with weights ``w`` and constant forces ``f``, f_1 > ... > f_N."""

    n_membranes: int
    weights: tuple
    forces: tuple

    def __post_init__(self):
        n = self.n_membranes
        if n < 1:
            raise NondegeneracyViolation("need at least one membrane")
        w = tuple(float(x) for x in self.weights)
        f = tuple(float(x) for x in self.forces)
        if len(w) != n or len(f) != n:
            raise NondegeneracyViolation(
                f"expected {n} weights and forces, got {len(w)} and {len(f)}"
            )
        if not np.isfinite(w + f).all():
            raise NonFiniteData(f"weights and forces must be finite, got {w} and {f}")
        if any(x <= 0.0 for x in w):
            raise InvalidWeight(f"weights must be strictly positive, got {w}")
        if not np.isfinite(sum(w)):
            raise NonFiniteData(f"the weights must have a finite sum, got {w}")
        if any(f[i] <= f[i + 1] for i in range(n - 1)):
            raise NondegeneracyViolation(f"forces must be strictly decreasing, got {f}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "forces", f)

    @property
    def w(self):
        return np.asarray(self.weights)

    @property
    def f(self):
        return np.asarray(self.forces)

    @property
    def is_normalized(self):
        with np.errstate(over="ignore"):  # an overflowing w @ f reads inf, not a warning
            wf = float(self.w @ self.f)
        return abs(wf) <= EQ_TOL * max(1.0, float(np.abs(self.f).max()))

    def as_dict(self):
        return {"n": self.n_membranes, "weights": list(self.weights), "forces": list(self.forces)}

    @classmethod
    def from_dict(cls, obj):
        return cls(int(obj["n"]), tuple(obj["weights"]), tuple(obj["forces"]))


@dataclass(frozen=True)
class GroupIndex:
    """Inclusive 1-based membrane index range I = {lo, ..., hi}."""

    lo: int
    hi: int

    def __post_init__(self):
        if not 1 <= self.lo <= self.hi:
            raise InvalidInput(f"invalid group range [{self.lo}, {self.hi}]")

    def indices(self):
        """0-based numpy index array."""
        return np.arange(self.lo - 1, self.hi)

    def __len__(self):
        return self.hi - self.lo + 1


def normalize(spec: ProblemSpec) -> ProblemSpec:
    """Subtract the weighted force mean so that sum(w_k f_k) = 0.

    Bit-for-bit idempotent: an already normalized spec is returned unchanged.
    Preserves the strict ordering of the forces.
    """
    if spec.is_normalized:
        return spec
    with np.errstate(over="ignore"):
        f = spec.f - float(spec.w @ spec.f) / float(spec.w.sum())
    if not np.isfinite(f).all():
        raise NonFiniteData(
            f"normalizing forces {spec.forces} with weights {spec.weights} overflows"
        )
    return ProblemSpec(spec.n_membranes, spec.weights, tuple(f))


def group_force(spec: ProblemSpec, group: GroupIndex) -> float:
    """Weighted average force over the group, f_I = sum_I w f / sum_I w."""
    if group.hi > spec.n_membranes:
        raise InvalidInput(
            f"group [{group.lo}, {group.hi}] exceeds N={spec.n_membranes}"
        )
    idx = group.indices()
    w = spec.w[idx]
    return float(w @ spec.f[idx] / w.sum())


def subtract_average(fields, weights):
    """Project per-point membrane values onto sum(w_k u_k) = 0.

    ``fields`` has the membrane axis last; differences u_i - u_j are unchanged.
    """
    u = np.asarray(fields, dtype=float)
    w = np.asarray(weights, dtype=float)
    avg = (u @ w) / w.sum()
    return u - avg[..., None] * np.ones_like(w)

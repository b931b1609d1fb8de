"""Global 1D solutions with prescribed linear asymptotics, and the 2D
approximate profiles built from them.

For a connected cone p, every global solution asymptotic to p is a piecewise
quadratic determined by the positions of its N-1 free boundaries.  Sorting
those positions fixes the coincidence pattern on every subinterval, hence all
second derivatives; integrating them with C^1 matching and subtracting the
weighted average yields the solution.  The linear coefficients of the two
unbounded intervals form the branch vector b, the constant coefficients the
error function e(b).  The breakpoint-to-branch map is linear on each region
of fixed sort order and globally invertible, which is how solution_for
inverts it: region iteration, then continuation.  Solve in a candidate
region, re-identify the region from the result, repeat; if that fails,
follow the segment from a solved anchor to b.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .cones1d import LEFT, RIGHT, Cone1D, DegenerateDecomposition
from .errors import (
    AsymptoticMismatch,
    NoRegionFound,
    NotConnected,
    OrderingViolation,
    TwoRayViolation,
    ZeroVector,
)
from .problem import subtract_average


# ---------------------------------------------------------------------------
# Branch space B(p)


def _branch_ids(cone):
    """Per-membrane branch index on each side; left groups first."""
    lg, rg = cone.left_groups(), cone.right_groups()
    minus = np.empty(cone.n, dtype=int)
    plus = np.empty(cone.n, dtype=int)
    for gi, grp in enumerate(lg):
        minus[grp.indices()] = gi
    for gi, grp in enumerate(rg):
        plus[grp.indices()] = len(lg) + gi
    return minus, plus, len(lg) + len(rg)


def _null_basis(weights):
    """Orthonormal basis of {x : w . x = 0} for a positive weight row."""
    w = np.asarray(weights, dtype=float)
    g = len(w)
    if g == 1:
        return np.zeros((1, 0))
    _, _, vt = np.linalg.svd(w[None, :])
    return vt[1:].T  # (g, g-1)


def branch_space_basis(cone):
    """(2N, N-1) basis of B(p): per-side null spaces of the weighted average,
    expanded from branch values to membrane values."""
    cache = cone._cache
    if "basis" not in cache:
        if not cone.connected:
            raise NotConnected(f"cone {cone.pattern!r} is not connected")
        n = cone.n
        w = cone.spec.w
        minus_id, plus_id, _ = _branch_ids(cone)
        cols = []
        for side_groups, side_ids, offset in (
            (cone.left_groups(), minus_id, 0),
            (cone.right_groups(), plus_id, n),
        ):
            gw = np.array([w[g.indices()].sum() for g in side_groups])
            nb = _null_basis(gw)
            for j in range(nb.shape[1]):
                vec = np.zeros(2 * n)
                branch_vals = nb[:, j]
                ids = side_ids - (0 if offset == 0 else len(cone.left_groups()))
                vec[offset : offset + n] = branch_vals[ids]
                cols.append(vec)
        cache["basis"] = np.column_stack(cols) if cols else np.zeros((2 * n, 0))
    return cache["basis"]


@dataclass(frozen=True, eq=False)
class BranchVector:
    """Element of B(p): (b_1^-, ..., b_N^-, b_1^+, ..., b_N^+), equal within
    coincidence groups on each side, weighted sums zero per side."""

    cone: Cone1D
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (2 * self.cone.n,):
            raise ValueError(f"expected {2 * self.cone.n} values, got {v.shape}")
        object.__setattr__(self, "values", v)

    @property
    def minus(self):
        return self.values[: self.cone.n]

    @property
    def plus(self):
        return self.values[self.cone.n :]

    def norm(self):
        return float(np.linalg.norm(self.values))

    def is_member(self, tol=1e-9):
        """Check the averaging and group-equality constraints."""
        w = self.cone.spec.w
        scale = max(1.0, float(np.abs(self.values).max()))
        if abs(w @ self.minus) > tol * scale or abs(w @ self.plus) > tol * scale:
            return False
        for m, c in enumerate(self.cone.pattern):
            if c == LEFT and abs(self.minus[m] - self.minus[m + 1]) > tol * scale:
                return False
            if c == RIGHT and abs(self.plus[m] - self.plus[m + 1]) > tol * scale:
                return False
        return True

    def __neg__(self):
        return BranchVector(self.cone, -self.values)

    def __add__(self, other):
        return BranchVector(self.cone, self.values + other.values)

    def __sub__(self, other):
        return BranchVector(self.cone, self.values - other.values)

    def __mul__(self, s):
        return BranchVector(self.cone, self.values * float(s))

    __rmul__ = __mul__


def zero_branch_vector(cone):
    return BranchVector(cone, np.zeros(2 * cone.n))


def random_branch_vector(cone, rng, scale=1.0):
    """Uniform direction in B(p) scaled to ``scale``; zero for N=1."""
    basis = branch_space_basis(cone)
    if basis.shape[1] == 0:
        return zero_branch_vector(cone)
    c = rng.standard_normal(basis.shape[1])
    vec = basis @ c
    nrm = np.linalg.norm(vec)
    if nrm == 0.0:
        return zero_branch_vector(cone)
    return BranchVector(cone, vec * (scale / nrm))


def tau(cone) -> BranchVector:
    """Branch vector of the unit translation: h(x, s*tau) = p(x+s)."""
    if not cone.connected:
        raise NotConnected(f"cone {cone.pattern!r} is not connected")
    return BranchVector(cone, np.concatenate([2.0 * cone.a_minus, 2.0 * cone.a_plus]))


# ---------------------------------------------------------------------------
# Piecewise quadratic solutions


@dataclass(frozen=True, eq=False)
class PiecewiseQuadratic1D:
    """N membranes as global quadratics per breakpoint-delimited interval.

    ``coeffs[i, j]`` holds (c2, c1, c0) of membrane i on interval j, where
    interval j spans (breakpoints[j-1], breakpoints[j]) with infinite ends.
    """

    breakpoints: np.ndarray
    coeffs: np.ndarray
    cone: Cone1D = None
    gamma: np.ndarray = None

    @property
    def n(self):
        return self.coeffs.shape[0]

    @property
    def n_intervals(self):
        return self.coeffs.shape[1]

    def _locate(self, x):
        return np.searchsorted(self.breakpoints, x, side="left")

    def eval(self, x):
        """Values at x; scalar -> (N,), array -> x.shape + (N,)."""
        x = np.asarray(x, dtype=float)
        j = self._locate(x)
        c = self.coeffs[:, j, :]  # (N, ..., 3)
        vals = (c[..., 0] * x * x + c[..., 1] * x + c[..., 2])
        return np.moveaxis(vals, 0, -1)

    def validate(self, tol=1e-10):
        """C^1 matching at breakpoints, ordering, zero weighted average."""
        issues = []
        scale = max(1.0, float(np.abs(self.coeffs).max()))
        for k, x in enumerate(self.breakpoints):
            cl, cr = self.coeffs[:, k, :], self.coeffs[:, k + 1, :]
            dv = (cl[:, 0] - cr[:, 0]) * x * x + (cl[:, 1] - cr[:, 1]) * x + (cl[:, 2] - cr[:, 2])
            ds = 2.0 * (cl[:, 0] - cr[:, 0]) * x + (cl[:, 1] - cr[:, 1])
            if np.abs(dv).max() > tol * scale or np.abs(ds).max() > tol * scale:
                issues.append(f"C1 mismatch at breakpoint {x}")
        if self.cone is not None:
            w = self.cone.spec.w
            wavg = np.einsum("i,ijk->jk", w, self.coeffs) / w.sum()
            if np.abs(wavg).max() > tol * scale:
                issues.append("weighted average of coefficients is nonzero")
        xs = _sample_points(self.breakpoints)
        vals = self.eval(xs)
        diffs = vals[:, :-1] - vals[:, 1:]
        if diffs.size and diffs.min() < -tol * scale * 10:
            issues.append("ordering violated at sampled points")
        # Vertex check: minimum of each consecutive difference per interval.
        for j in range(self.n_intervals):
            d = self.coeffs[:-1, j, :] - self.coeffs[1:, j, :]
            for i in range(self.n - 1):
                c2, c1, c0 = d[i]
                if c2 > 0:
                    xv = -c1 / (2.0 * c2)
                    lo = self.breakpoints[j - 1] if j > 0 else -np.inf
                    hi = self.breakpoints[j] if j < self.n_intervals - 1 else np.inf
                    if lo < xv < hi:
                        val = c2 * xv * xv + c1 * xv + c0
                        if val < -tol * scale * 10:
                            issues.append(f"ordering vertex violation pair {i + 1}")
        return issues

    def to_json(self):
        return json.dumps(
            {
                "breakpoints": list(map(float, self.breakpoints)),
                "coefficients": [[list(map(float, c)) for c in row] for row in self.coeffs],
            }
        )

    @classmethod
    def from_json(cls, text, cone=None):
        obj = json.loads(text) if isinstance(text, str) else text
        return cls(
            np.asarray(obj["breakpoints"], dtype=float),
            np.asarray(obj["coefficients"], dtype=float),
            cone=cone,
        )


def _sample_points(breakpoints, pad=2.0, per_interval=7):
    if len(breakpoints) == 0:
        return np.linspace(-pad, pad, 2 * per_interval)
    lo, hi = breakpoints[0] - pad, breakpoints[-1] + pad
    return np.linspace(lo, hi, per_interval * (len(breakpoints) + 1) + 2)


def _interval_curvatures(cone, xs, gamma):
    """Second derivative of each membrane on each interval (group forces)."""
    n = cone.n
    spec = cone.spec
    n_int = len(xs) + 1
    mids = np.empty(n_int)
    if n_int == 1:
        mids[0] = 0.0
    else:
        mids[0] = xs[0] - 1.0
        mids[-1] = xs[-1] + 1.0
        mids[1:-1] = 0.5 * (xs[:-1] + xs[1:])
    g = np.empty((n, n_int))
    w, f = spec.w, spec.f
    for j, mid in enumerate(mids):
        lo = 0
        for m in range(n - 1):
            side = cone.pattern[m]
            active = (side == RIGHT and mid > gamma[m]) or (side == LEFT and mid < gamma[m])
            if not active:
                g[lo : m + 1, j] = w[lo : m + 1] @ f[lo : m + 1] / w[lo : m + 1].sum()
                lo = m + 1
        g[lo:n, j] = w[lo:n] @ f[lo:n] / w[lo:n].sum()
    return g


def gamma_to_solution(cone, gamma) -> PiecewiseQuadratic1D:
    """Assemble the global solution with free boundary of pair k at gamma[k].

    Branch-following construction: membrane 1 is anchored at gamma[0] with
    zero value and slope, each next membrane copies the previous one's value
    and slope at its shared free boundary, second derivatives per interval
    are the active group forces, and the weighted average is subtracted at
    the end.  Any real gamma is admissible; ties just merge breakpoints.
    """
    if not cone.connected:
        raise NotConnected(f"cone {cone.pattern!r} is not connected")
    n = cone.n
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    if gamma.shape != (n - 1,):
        raise ValueError(f"expected {n - 1} breakpoints, got {gamma.shape}")
    if gamma.size and not np.all(np.isfinite(gamma)):
        raise ValueError("breakpoints must be finite")
    if n == 1:
        coeffs = np.array([[[0.5 * cone.spec.f[0], 0.0, 0.0]]])
        w = cone.spec.w
        coeffs -= np.einsum("i,ijk->jk", w, coeffs) / w.sum()
        return PiecewiseQuadratic1D(np.empty(0), coeffs, cone=cone, gamma=gamma.copy())

    xs = np.unique(gamma)
    n_int = len(xs) + 1
    g = _interval_curvatures(cone, xs, gamma)
    coeffs = np.empty((n, n_int, 3))

    anchor_x = gamma[0]
    anchor_v = 0.0
    anchor_s = 0.0
    for i in range(n):
        if i > 0:
            anchor_x = gamma[i - 1]
            # C^1 data of the previous membrane at the shared free boundary.
            k = int(np.searchsorted(xs, anchor_x))
            c2, c1, c0 = coeffs[i - 1, k]
            anchor_v = c2 * anchor_x * anchor_x + c1 * anchor_x + c0
            anchor_s = 2.0 * c2 * anchor_x + c1
        k = int(np.searchsorted(xs, anchor_x))
        # Rightward from the anchor.
        cx, cv, cs = anchor_x, anchor_v, anchor_s
        for j in range(k + 1, n_int):
            gj = g[i, j]
            coeffs[i, j] = (0.5 * gj, cs - gj * cx, cv - cs * cx + 0.5 * gj * cx * cx)
            if j < n_int - 1:
                nx = xs[j]
                c2, c1, c0 = coeffs[i, j]
                cv = c2 * nx * nx + c1 * nx + c0
                cs = 2.0 * c2 * nx + c1
                cx = nx
        # Leftward from the anchor.
        cx, cv, cs = anchor_x, anchor_v, anchor_s
        for j in range(k, -1, -1):
            gj = g[i, j]
            coeffs[i, j] = (0.5 * gj, cs - gj * cx, cv - cs * cx + 0.5 * gj * cx * cx)
            if j > 0:
                nx = xs[j - 1]
                c2, c1, c0 = coeffs[i, j]
                cv = c2 * nx * nx + c1 * nx + c0
                cs = 2.0 * c2 * nx + c1
                cx = nx

    w = cone.spec.w
    coeffs -= (np.einsum("i,ijk->jk", w, coeffs) / w.sum())[None, :, :]
    return PiecewiseQuadratic1D(xs, coeffs, cone=cone, gamma=gamma.copy())


def solution_to_b(sol: PiecewiseQuadratic1D, cone=None) -> BranchVector:
    """Read b from the linear coefficients of the two unbounded intervals."""
    cone = cone if cone is not None else sol.cone
    if cone is None:
        raise ValueError("solution carries no cone reference")
    scale = max(1.0, float(np.abs(cone.spec.f).max()))
    if (
        np.abs(2.0 * sol.coeffs[:, 0, 0] - 2.0 * cone.a_minus).max() > 1e-8 * scale
        or np.abs(2.0 * sol.coeffs[:, -1, 0] - 2.0 * cone.a_plus).max() > 1e-8 * scale
    ):
        raise AsymptoticMismatch("outermost second derivatives differ from the cone")
    return BranchVector(cone, np.concatenate([sol.coeffs[:, 0, 1], sol.coeffs[:, -1, 1]]))


def error_function(cone, b) -> BranchVector:
    """Per-branch constants of h outside [min gamma, max gamma]; e(b) lies
    in B(p)."""
    sol = solution_for(cone, b)
    return BranchVector(cone, np.concatenate([sol.coeffs[:, 0, 2], sol.coeffs[:, -1, 2]]))


# ---------------------------------------------------------------------------
# The inverse map b -> gamma


def _region_matrix(cone, sigma):
    """Forward map restricted to the region gamma[sigma[0]] <= ... as a pair
    (V, M): gamma = V c and b = M c on the region's spanning cone."""
    key = ("region", sigma)
    cache = cone._cache
    if key not in cache:
        d = cone.n - 1
        vcols = [np.ones(d)]
        for j in range(1, d):
            v = np.zeros(d)
            v[list(sigma[j:])] = 1.0
            vcols.append(v)
        v_mat = np.column_stack(vcols)
        mcols = [
            solution_to_b(gamma_to_solution(cone, v_mat[:, j])).values for j in range(d)
        ]
        cache[key] = (v_mat, np.column_stack(mcols))
    return cache[key]


def _solve_in_region(cone, sigma, bvec):
    v_mat, m_mat = _region_matrix(cone, sigma)
    c, *_ = np.linalg.lstsq(m_mat, bvec, rcond=None)
    return v_mat @ c


def _roundtrip(cone, gamma, bvec, tol):
    """The solution at ``gamma`` if it maps back to ``bvec`` within ``tol``
    (a NaN residual fails the comparison), else None."""
    sol = gamma_to_solution(cone, gamma)
    if float(np.abs(solution_to_b(sol).values - bvec).max()) <= tol:
        return sol
    return None


def b_to_gamma(cone, b):
    """Invert the breakpoint map by region iteration, then continuation: the
    gamma of ``solution_for``, with solution_to_b(gamma_to_solution) equal to b."""
    return solution_for(cone, b).gamma


def solution_for(cone, b) -> PiecewiseQuadratic1D:
    """The global solution h(., b), by region iteration, then continuation.

    Region iteration starts from the identity order; if it fails, segment
    continuation from a solved anchor follows (Allgower & Georg 1990,
    *Numerical Continuation Methods*).  Every candidate is accepted only by
    its round-trip residual, and the solution built for that check is returned.
    """
    if not cone.connected:
        raise NotConnected(f"cone {cone.pattern!r} is not connected")
    bvec = b.values if isinstance(b, BranchVector) else np.asarray(b, dtype=float)
    d = cone.n - 1
    if d == 0:
        return gamma_to_solution(cone, np.empty(0))
    tol = 1e-10 * max(1.0, float(np.abs(bvec).max()))
    sol = _iterate_regions(cone, tuple(range(d)), bvec, tol)
    if sol is None:
        sol = _continuation(cone, bvec)
    if sol is None:
        raise NoRegionFound(
            f"region iteration and continuation failed for cone {cone.pattern!r}; the map is "
            "globally invertible, so this indicates a bug"
        )
    return sol


def _iterate_regions(cone, sigma, bvec, tol, max_iter=40):
    """Solve in region sigma, move to the region of the result, repeat; the
    solution once the region repeats (a fixed point or a cycle) and passes
    the round trip, else None."""
    visited = set()
    for _ in range(max_iter):
        gamma = _solve_in_region(cone, sigma, bvec)
        new_sigma = tuple(int(i) for i in np.argsort(gamma, kind="stable"))
        visited.add(sigma)
        if new_sigma in visited:
            return _roundtrip(cone, gamma, bvec, tol)
        sigma = new_sigma
    return None


def _continuation(cone, bvec, max_steps=2048):
    """Region iteration along the segment from the b of an increasing gamma to
    ``bvec``, halving the step on failure; the solution at ``bvec``, else None."""
    d = cone.n - 1
    anchor_b = solution_to_b(gamma_to_solution(cone, np.arange(d, dtype=float))).values
    sigma = tuple(range(d))
    t, step = 0.0, 0.25
    for _ in range(max_steps):
        tn = min(1.0, t + step)
        target = (1.0 - tn) * anchor_b + tn * bvec
        cand = _iterate_regions(cone, sigma, target, 1e-10 * max(1.0, np.abs(target).max()))
        if cand is None:
            step *= 0.5
            if step < 1e-6:
                return None
            continue
        if tn == 1.0:  # the target was bvec, checked at solution_for's tol
            return cand
        t, step = tn, min(0.25, step * 2.0)
        sigma = tuple(int(i) for i in np.argsort(cand.gamma, kind="stable"))
    return None


def asymmetry(cone, b):
    """|e(b) - e(-b)| / |b|^2; zero exactly on the translation line."""
    bvec = b if isinstance(b, BranchVector) else BranchVector(cone, np.asarray(b, float))
    nrm = bvec.norm()
    if nrm == 0.0:
        raise ZeroVector("asymmetry requires b != 0")
    ep = error_function(cone, bvec).values
    em = error_function(cone, -bvec).values
    return float(np.linalg.norm(ep - em)) / nrm**2


# ---------------------------------------------------------------------------
# 2D approximate profiles


def _rotated_coords(points, angle):
    pts = np.asarray(points, dtype=float)
    nu = np.array([-np.sin(angle), np.cos(angle)])
    nup = np.array([np.cos(angle), np.sin(angle)])
    return pts @ nup, pts @ nu  # (y1, y2)


@dataclass(frozen=True, eq=False)
class ApproximateProfile2D:
    """The profile p(x, b0, b1) = h(y2, b0 + y1 b1) in rotated coordinates."""

    cone: Cone1D
    b0: BranchVector
    b1: BranchVector
    rotation_angle: float = 0.0

    def eval(self, points):
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        y1, y2 = _rotated_coords(pts, self.rotation_angle)
        out = np.empty((pts.shape[0], self.cone.n))
        if self.b1.norm() == 0.0:
            out[:] = solution_for(self.cone, self.b0).eval(y2)
        elif self.b0.norm() == 0.0:
            # h(y2, y1 b1) = y1^2 h(y2/y1, sign(y1) b1) by degree-2 homogeneity.
            hp = solution_for(self.cone, self.b1)
            hm = solution_for(self.cone, -self.b1)
            pos, neg, zero = y1 > 0, y1 < 0, y1 == 0
            if pos.any():
                out[pos] = (y1[pos] ** 2)[:, None] * hp.eval(y2[pos] / y1[pos])
            if neg.any():
                out[neg] = (y1[neg] ** 2)[:, None] * hm.eval(y2[neg] / (-y1[neg]))
            if zero.any():
                out[zero] = self.cone.eval(y2[zero])
        else:
            order = np.argsort(y1, kind="stable")
            last_t = None
            sol = None
            for idx in order:
                t = y1[idx]
                if sol is None or t != last_t:
                    sol = solution_for(
                        self.cone, BranchVector(self.cone, self.b0.values + t * self.b1.values)
                    )
                    last_t = t
                out[idx] = sol.eval(y2[idx])
        return out[0] if single else out


def _harmonic_quadratic(points, qpp, alpha, beta):
    x1, x2 = points[..., 0], points[..., 1]
    return 0.25 * qpp * (x1 * x1 + x2 * x2) + 0.5 * alpha * (x1 * x1 - x2 * x2) + beta * x1 * x2


@dataclass(frozen=True, eq=False)
class DegenerateProfile2D:
    """Assembly of rotated connected sub-cones plus per-group quadratics."""

    decomposition: DegenerateDecomposition
    angles: tuple
    harmonics: tuple  # per group (alpha, beta) of the harmonic part
    rays: dict = None  # per cut pair index: tuple of coincidence ray angles

    def eval(self, points):
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        dec = self.decomposition
        n = dec.cone.n
        out = np.empty((pts.shape[0], n))
        for (grp, qpp, sub), ang, (alpha, beta) in zip(
            dec.groups, self.angles, self.harmonics
        ):
            nu = np.array([-np.sin(ang), np.cos(ang)])
            vals = sub.eval(pts @ nu)
            q = _harmonic_quadratic(pts, qpp, alpha, beta)
            out[:, grp.lo - 1 : grp.hi] = vals + q[:, None]
        out = subtract_average(out, dec.cone.spec.w)
        return out[0] if single else out


def build_degenerate_profile(
    decomposition: DegenerateDecomposition,
    angles,
    harmonic_params,
) -> DegenerateProfile2D:
    """Assemble and validate a 2D extension of a degenerate cone.

    ``angles`` is a per-group rotation, ``harmonic_params`` a per-group
    (alpha, beta) pair for the harmonic part of the group quadratic (the
    |x|^2 part is fixed by the group force).  Rejects assemblies that break
    the ordering, and inter-group coincidence sets on the unit circle with
    more than two points or a non-obtuse separation, on 4096 circle samples.
    """
    m = len(decomposition.groups)
    angles = tuple(float(a) for a in np.atleast_1d(angles))
    harmonics = tuple((float(a), float(b)) for a, b in np.atleast_2d(harmonic_params))
    if len(angles) != m or len(harmonics) != m:
        raise ValueError(f"expected {m} angles and harmonic parameter pairs")
    profile = DegenerateProfile2D(decomposition, angles, harmonics, rays={})

    thetas = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    circle = np.column_stack([np.cos(thetas), np.sin(thetas)])
    vals = profile.eval(circle)
    scale = max(1.0, float(np.abs(vals).max()))
    dtheta = 2.0 * np.pi / len(thetas)

    diffs = vals[:, :-1] - vals[:, 1:]
    worst = diffs.min(axis=0)
    for pair in range(decomposition.cone.n - 1):
        if worst[pair] < -1e-10 * scale:
            angle = float(thetas[int(np.argmin(diffs[:, pair]))])
            raise OrderingViolation(
                f"membranes {pair + 1} and {pair + 2} cross on the unit circle",
                angle=angle,
            )

    rays = {}
    for k in decomposition.cut_indices:
        d = diffs[:, k - 1]
        dmax = float(d.max())
        if dmax <= 1e-12 * scale:
            raise TwoRayViolation(f"pair {k} coincides on the whole circle")
        thr = max(dmax * 9.0 * dtheta * dtheta, 1e-12 * scale)
        low = d <= thr
        clusters = _circular_clusters(low)
        centers = [float(thetas[c[np.argmin(d[c])]]) for c in clusters]
        if len(centers) > 2:
            raise TwoRayViolation(
                f"pair {k}: coincidence set has {len(centers)} circle points"
            )
        if len(centers) == 2:
            sep = abs(centers[0] - centers[1])
            sep = min(sep, 2.0 * np.pi - sep)
            if sep <= np.pi / 2.0 + dtheta:
                raise TwoRayViolation(
                    f"pair {k}: ray separation {sep:.4f} is not greater than pi/2"
                )
        rays[k] = tuple(centers)
    profile.rays.update(rays)
    return profile


def _circular_clusters(mask):
    """Index runs of True in a circular boolean array."""
    n = len(mask)
    if not mask.any():
        return []
    if mask.all():
        return [np.arange(n)]
    idx = np.flatnonzero(mask)
    breaks = np.flatnonzero(np.diff(idx) > 1)
    runs = np.split(idx, breaks + 1)
    # Merge a wrap-around run.
    if len(runs) > 1 and idx[0] == 0 and idx[-1] == n - 1:
        runs[0] = np.concatenate([runs[-1], runs[0]])
        runs = runs[:-1]
    return runs

"""Blow-up analysis of solved fields: free boundary extraction, the Weiss
energy and its monotonicity, cone fitting on balls about a point, the
regular-point probe, and convergence-rate model fitting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones1d import Cone1D, enumerate_cones
from .errors import (
    BallOutsideDomain,
    EmptyFreeBoundary,
    InsufficientData,
    InvalidInput,
    NonFiniteData,
    NotRegular,
)
from .exact1d import (
    ApproximateProfile2D,
    BranchVector,
    _rotated_coords,
    branch_space_basis,
    zero_branch_vector,
)
from .solver2d import Grid, GridSolution2D, INACTIVE, cell_corners, default_coincidence_tol

# ---------------------------------------------------------------------------
# Free boundary extraction


@dataclass(eq=False)
class FreeBoundaryCurve:
    """Level-set polyline of u_k - u_{k+1} at the coincidence tolerance."""

    pair: int
    vertices: np.ndarray  # (M, 2), ordered along the longest chain
    components: list  # all chains, longest first
    tolerance: float


def extract_free_boundary(sol: GridSolution2D, k) -> FreeBoundaryCurve:
    """Marching-squares contour of the pair-k separation at the solution's
    default coincidence tolerance."""
    if sol.grid.dimension != 2:
        raise InvalidInput("free boundary extraction requires a 2D solution")
    if not 1 <= k <= sol.n - 1:
        raise EmptyFreeBoundary(f"pair index {k} out of range for N={sol.n}")
    coincidence_tol = default_coincidence_tol(sol)
    fields = sol.fields()
    diff = fields[..., k - 1] - fields[..., k]
    xs = sol.grid.origin[0] + sol.grid.h * np.arange(sol.grid.shape[0])
    ys = sol.grid.origin[1] + sol.grid.h * np.arange(sol.grid.shape[1])
    segments = _marching_squares(diff, xs, ys, coincidence_tol)
    if not segments:
        raise EmptyFreeBoundary(f"no level crossing found for pair {k}")
    components = _chain_segments(segments)
    return FreeBoundaryCurve(k, components[0], components, coincidence_tol)


def _marching_squares(f, xs, ys, level):
    g = f - level
    nx, ny = g.shape
    fin = np.isfinite(g)
    cell_ok = fin[:-1, :-1] & fin[1:, :-1] & fin[:-1, 1:] & fin[1:, 1:]
    lo = np.minimum.reduce([g[:-1, :-1], g[1:, :-1], g[:-1, 1:], g[1:, 1:]])
    hi = np.maximum.reduce([g[:-1, :-1], g[1:, :-1], g[:-1, 1:], g[1:, 1:]])
    cells = np.argwhere(cell_ok & (lo < 0) & (hi >= 0))
    segments = []
    for i, j in cells:
        f00, f10 = g[i, j], g[i + 1, j]
        f01, f11 = g[i, j + 1], g[i + 1, j + 1]
        pts = []
        # Edge order: bottom, right, top, left.
        for fa, fb, pa, pb in (
            (f00, f10, (xs[i], ys[j]), (xs[i + 1], ys[j])),
            (f10, f11, (xs[i + 1], ys[j]), (xs[i + 1], ys[j + 1])),
            (f01, f11, (xs[i], ys[j + 1]), (xs[i + 1], ys[j + 1])),
            (f00, f01, (xs[i], ys[j]), (xs[i], ys[j + 1])),
        ):
            if (fa < 0) != (fb < 0):
                t = fa / (fa - fb)
                pts.append((pa[0] + t * (pb[0] - pa[0]), pa[1] + t * (pb[1] - pa[1])))
        if len(pts) == 2:
            segments.append((pts[0], pts[1]))
        elif len(pts) == 4:
            # Saddle: disambiguate by the cell-center sign.
            if (f00 + f10 + f01 + f11) >= 0:
                segments.append((pts[0], pts[3]))
                segments.append((pts[1], pts[2]))
            else:
                segments.append((pts[0], pts[1]))
                segments.append((pts[2], pts[3]))
    return segments


def _chain_segments(segments):
    key = lambda p: (round(p[0], 9), round(p[1], 9))
    adj = {}
    for a, b in segments:
        adj.setdefault(key(a), []).append((a, b))
        adj.setdefault(key(b), []).append((b, a))
    ends = sorted(k for k, v in adj.items() if len(v) == 1)
    visited = set()
    chains = []
    starts = ends + sorted(adj.keys())
    for start in starts:
        if start in visited or start not in adj:
            continue
        chain = [start]
        visited.add(start)
        cur = start
        while True:
            nxt = None
            for a, b in adj[cur]:
                kb = key(b)
                if kb not in visited:
                    nxt = kb
                    break
            if nxt is None:
                break
            chain.append(nxt)
            visited.add(nxt)
            cur = nxt
        if len(chain) >= 2:
            chains.append(np.asarray(chain, dtype=float))
    chains.sort(key=lambda c: -len(c))
    return chains


# ---------------------------------------------------------------------------
# Weiss energy


@dataclass(eq=False)
class WeissProfile:
    """E, F and W = E - F over a set of radii around a center."""

    center: tuple
    radii: np.ndarray
    E: np.ndarray
    F: np.ndarray
    W: np.ndarray
    grid_h: float = None

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("r,E,F,W\n")
            for r, e, f, w in zip(self.radii, self.E, self.F, self.W):
                fh.write(f"{r:.17g},{e:.17g},{f:.17g},{w:.17g}\n")


def weiss(sol: GridSolution2D, center, radii) -> WeissProfile:
    """Scaled energy minus scaled boundary term by midpoint/trapezoid quadrature.

    The volume term uses cell midpoints (corner differences and corner mean).
    Two pieces depend on the dimension: the share of a cut cell inside the
    ball (exact length in 1D, 4x4 subsamples in 2D) and the sphere samples
    (the two endpoints in 1D, 8*ceil(r/h) but at least 64 circle points in 2D).
    """
    grid = sol.grid
    d, h = grid.dimension, grid.h
    center = np.asarray(center, dtype=float)
    radii = np.sort(np.asarray(radii, dtype=float))
    if not (len(radii) and radii[0] > 0):
        raise InsufficientData("need at least one radius, all positive")
    # The largest ball holds the others.
    centres, cdist, half_diag = check_ball_inside(grid, center, radii[-1])
    w, f = sol.spec.w, sol.spec.f
    offsets = cell_corners(d)
    corners = _cell_corners(sol.fields(), d)
    grad_sq = 0.0
    for ax in range(d):  # the corners above minus the corners below
        above = [v for v, c in zip(corners, offsets) if c[ax]]
        below = [-v for v, c in zip(corners, offsets) if not c[ax]]
        g = sum(above + below) / (2 ** (d - 1) * h)
        grad_sq = grad_sq + g * g
    integrand = (0.5 * grad_sq + f * (0.5**d * sum(corners))) @ w
    if d == 1:
        lo, hi = centres[0] - 0.5 * h, centres[0] + 0.5 * h

        def cut_fraction(cut, r):
            inside = np.minimum(hi[cut], center[0] + r) - np.maximum(lo[cut], center[0] - r)
            return np.maximum(0.0, inside) / h

        sphere = lambda r: (np.array([[-1.0], [1.0]]), 2.0)  # directions, |S^0|
    else:
        sub = (np.arange(4) + 0.5) / 4.0 - 0.5
        sx, sy = np.meshgrid(sub * h, sub * h, indexing="ij")

        def cut_fraction(cut, r):
            px = centres[0][cut][:, None, None] + sx[None]
            py = centres[1][cut][:, None, None] + sy[None]
            return (np.hypot(px - center[0], py - center[1]) <= r).mean(axis=(1, 2))

        def sphere(r):
            ns = max(64, 8 * int(np.ceil(r / h)))
            theta = 2.0 * np.pi * np.arange(ns) / ns
            return np.column_stack([np.cos(theta), np.sin(theta)]), 2.0 * np.pi

    E = np.empty(len(radii))
    F = np.empty(len(radii))
    for idx, r in enumerate(radii):
        full = cdist <= r - half_diag
        cut = (cdist <= r + half_diag) & ~full
        vol = integrand[full].sum()
        if cut.any():
            vol += (integrand[cut] * cut_fraction(cut, r)).sum()
        E[idx] = vol * h**d / r ** (d + 2)
        directions, area = sphere(r)
        uv = sol.interp(center + r * directions)
        F[idx] = float(((uv * uv) @ w).mean()) * area / r**4
    return WeissProfile(tuple(center), radii, E, F, E - F, grid_h=h)


def _cell_corners(arr, d):
    """Views of ``arr``, grid-shaped in its first d axes, at the 2^d corners
    of every cell, in ``cell_corners`` order."""
    shape = arr.shape[:d]
    return [arr[tuple(slice(c, c + m - 1) for c, m in zip(off, shape))] for off in cell_corners(d)]


def _cell_distances(grid, center):
    """Cell-centre coordinates (one cell-shaped array per axis), their
    distances to ``center``, and half a cell diagonal, h sqrt(d) / 2."""
    d, h = grid.dimension, grid.h
    axes = [grid.origin[ax] + h * (np.arange(grid.shape[ax] - 1) + 0.5) for ax in range(d)]
    centres = np.meshgrid(*axes, indexing="ij")
    # hypot folded from 0 is |x| in 1D; h / sqrt(4 / d) is h / 2 and h / sqrt(2) to the bit.
    dist = np.hypot.reduce([c - x for c, x in zip(centres, center)], axis=0, initial=0.0)
    return centres, dist, h / np.sqrt(4.0 / d)


def _ball_in_box(grid, center, r):
    """``center`` as an array; raises NonFiniteData unless the ball is finite
    and BallOutsideDomain unless it lies in the stored box."""
    center = np.asarray(center, dtype=float)
    if not (np.isfinite(center).all() and np.isfinite(r)):
        raise NonFiniteData(f"ball center {center} and radius {r} must be finite")
    if not grid.contains([center - r, center + r]):
        raise BallOutsideDomain(f"ball of radius {r} leaves the stored domain")
    return center


def check_ball_inside(grid: Grid, center, r):
    """Raise BallOutsideDomain unless the ball of radius r about ``center``
    lies in the stored domain and every cell it touches (cells whose center
    is within r plus half a cell diagonal) has only active corners.
    Returns the cell centres, their distances to ``center`` and h sqrt(d) / 2."""
    center = _ball_in_box(grid, center, r)
    ok = np.logical_and.reduce(_cell_corners(grid.role != INACTIVE, grid.dimension))
    centres, dist, half_diag = _cell_distances(grid, center)
    if np.any((dist <= r + half_diag) & ~ok):
        raise BallOutsideDomain(f"ball of radius {r} meets inactive nodes")
    return centres, dist, half_diag


def weiss_of_cone(cone: Cone1D):
    """Analytic Weiss energy of the trivial 2D extension of a 1D cone."""
    w, f = cone.spec.w, cone.spec.f
    am, ap = cone.a_minus, cone.a_plus
    return float(np.pi / 8.0 * (w @ (am * (f - am) + ap * (f - ap))))


def calibrate_weiss_slack(sol: GridSolution2D, center, radii, cone=None):
    """Slack constant C_q from an exact cone evaluated on the same grid.

    Measures the worst quadrature deviation of W from its analytic value on
    the cone field and returns C_q with slack(r) = C_q * h / r, with a
    safety factor of 3.
    """
    if cone is None:
        cone = Cone1D(sol.spec, "L" * (sol.spec.n_membranes - 1))
    # The cone's variable is the last coordinate (eval_2d at angle 0 in 2D).
    vals = cone.eval(sol.grid.coords()[:, -1] - center[-1])
    vals = np.where(np.isfinite(sol.u), vals, np.nan)
    ref = GridSolution2D(sol.grid, sol.spec, vals, sol.boundary_values)
    prof = weiss(ref, center, radii)
    exact = weiss_of_cone(cone)
    h = sol.grid.h
    dev = np.abs(prof.W - exact) * prof.radii / h
    return float(3.0 * max(dev.max(), 1e-12 / h))


@dataclass(eq=False)
class MonotonicityVerdict:
    ok: bool
    worst_violation: float
    violations: list  # (r_lo, r_hi, decrease beyond slack)
    c_q: float


def monotonicity_check(profile: WeissProfile, c_q) -> MonotonicityVerdict:
    """Assert W(r) is nondecreasing within the calibrated quadrature slack."""
    if len(profile.radii) < 3:
        raise InsufficientData("need at least 3 radii")
    h = profile.grid_h
    violations = []
    worst = 0.0
    for i in range(len(profile.radii) - 1):
        slack = c_q * h / profile.radii[i]
        drop = profile.W[i] - profile.W[i + 1] - slack
        if drop > 0:
            violations.append((float(profile.radii[i]), float(profile.radii[i + 1]), float(drop)))
            worst = max(worst, float(drop))
    return MonotonicityVerdict(not violations, worst, violations, c_q)


# ---------------------------------------------------------------------------
# Cone fitting


@dataclass(eq=False)
class FitResult:
    cone_id: str
    angle: float
    b: BranchVector  # None for degenerate catalogue entries
    epsilon: float
    radius: float
    b_ratio: float  # |b| / sqrt(epsilon), the achieved delta of the fit class
    degenerate: bool = False

    def as_dict(self):
        return {
            "cone": self.cone_id,
            "angle": self.angle,
            "b": None if self.b is None else list(self.b.values),
            "epsilon": self.epsilon,
            "radius": self.radius,
            "b_ratio": self.b_ratio,
            "degenerate": self.degenerate,
        }


_MIRROR = str.maketrans("LR", "RL")


def ball_nodes(grid: Grid, center, radius):
    """Offsets of the grid's nodes from ``center`` and the mask of the active
    ones within ``radius``; raises BallOutsideDomain if the ball leaves the
    stored box or the mask is empty."""
    active = grid.role.ravel() != INACTIVE
    rel = grid.coords() - _ball_in_box(grid, center, radius)
    sel = active & (np.linalg.norm(rel, axis=1) <= radius)
    if not sel.any():
        raise BallOutsideDomain("no active nodes in the fit ball")
    return rel, sel


def _lsq_branch(cone, theta, rel, uvals, resid=None):
    """Least-squares branch vector b = basis @ c of the linearized profile
    cone(y2) + y1 y2 b_side(y2), fitted to ``uvals`` (or to ``resid``).

    The design rows are s_p C_side(p) with s = y1 y2 and C_-, C_+ the two
    halves of the basis, so the normal equations read
    (S_+ C_+^T C_+ + S_- C_-^T C_-) c = C_+^T T_+ + C_-^T T_-, with S the
    sum of s^2 and T the sum of s times the target rows on each side.  The
    squared condition number costs nothing measurable: on a side's own
    columns C^T C has its eigenvalues between 1 and N (the group sizes),
    and s <= r^2.  lstsq keeps the minimum-norm answer when a side of the
    ball has no points.
    """
    basis = branch_space_basis(cone)
    if basis.shape[1] == 0:
        return zero_branch_vector(cone)
    y1, y2 = _rotated_coords(rel, theta)
    target = uvals - cone.eval(y2) if resid is None else resid
    s = y1 * y2
    s_plus = np.where(y2 >= 0, s, 0.0)
    sides = [(s_side @ s_side, s_side @ target) for s_side in (s_plus, s - s_plus)]
    return BranchVector(cone, basis @ _branch_coefficients(basis, cone.n, sides))


def _branch_coefficients(basis, n, sides):
    """Solve the normal equations of ``_lsq_branch`` for c, given
    ``sides`` = ((S_+, T_+), (S_-, T_-))."""
    k = basis.shape[1]
    normal = np.zeros((k, k))
    rhs = np.zeros(k)
    for c_side, (s_sq, t) in zip((basis[n:], basis[:n]), sides):
        normal += s_sq * (c_side.T @ c_side)
        rhs += c_side.T @ t
    c, *_ = np.linalg.lstsq(normal, rhs, rcond=None)
    return c


_N_COARSE = 64  # angles of the coarse scan
_COARSE_THETAS = 2.0 * np.pi * np.arange(_N_COARSE) / _N_COARSE
_ANGLE_TOL = 1e-4  # width of the final golden-section bracket


def _angular_moments(rel, uvals):
    """Prefix sums over the ball's points sorted by polar angle phi in
    [0, 2 pi) of the columns x^4, x^3 y, x^2 y^2, x y^3, y^4; x^2 u_n for
    each membrane, then x y u_n, then y^2 u_n; |u|^2.  Returns the sorted
    angles and the (M + 1) prefix rows, the first one zero, so the sums over
    the points with phi in [lo, hi) are the difference of the rows at
    ``searchsorted(phi, hi)`` and ``searchsorted(phi, lo)``."""
    phi = np.mod(np.arctan2(rel[:, 1], rel[:, 0]), 2.0 * np.pi)
    order = np.argsort(phi, kind="stable")
    x, y, u = rel[order, 0], rel[order, 1], uvals[order]
    n = u.shape[1]
    prefix = np.zeros((len(x) + 1, 6 + 3 * n))
    cols = prefix[1:]  # filled in place, then summed in place
    quad = np.column_stack([x * x, x * y, y * y])
    cols[:, :3] = quad[:, :1] * quad  # x^4, x^3 y, x^2 y^2
    cols[:, 3:5] = quad[:, 2:] * quad[:, 1:]  # x y^3, y^4
    cols[:, 5:-1] = (quad[:, :, None] * u[:, None, :]).reshape(len(x), 3 * n)
    cols[:, -1] = (u * u).sum(axis=1)
    np.cumsum(cols, axis=0, out=cols)
    return phi[order], prefix


def _form_product(f, g):
    """Row-wise product of two quadratic forms given by their coefficients
    on (x^2, x y, y^2): the quartic's coefficients on (x^4, x^3 y, x^2 y^2,
    x y^3, y^4)."""
    out = np.zeros((len(f), 5))
    for i in range(3):
        out[:, i : i + 3] += f[:, i : i + 1] * g
    return out


def _coarse_misfits(cone, moments):
    """RMS misfit of the linearized profile cone(y2) + y1 y2 b_side(y2),
    with b from ``_lsq_branch``'s normal equations, at every coarse angle,
    from the ball's ``_angular_moments`` alone.

    At angle theta the side y2 >= 0 is the polar window [theta, theta + pi).
    y2^2 and s = y1 y2 are quadratic forms in (x, y) with coefficients in
    cos theta and sin theta, so each sum a side needs is a row of form
    coefficients times a difference of two prefix rows: q4, q3 and s_sq of
    y2^4, y2^2 s and s^2, u_y2 and u_s of y2^2 u_n and s u_n.  The squared
    misfit, summed over the sides with their a and b,
    |u|^2 - 2 (a.u_y2 + b.u_s) + |a|^2 q4 + 2 a.b q3 + |b|^2 s_sq,
    follows in closed form.  A point with y2 = 0 adds 0 to every side sum,
    so rounding at a window edge does not matter.  The subtraction loses
    about 1e-16 of |u|^2, far below the misfit gaps that rank the angles.
    """
    phi, prefix = moments
    n = cone.n
    ct, st = np.cos(_COARSE_THETAS), np.sin(_COARSE_THETAS)
    y2_sq = np.column_stack([st * st, -2.0 * st * ct, ct * ct])
    s = np.column_stack([-st * ct, ct * ct - st * st, st * ct])
    quartics = np.stack([_form_product(y2_sq, y2_sq), _form_product(y2_sq, s), _form_product(s, s)])
    lo = np.mod(_COARSE_THETAS, np.pi)
    inner = prefix[np.searchsorted(phi, lo + np.pi)] - prefix[np.searchsorted(phi, lo)]
    outer = prefix[-1] - inner
    upper = (_COARSE_THETAS < np.pi)[:, None]  # the window [theta, theta + pi) is the inner one
    plus, minus = np.where(upper, inner, outer), np.where(upper, outer, inner)
    sides = []
    for sums, a in ((plus, cone.a_plus), (minus, cone.a_minus)):
        q4, q3, s_sq = (quartics * sums[:, :5]).sum(axis=2)  # sums of y2^4, y2^2 s, s^2
        u_moments = sums[:, 5:-1].reshape(-1, 3, n)
        u_y2 = np.einsum("aj,ajn->an", y2_sq, u_moments)
        u_s = np.einsum("aj,ajn->an", s, u_moments)
        sides.append((a, q4, q3, s_sq, u_y2, u_s))
    basis = branch_space_basis(cone)
    coef = np.zeros((_N_COARSE, basis.shape[1]))
    if basis.shape[1]:
        for i in range(_N_COARSE):
            normal_sides = [(s_sq[i], u_s[i] - a * q3[i]) for a, _, q3, s_sq, _, u_s in sides]
            coef[i] = _branch_coefficients(basis, n, normal_sides)
    sq = np.full(_N_COARSE, prefix[-1, -1])
    for (a, q4, q3, s_sq, u_y2, u_s), c_side in zip(sides, (basis[n:], basis[:n])):
        b = coef @ c_side.T
        sq += (a @ a) * q4 + 2.0 * (b @ a) * q3 + (b * b).sum(axis=1) * s_sq
        sq -= 2.0 * (u_y2 @ a + (u_s * b).sum(axis=1))
    return np.sqrt(np.maximum(sq, 0.0) / (len(phi) * n))


def _angle_search(misfit_at, coarse):
    """Minimize ``misfit_at(theta) -> (misfit, payload)`` over the angle.

    ``coarse`` holds a misfit at each of the _N_COARSE angles of
    _COARSE_THETAS, a cheaper stand-in for ``misfit_at`` or ``misfit_at``
    itself; the best of them is re-scored with ``misfit_at`` and refined by
    golden-section steps on ``misfit_at`` around it down to _ANGLE_TOL.
    Only ``misfit_at`` values are compared at the end.  Returns the winning
    (theta, payload)."""
    theta0 = _COARSE_THETAS[int(np.argmin(coarse))]
    e0, p0 = misfit_at(theta0)
    step = 2.0 * np.pi / _N_COARSE
    lo, hi = theta0 - step, theta0 + step
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - gr * (hi - lo), lo + gr * (hi - lo)
    f1, p1 = misfit_at(x1)
    f2, p2 = misfit_at(x2)
    while hi - lo > _ANGLE_TOL:
        if f1 <= f2:
            hi, x2, f2, p2 = x2, x1, f1, p1
            x1 = hi - gr * (hi - lo)
            f1, p1 = misfit_at(x1)
        else:
            lo, x1, f1, p1 = x1, x2, f2, p2
            x2 = lo + gr * (hi - lo)
            f2, p2 = misfit_at(x2)
    return min([(f1, x1, p1), (f2, x2, p2), (e0, theta0, p0)], key=lambda t: t[0])[1:]


def _fit_connected(cone, rel, uvals, radius, moments):
    # The angle search minimizes the RMS misfit, which is robust to
    # perturbations; the reported epsilon is the sup misfit of the result.
    # The coarse scan ranks angles by the misfit of the linearized profile
    # cone(y2) + y1 y2 b_side(y2) that _lsq_branch fits, computed from the
    # ball's angular moments with no exact profile evaluation.
    def resid_at(theta, b):
        return uvals - ApproximateProfile2D(cone, zero_branch_vector(cone), b, theta).eval(rel)

    def rms_at(theta):
        b = _lsq_branch(cone, theta, rel, uvals)
        resid = resid_at(theta, b)
        return float(np.sqrt(np.mean(resid**2))), (b, resid)

    theta, (b, resid) = _angle_search(rms_at, _coarse_misfits(cone, moments))
    e = float(np.abs(resid).max()) / radius**2
    # Sup-norm polish: correct b against the exact profile a few times.
    for _ in range(3):
        db = _lsq_branch(cone, theta, rel, uvals, resid=resid)
        b_try = BranchVector(cone, b.values + db.values)
        resid_try = resid_at(theta, b_try)
        e_try = float(np.abs(resid_try).max()) / radius**2
        if e_try < e:
            e, b, resid = e_try, b_try, resid_try
        else:
            break
    theta = float(np.mod(theta, 2.0 * np.pi))
    ratio = b.norm() / np.sqrt(e) if e > 0 else np.inf
    return FitResult(cone.id, theta, b, e, radius, ratio, degenerate=False)


def _fit_degenerate(cone, rel, uvals, radius):
    def rms_at(theta):
        return float(np.sqrt(np.mean((uvals - cone.eval_2d(rel, theta)) ** 2))), None

    theta, _ = _angle_search(rms_at, [rms_at(t)[0] for t in _COARSE_THETAS])
    e = float(np.abs(uvals - cone.eval_2d(rel, theta)).max()) / radius**2
    return FitResult(cone.id, float(np.mod(theta, 2 * np.pi)), None, e, radius, np.inf, degenerate=True)


def fit_cone(sol: GridSolution2D, center, radius, catalogue=None) -> FitResult:
    """Best sup-norm fit of the profile family over the cone catalogue.

    Connected cones are fitted over rotation and branch vector: at each
    angle the branch vector solves the linearized least squares through its
    k x k normal equations (``_lsq_branch``).  A coarse scan ranks the
    angles by the RMS misfit of that linearized profile, which it computes
    from prefix sums of the ball's moments over the polar angle, taken once
    per ball and shared by every cone (``_coarse_misfits``), so no angle
    rotates the ball.  The winner is re-scored and refined by golden-section
    steps on the RMS misfit of the exact profile, then polished against the
    exact profile in the sup norm.  Degenerate cones are fitted over
    rotation only, their coarse scan on the exact RMS misfit.  A cone whose
    L<->R swap came earlier in the catalogue is skipped: it is the same
    field turned by pi, and the angle search covers [0, 2 pi), so each
    mirror pair is fitted once and reported as its first member in
    catalogue order.  Deterministic given the search schedule.  Raises
    InsufficientData for an empty catalogue and InvalidInput for a radius
    that is not finite and positive or a cone of another N.
    """
    if not (np.isfinite(radius) and radius > 0):
        raise InvalidInput(f"fit radius {radius} must be finite and positive")
    if catalogue is None:
        catalogue = enumerate_cones(sol.spec)
    if not catalogue:
        raise InsufficientData("empty cone catalogue")
    for cone in catalogue:
        if cone.n != sol.spec.n_membranes:
            raise InvalidInput(f"cone {cone.pattern!r} has N={cone.n}, not {sol.spec.n_membranes}")
    rel, sel = ball_nodes(sol.grid, center, radius)
    rel, uvals = rel[sel], sol.u[sel]
    moments = _angular_moments(rel, uvals)
    best = None
    fitted = set()
    for cone in catalogue:
        if cone.pattern.translate(_MIRROR) in fitted:
            continue
        fitted.add(cone.pattern)
        if cone.connected:
            res = _fit_connected(cone, rel, uvals, radius, moments)
        else:
            res = _fit_degenerate(cone, rel, uvals, radius)
        if best is None or res.epsilon < best.epsilon:
            best = res
    return best


# ---------------------------------------------------------------------------
# Regular point probe


@dataclass(eq=False)
class ProbeReport:
    fit: FitResult
    eps0: float
    tangent_angles: dict  # pair -> angle of the common tangent line
    oscillations: dict  # pair -> list of (r, osc, 1/(-log r))


def regular_point_probe(sol: GridSolution2D, center, radius=0.4) -> ProbeReport:
    """Check |u - p0(rotated)| <= eps0 = 0.01 (f_1 - f_N) on the probe ball
    and report the tangent-direction oscillation of every free boundary
    across dyadic scales."""
    spec = sol.spec
    eps0 = 0.01 * (spec.forces[0] - spec.forces[-1])
    p0 = Cone1D(spec, "L" * (spec.n_membranes - 1))
    fit = fit_cone(sol, center, radius, catalogue=[p0])
    if fit.epsilon > eps0:
        raise NotRegular(
            f"best half-plane fit epsilon {fit.epsilon:.3e} exceeds eps0 {eps0:.3e}"
        )
    center = np.asarray(center, dtype=float)
    tangents = {}
    oscillation = {}
    for k in range(1, spec.n_membranes):
        curve = extract_free_boundary(sol, k)
        verts = curve.vertices - center
        tangents[k] = _tls_direction(verts)
        rows = []
        r = radius / 2.0
        while r >= 8.0 * sol.grid.h:
            dist = np.linalg.norm(verts, axis=1)
            sel = (dist >= r) & (dist <= 2.0 * r)
            if sel.sum() >= 3:
                osc = _direction_oscillation(verts[sel])
                rows.append((float(r), osc, float(1.0 / max(-np.log(r), 1e-12))))
            r /= 2.0
        oscillation[k] = rows
    return ProbeReport(fit, eps0, tangents, oscillation)


def _tls_direction(verts):
    """Total-least-squares line direction (angle mod pi) through the vertices."""
    c = verts - verts.mean(axis=0)
    _, _, vt = np.linalg.svd(c, full_matrices=False)
    d = vt[0]
    return float(np.mod(np.arctan2(d[1], d[0]), np.pi))


def _direction_oscillation(verts):
    """Spread of the segment directions, on doubled angles so that opposite
    segment orientations count as the same tangent line."""
    d = np.diff(verts, axis=0)
    keep = np.linalg.norm(d, axis=1) > 0
    if not keep.any():
        return 0.0
    ang2 = 2.0 * np.arctan2(d[keep, 1], d[keep, 0])
    mean = np.arctan2(np.sin(ang2).mean(), np.cos(ang2).mean())
    dev = np.angle(np.exp(1j * (ang2 - mean)))
    return 0.5 * float(np.abs(dev).max())


# ---------------------------------------------------------------------------
# Rate fitting


@dataclass(eq=False)
class RateFit:
    radii: np.ndarray
    epsilons: np.ndarray
    log_constant: float
    log_residual: float
    power_constant: float
    power_alpha: float
    power_residual: float
    preferred: str  # "log" or "power"

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("r,epsilon\n")
            for r, e in zip(self.radii, self.epsilons):
                fh.write(f"{r:.17g},{e:.17g}\n")

    def as_dict(self):
        return {
            "log_constant": self.log_constant,
            "log_residual": self.log_residual,
            "power_constant": self.power_constant,
            "power_alpha": self.power_alpha,
            "power_residual": self.power_residual,
            "preferred": self.preferred,
        }


def rate_fit(series) -> RateFit:
    """Fit eps(r) = C / (-log r) and eps(r) = C r^alpha in log space.

    Purely descriptive: reports both residuals and the preferred model.
    """
    try:
        series = sorted((float(r), float(e)) for r, e in series)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"the series must hold (r, epsilon) pairs of numbers: {exc}") from exc
    radii = np.array([r for r, _ in series])
    eps = np.array([e for _, e in series])
    if not (np.isfinite(radii).all() and np.isfinite(eps).all()):
        raise NonFiniteData("radii and epsilons must be finite")
    if len(radii) < 5:
        raise InsufficientData("need at least 5 radii")
    if radii.min() <= 0 or np.log(radii.max()) - np.log(radii.min()) < np.log(100.0) - 1e-9:
        raise InsufficientData("radii must span at least two decades")
    if np.any(eps <= 0):
        raise InsufficientData("epsilons must be positive")
    log_eps = np.log(eps)
    if radii.max() < 1.0:
        log_c = float(np.mean(log_eps + np.log(-np.log(radii))))
        log_resid = float(np.sqrt(np.mean((log_eps - (log_c - np.log(-np.log(radii)))) ** 2)))
    else:
        log_c, log_resid = np.nan, np.inf
    coef = np.polyfit(np.log(radii), log_eps, 1)
    alpha, pc = float(coef[0]), float(coef[1])
    power_resid = float(np.sqrt(np.mean((log_eps - np.polyval(coef, np.log(radii))) ** 2)))
    preferred = "log" if log_resid <= power_resid else "power"
    return RateFit(
        radii,
        eps,
        np.exp(log_c) if np.isfinite(log_c) else np.nan,
        log_resid,
        np.exp(pc),
        alpha,
        power_resid,
        preferred,
    )

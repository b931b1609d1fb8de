"""Blow-up analysis of solved fields: free boundary extraction, the Weiss
energy and its monotonicity, quadratic rescalings, cone fitting, and
convergence-rate model fitting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .cones1d import Cone1D, enumerate_cones
from .errors import (
    BallOutsideDomain,
    EmptyFreeBoundary,
    InsufficientData,
    NotRegular,
    OutOfDomain,
)
from .exact1d import (
    ApproximateProfile2D,
    BranchVector,
    _rotated_coords,
    branch_space_basis,
    zero_branch_vector,
)
from .solver2d import Grid, GridSolution2D, INACTIVE, default_coincidence_tol

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
        raise ValueError("free boundary extraction requires a 2D solution")
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


def _chain_segments(segments, digits=9):
    key = lambda p: (round(p[0], digits), round(p[1], digits))
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


def polyline_csv(curve: FreeBoundaryCurve, path):
    with open(path, "w") as fh:
        fh.write("x,y\n")
        for x, y in curve.vertices:
            fh.write(f"{x:.17g},{y:.17g}\n")


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

    The volume term uses cell midpoints with 4x4 subsampled area fractions on
    cut cells; the boundary term interpolates the fields onto 8*ceil(r/h)
    circle samples.
    """
    grid = sol.grid
    center = np.asarray(center, dtype=float)
    radii = np.sort(np.asarray(radii, dtype=float))
    check_ball_inside(grid, center, radii[-1])  # the largest ball holds the others
    if grid.dimension == 1:
        return _weiss_1d(sol, float(center[0]), radii)
    h = grid.h
    w, f = sol.spec.w, sol.spec.f
    fields = sol.fields()
    # Cell-centered integrand.
    ux = (fields[1:, :-1] + fields[1:, 1:] - fields[:-1, :-1] - fields[:-1, 1:]) / (2 * h)
    uy = (fields[:-1, 1:] + fields[1:, 1:] - fields[:-1, :-1] - fields[1:, :-1]) / (2 * h)
    uc = 0.25 * (fields[:-1, :-1] + fields[1:, :-1] + fields[:-1, 1:] + fields[1:, 1:])
    integrand = (0.5 * (ux * ux + uy * uy) + f * uc) @ w
    xs = grid.origin[0] + h * (np.arange(grid.shape[0] - 1) + 0.5)
    ys = grid.origin[1] + h * (np.arange(grid.shape[1] - 1) + 0.5)
    cdist = np.hypot(xs[:, None] - center[0], ys[None, :] - center[1])
    half_diag = h / np.sqrt(2.0)
    sub = (np.arange(4) + 0.5) / 4.0 - 0.5
    sx, sy = np.meshgrid(sub * h, sub * h, indexing="ij")

    E = np.empty(len(radii))
    F = np.empty(len(radii))
    for idx, r in enumerate(radii):
        used = cdist <= r + half_diag
        full = cdist <= r - half_diag
        cut = used & ~full
        vol = integrand[full].sum()
        if cut.any():
            ci, cj = np.nonzero(cut)
            px = xs[ci][:, None, None] + sx[None]
            py = ys[cj][:, None, None] + sy[None]
            frac = (np.hypot(px - center[0], py - center[1]) <= r).mean(axis=(1, 2))
            vol += (integrand[cut] * frac).sum()
        E[idx] = vol * h * h / r**4

        ns = max(64, 8 * int(np.ceil(r / h)))
        theta = 2.0 * np.pi * np.arange(ns) / ns
        pts = center + r * np.column_stack([np.cos(theta), np.sin(theta)])
        uv = sol.interp(pts)
        F[idx] = float(((uv * uv) @ w).mean() * 2.0 * np.pi * r) / r**5
    return WeissProfile(tuple(center), radii, E, F, E - F, grid_h=h)


def check_ball_inside(grid: Grid, center, r):
    """Raise BallOutsideDomain unless the ball of radius r about ``center``
    lies in the stored domain and every cell it touches (cells whose center
    is within r plus half a cell diagonal) has only active corners."""
    center = np.asarray(center, dtype=float)
    h = grid.h
    lo = np.asarray(grid.origin)
    hi = lo + h * (np.asarray(grid.shape) - 1)
    if np.any(center - r < lo - 1e-12) or np.any(center + r > hi + 1e-12):
        raise BallOutsideDomain(f"ball of radius {r} leaves the stored domain")
    active = grid.role != INACTIVE
    xs = grid.origin[0] + h * (np.arange(grid.shape[0] - 1) + 0.5)
    if grid.dimension == 1:
        ok = active[1:] & active[:-1]
        used = np.abs(xs - center[0]) <= r + 0.5 * h
    else:
        ok = active[1:, 1:] & active[1:, :-1] & active[:-1, 1:] & active[:-1, :-1]
        ys = grid.origin[1] + h * (np.arange(grid.shape[1] - 1) + 0.5)
        cdist = np.hypot(xs[:, None] - center[0], ys[None, :] - center[1])
        used = cdist <= r + h / np.sqrt(2.0)
    if np.any(used & ~ok):
        raise BallOutsideDomain(f"ball of radius {r} meets inactive nodes")


def _weiss_1d(sol, center, radii):
    grid = sol.grid
    h = grid.h
    w, f = sol.spec.w, sol.spec.f
    fields = sol.fields()
    ux = (fields[1:] - fields[:-1]) / h
    uc = 0.5 * (fields[1:] + fields[:-1])
    integrand = (0.5 * ux * ux + f * uc) @ w
    xs = grid.origin[0] + h * (np.arange(grid.shape[0] - 1) + 0.5)
    E = np.empty(len(radii))
    F = np.empty(len(radii))
    for idx, r in enumerate(radii):
        used = np.abs(xs - center) <= r + 0.5 * h
        full = np.abs(xs - center) <= r - 0.5 * h
        cut = used & ~full
        vol = integrand[full].sum() * h
        # Fractional end cells.
        for ci in np.flatnonzero(cut):
            lo = max(xs[ci] - 0.5 * h, center - r)
            hi = min(xs[ci] + 0.5 * h, center + r)
            vol += integrand[ci] * max(0.0, hi - lo)
        E[idx] = vol / r**3
        uv = sol.interp(np.array([[center - r], [center + r]]))
        F[idx] = float(((uv * uv) @ w).sum()) / r**4
    return WeissProfile((center,), radii, E, F, E - F, grid_h=h)


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
    coords = sol.grid.coords()
    vals = cone.eval_2d(coords - np.asarray(center)) if sol.grid.dimension == 2 else cone.eval(
        coords[:, 0] - center[0]
    )
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
# Blow-up rescaling


def blowup_rescale(sol: GridSolution2D, r) -> GridSolution2D:
    """Resample r^{-2} u(r x) onto the unit square (or interval) at the
    solution's grid step."""
    if sol.grid.dimension == 2:
        target_grid = Grid.rectangle(-1, 1, -1, 1, sol.grid.h)
    else:
        target_grid = Grid.interval(-1, 1, sol.grid.h)
    pts = target_grid.coords() * r
    g = sol.grid
    lo = np.asarray(g.origin)
    hi = lo + g.h * (np.asarray(g.shape) - 1)
    if np.any(pts < lo - 1e-12) or np.any(pts > hi + 1e-12):
        raise OutOfDomain(f"rescaling by {r} leaves the stored domain")
    vals = sol.interp(pts) / r**2
    if not np.all(np.isfinite(vals)):
        raise OutOfDomain(f"rescaling by {r} touches inactive nodes")
    _, boundary, _, _ = target_grid.indexing()
    return GridSolution2D(target_grid, sol.spec, vals, vals[boundary].copy(), meta={"rescale": r})


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

    def to_json(self):
        return json.dumps(
            {
                "cone": self.cone_id,
                "angle": self.angle,
                "b": None if self.b is None else list(self.b.values),
                "epsilon": self.epsilon,
                "radius": self.radius,
                "b_ratio": self.b_ratio,
                "degenerate": self.degenerate,
            }
        )


_MIRROR = str.maketrans("LR", "RL")


def _ball_samples(sol, center, radius):
    coords = sol.grid.coords()
    active = sol.grid.role.ravel() != INACTIVE
    rel = coords - np.asarray(center)
    sel = active & (np.linalg.norm(rel, axis=1) <= radius)
    if not sel.any():
        raise BallOutsideDomain("no active nodes in the fit ball")
    return rel[sel], sol.u[sel]


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
    k = basis.shape[1]
    if k == 0:
        return zero_branch_vector(cone)
    y1, y2 = _rotated_coords(rel, theta)
    target = uvals - cone.eval(y2) if resid is None else resid
    n = cone.n
    s = y1 * y2
    s_plus = np.where(y2 >= 0, s, 0.0)
    normal = np.zeros((k, k))
    rhs = np.zeros(k)
    for c_side, s_side in ((basis[n:], s_plus), (basis[:n], s - s_plus)):
        normal += (s_side @ s_side) * (c_side.T @ c_side)
        rhs += c_side.T @ (s_side @ target)
    c, *_ = np.linalg.lstsq(normal, rhs, rcond=None)
    return BranchVector(cone, basis @ c)


_N_COARSE = 64  # angles of the coarse scan
_ANGLE_TOL = 1e-4  # width of the final golden-section bracket


def _angle_search(misfit_at, coarse_at):
    """Minimize ``misfit_at(theta) -> (misfit, payload)`` over the angle.

    A coarse scan of _N_COARSE angles ranks them by ``coarse_at``, a cheaper
    stand-in with the same signature; the winner is re-scored with
    ``misfit_at`` and refined by golden-section steps on ``misfit_at``
    around it down to _ANGLE_TOL.  Only ``misfit_at`` values are compared
    at the end.  Returns the winning (theta, payload)."""
    thetas = 2.0 * np.pi * np.arange(_N_COARSE) / _N_COARSE
    theta0 = thetas[int(np.argmin([coarse_at(theta)[0] for theta in thetas]))]
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


def _fit_connected(cone, rel, uvals, radius):
    # The angle search minimizes the RMS misfit, which is robust to
    # perturbations; the reported epsilon is the sup misfit of the result.
    # The coarse scan ranks angles by the misfit of the linearized profile
    # cone(y2) + y1 y2 b_side(y2) that _lsq_branch fits, which needs no
    # exact profile evaluation.
    def linear_rms_at(theta):
        b = _lsq_branch(cone, theta, rel, uvals)
        y1, y2 = _rotated_coords(rel, theta)
        b_side = np.where((y2 >= 0)[:, None], b.plus, b.minus)
        lin = cone.eval(y2) + (y1 * y2)[:, None] * b_side
        return float(np.sqrt(np.mean((uvals - lin) ** 2))), None

    def resid_at(theta, b):
        return uvals - ApproximateProfile2D(cone, zero_branch_vector(cone), b, theta).eval(rel)

    def rms_at(theta):
        b = _lsq_branch(cone, theta, rel, uvals)
        resid = resid_at(theta, b)
        return float(np.sqrt(np.mean(resid**2))), (b, resid)

    theta, (b, resid) = _angle_search(rms_at, linear_rms_at)
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

    theta, _ = _angle_search(rms_at, rms_at)
    e = float(np.abs(uvals - cone.eval_2d(rel, theta)).max()) / radius**2
    return FitResult(cone.id, float(np.mod(theta, 2 * np.pi)), None, e, radius, np.inf, degenerate=True)


def fit_cone(sol: GridSolution2D, center, radius, catalogue=None) -> FitResult:
    """Best sup-norm fit of the profile family over the cone catalogue.

    Connected cones are fitted over rotation and branch vector: at each
    angle the branch vector solves the linearized least squares through its
    k x k normal equations (``_lsq_branch``).  A coarse scan ranks the
    angles by the RMS misfit of that linearized profile; the winner is
    re-scored and refined by golden-section steps on the RMS misfit of the
    exact profile, then polished against the exact profile in the sup norm.
    Degenerate cones are fitted over rotation only.  A cone whose L<->R
    swap came earlier in the catalogue is skipped: it is the same field
    turned by pi, and the angle search covers [0, 2 pi), so each mirror
    pair is fitted once and reported as its first member in catalogue
    order.  Deterministic given the search schedule.
    """
    rel, uvals = _ball_samples(sol, center, radius)
    if catalogue is None:
        catalogue = enumerate_cones(sol.spec)
    best = None
    fitted = set()
    for cone in catalogue:
        if cone.pattern.translate(_MIRROR) in fitted:
            continue
        fitted.add(cone.pattern)
        if cone.connected:
            res = _fit_connected(cone, rel, uvals, radius)
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

    def to_json(self):
        return json.dumps(
            {
                "log_constant": self.log_constant,
                "log_residual": self.log_residual,
                "power_constant": self.power_constant,
                "power_alpha": self.power_alpha,
                "power_residual": self.power_residual,
                "preferred": self.preferred,
            }
        )


def rate_fit(series) -> RateFit:
    """Fit eps(r) = C / (-log r) and eps(r) = C r^alpha in log space.

    Purely descriptive: reports both residuals and the preferred model.
    """
    series = sorted((float(r), float(e)) for r, e in series)
    radii = np.array([r for r, _ in series])
    eps = np.array([e for _, e in series])
    if len(radii) < 5:
        raise InsufficientData("need at least 5 radii")
    if radii.min() <= 0 or radii.max() / radii.min() < 100.0 - 1e-9:
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

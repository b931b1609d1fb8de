"""Projected SOR minimizer of the constrained Dirichlet energy on intervals,
rectangles and disks.

Each sweep visits the nodes in red-black order.  At a node the N
unconstrained three/five-point updates u_hat are over-relaxed to
u + omega (u_hat - u), omega = 2 / (1 + sin(pi h / L)) with L the domain
diameter, and projected onto the ordered cone with the weighted isotonic
projection (projected SOR: Cryer 1971; block projection in the weight
metric: Glowinski, Lions & Tremolieres 1981).  The projection's output is
exactly non-increasing, so the ordering holds exactly at every node.  For
any omega <= 2 the discrete energy never increases: it depends on one
node's value v only through |v - u_hat|_w^2, and with d = u_hat - u and e
the node's step the projection inequality gives <d, e>_w >= |e|_w^2 / omega,
so |u + e - u_hat|_w^2 - |u - u_hat|_w^2 <= (1 - 2/omega) |e|_w^2 <= 0.
Once a sweep changes the field by no more than its rounding level the
remaining sweeps use omega = 1 (plain projected Gauss-Seidel), which
reaches exact stagnation where over-relaxed sweeps would keep moving nodes
by an ulp.  The weighted membrane sum is made exactly harmonic at
initialization, which removes the slowest error mode.

One sweep loop, ``_relax``, serves ``solve`` (load h^2 f) and
``gamesim.bellman_solve`` (unit weights, load 2d times the round costs): an
over-relaxed sweep of that monotone map has the fixed point of its Jacobi
form, value iteration (Bertsekas & Tsitsiklis 1989, sec. 3.2).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    EmptyFreeBoundary,
    EmptyGrid,
    IncompatibleGrids,
    NonFiniteData,
    UnorderedBoundary,
)
from .problem import ProblemSpec
from .projection import isotonic_project_batch

INTERIOR, BOUNDARY, INACTIVE = 0, 1, 2


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform grid with node roles; disks are node-masked rectangles."""

    dimension: int
    origin: tuple
    shape: tuple
    h: float
    role: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)

    @staticmethod
    def interval(lo, hi, h):
        n = _count(lo, hi, h)
        role = np.full(n, INTERIOR, dtype=np.int8)
        role[0] = role[-1] = BOUNDARY
        return Grid(1, (float(lo),), (n,), float(h), role)

    @staticmethod
    def rectangle(x0, x1, y0, y1, h):
        nx, ny = _count(x0, x1, h), _count(y0, y1, h)
        role = np.full((nx, ny), INTERIOR, dtype=np.int8)
        role[0, :] = role[-1, :] = BOUNDARY
        role[:, 0] = role[:, -1] = BOUNDARY
        return Grid(2, (float(x0), float(y0)), (nx, ny), float(h), role)

    @staticmethod
    def disk(cx, cy, radius, h):
        pad = 2.0 * h
        x0 = cx - radius - pad
        y0 = cy - radius - pad
        n = _count(x0, cx + radius + pad, h)
        xs = x0 + h * np.arange(n)
        ys = y0 + h * np.arange(n)
        dist = np.hypot(xs[:, None] - cx, ys[None, :] - cy)
        inside = dist < radius
        if inside[[0, -1]].any() or inside[:, [0, -1]].any():
            raise ValueError(f"disk at ({cx}, {cy}) of radius {radius} is not resolved at h={h}")
        role = np.full((n, n), INACTIVE, dtype=np.int8)
        role[inside] = INTERIOR
        # Cut nodes: outside neighbors of interior nodes carry Dirichlet data.
        for ax, shift in ((0, 1), (0, -1), (1, 1), (1, -1)):
            nb = np.roll(inside, shift, axis=ax)
            if shift == 1:
                nb[(0,) if ax == 0 else (slice(None), 0)] = False
            else:
                nb[(-1,) if ax == 0 else (slice(None), -1)] = False
            role[nb & ~inside] = BOUNDARY
        return Grid(2, (float(x0), float(y0)), (n, n), float(h), role)

    @property
    def n_nodes(self):
        return int(np.prod(self.shape))

    def coords(self):
        """(M, d) coordinates of all nodes, C-order flattened."""
        axes = [self.origin[a] + self.h * np.arange(self.shape[a]) for a in range(self.dimension)]
        if self.dimension == 1:
            return axes[0][:, None]
        xg, yg = np.meshgrid(axes[0], axes[1], indexing="ij")
        return np.column_stack([xg.ravel(), yg.ravel()])

    def diameter(self):
        pts = self.coords()[self.role.ravel() != INACTIVE]
        return float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))

    def indexing(self):
        """Interior/boundary flat indices, neighbor table and red-black split."""
        if "indexing" not in self._cache:
            role = self.role.ravel()
            interior = np.flatnonzero(role == INTERIOR)
            boundary = np.flatnonzero(role == BOUNDARY)
            if len(interior) == 0:
                raise EmptyGrid(f"grid of shape {self.shape} at h={self.h} has no interior nodes")
            if self.dimension == 1:
                nbr = np.stack([interior - 1, interior + 1], axis=1)
                parity = interior % 2
            else:
                nx, ny = self.shape
                i, j = np.divmod(interior, ny)
                nbr = np.stack(
                    [(i - 1) * ny + j, (i + 1) * ny + j, i * ny + j - 1, i * ny + j + 1],
                    axis=1,
                )
                parity = (i + j) % 2
            if np.any(role[nbr.ravel()] == INACTIVE):
                raise ValueError("interior node with inactive neighbor")
            self._cache["indexing"] = (interior, boundary, nbr, parity == 0)
        return self._cache["indexing"]


def _count(lo, hi, h):
    n = (hi - lo) / h
    if not np.isfinite(n) or abs(n - round(n)) > 1e-9:
        raise ValueError(f"extent {hi - lo} is not a multiple of h={h}")
    return int(round(n)) + 1


@dataclass(eq=False)
class GridSolution2D:
    """Per-membrane scalar fields on a grid with frozen Dirichlet data."""

    grid: Grid
    spec: ProblemSpec
    u: np.ndarray  # (n_nodes, N), NaN at inactive nodes
    boundary_values: np.ndarray  # (n_boundary, N) snapshot
    meta: dict = field(default_factory=dict)

    @property
    def n(self):
        return self.spec.n_membranes

    def fields(self):
        """Values reshaped to grid shape + (N,)."""
        return self.u.reshape(self.grid.shape + (self.n,))

    def interp(self, points):
        """Bilinear (linear in 1D) interpolation at points inside the domain."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        g = self.grid
        t = (pts - np.asarray(g.origin)) / g.h
        i0 = np.clip(np.floor(t).astype(int), 0, np.asarray(g.shape) - 2)
        frac = t - i0
        vals = self.fields()
        if g.dimension == 1:
            a = vals[i0[:, 0]]
            b = vals[i0[:, 0] + 1]
            out = a * (1 - frac[:, :1]) + b * frac[:, :1]
        else:
            fx, fy = frac[:, :1], frac[:, 1:2]
            v00 = vals[i0[:, 0], i0[:, 1]]
            v10 = vals[i0[:, 0] + 1, i0[:, 1]]
            v01 = vals[i0[:, 0], i0[:, 1] + 1]
            v11 = vals[i0[:, 0] + 1, i0[:, 1] + 1]
            out = (
                v00 * (1 - fx) * (1 - fy)
                + v10 * fx * (1 - fy)
                + v01 * (1 - fx) * fy
                + v11 * fx * fy
            )
        return out


def dirichlet_values(grid, boundary_data, n):
    """(n_boundary, N) Dirichlet values from an array or a callable of the
    boundary node coordinates; must be finite and ordered."""
    _, boundary, _, _ = grid.indexing()
    pts = grid.coords()[boundary]
    if callable(boundary_data):
        g = np.asarray(boundary_data(pts), dtype=float)
    else:
        g = np.asarray(boundary_data, dtype=float)
    if g.shape != (len(boundary), n):
        raise ValueError(f"boundary data shape {g.shape} != {(len(boundary), n)}")
    if not np.isfinite(g).all():
        raise NonFiniteData("boundary data contains NaN or infinite values")
    scale = max(1.0, float(np.abs(g).max()))
    if n > 1 and (g[:, :-1] - g[:, 1:]).min() < -1e-10 * scale:
        raise UnorderedBoundary("boundary data violates the ordering constraint")
    return g


def _harmonic_extension(grid, gvals, n):
    """Discrete harmonic extension of the boundary data, one field per membrane."""
    interior, boundary, nbr, _ = grid.indexing()
    m = len(interior)
    pos = np.full(grid.n_nodes, -1, dtype=int)
    pos[interior] = np.arange(m)
    bpos = np.full(grid.n_nodes, -1, dtype=int)
    bpos[boundary] = np.arange(len(boundary))

    rows, cols, vals = [np.arange(m)], [np.arange(m)], [np.full(m, 2.0 * grid.dimension)]
    rhs = np.zeros((m, n))
    for k in range(nbr.shape[1]):
        nb = nbr[:, k]
        is_int = pos[nb] >= 0
        rows.append(np.flatnonzero(is_int))
        cols.append(pos[nb[is_int]])
        vals.append(np.full(is_int.sum(), -1.0))
        ext = ~is_int
        rhs[ext] += gvals[bpos[nb[ext]]]
    a_mat = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(m, m)
    )
    lu = spla.splu(a_mat.tocsc())
    return np.column_stack([lu.solve(rhs[:, k]) for k in range(n)])


def _error_bound(changes, window=20):
    """Estimated sup distance to the discrete solution from the sweep changes:
    a / (1 - rho), with a the largest change of the last ``window`` sweeps and
    rho the per-sweep contraction against the largest of the window before.
    Windowed maxima because over-relaxed changes oscillate; 0 once a sweep
    changes nothing, infinite before two windows exist or without contraction."""
    if changes[-1] == 0.0:
        return 0.0
    if len(changes) < 2 * window:
        return np.inf
    a = max(changes[-window:])
    rho = (a / max(changes[-2 * window : -window])) ** (1.0 / window)
    return a / (1.0 - rho) if rho < 1.0 else np.inf


def _relax(grid, gvals, w, load, tol, max_sweeps=None, init=None, after_sweep=None):
    """Projected SOR for u = proj_w((sum of the neighbors' u - load) / 2d) at
    interior nodes, boundary rows held at ``gvals``, from ``init`` (interior
    rows or a full field) or the harmonic extension, projected.  Stops once
    ``_error_bound`` <= ``tol`` or after ``max_sweeps`` (default 12 (L/h)^2
    + 1000); calls ``after_sweep(u)`` after each sweep.
    Returns (u, sweep changes, error bound, omega)."""
    n = len(w)
    interior, boundary, nbr, red = grid.indexing()
    u = np.full((grid.n_nodes, n), np.nan)
    u[boundary] = gvals
    if init is None:
        u[interior] = _harmonic_extension(grid, gvals, n)
    else:
        init = np.asarray(init, dtype=float)
        u[interior] = init if init.shape == (len(interior), n) else init[interior]
        if not np.isfinite(u[interior]).all():
            raise NonFiniteData("initial guess contains NaN or infinite values")
    u[interior] = isotonic_project_batch(u[interior], w)

    L = grid.diameter()
    if max_sweeps is None:
        max_sweeps = int(np.ceil(12.0 * (L / grid.h) ** 2)) + 1000
    inv2d = 1.0 / (2.0 * grid.dimension)
    colors = ((nbr[red], interior[red]), (nbr[~red], interior[~red]))
    omega = 2.0 / (1.0 + np.sin(np.pi * grid.h / L))
    relax = omega - 1.0
    floor = 64.0 * np.finfo(float).eps * max(1.0, float(np.nanmax(np.abs(u))))
    changes = []
    bound = np.inf
    while len(changes) < max_sweeps:
        change = 0.0
        for cn, ci in colors:
            old = u[ci]
            uhat = (u[cn].sum(axis=1) - load) * inv2d
            # Not old + omega (uhat - old): this form is exactly uhat once
            # relax is 0, so the omega = 1 finish can stagnate exactly.
            unew = isotonic_project_batch(uhat + relax * (uhat - old), w)
            change = max(change, float(np.abs(unew - old).max()))
            u[ci] = unew
        changes.append(change)
        if after_sweep is not None:
            after_sweep(u)
        if change <= floor:  # rounding level: finish with omega = 1
            relax = 0.0
        bound = _error_bound(changes)
        if bound <= tol:
            break
    return u, changes, bound, omega


def solve(
    spec: ProblemSpec,
    grid: Grid,
    boundary_data,
    tol=None,
    max_sweeps=None,
    init=None,
    track_energy=False,
) -> GridSolution2D:
    """Minimize the constrained energy by projected SOR sweeps.

    Stops when ``meta['error_bound']``, an estimate of the sup distance to
    the discrete solution, is at most ``tol`` (default 1e-10 * max|f| *
    diameter^2), or at ``max_sweeps``; ``meta['converged']`` says whether it
    got there.  The estimate is a / (1 - rho), with a the largest nodal
    change over the last 20 sweeps and rho the per-sweep contraction of
    that maximum against the 20 sweeps before; it is 0 after a sweep that
    changes nothing and infinite before 40 sweeps.  It extrapolates the
    observed contraction and is not a certified bound.  ``tol=0`` runs to
    exact stagnation.  ``meta['omega']`` is the over-relaxation factor and
    ``meta['final_change']`` the last sweep's largest nodal change.
    """
    if not spec.is_normalized:
        raise ValueError("spec must be normalized (sum w f = 0)")
    gvals = dirichlet_values(grid, boundary_data, spec.n_membranes)
    if tol is None:
        L = grid.diameter()
        tol = 1e-10 * max(float(np.abs(spec.f).max()), 1e-30) * L * L
    energies = []
    track = (lambda u: energies.append(_energy_flat(grid, spec, u))) if track_energy else None
    load = grid.h * grid.h * spec.f
    u, changes, bound, omega = _relax(grid, gvals, spec.w, load, tol, max_sweeps, init, track)
    meta = {
        "sweeps": len(changes),
        "converged": bool(bound <= tol),
        "final_change": changes[-1] if changes else np.inf,
        "error_bound": bound,
        "omega": omega,
        "tol": tol,
    }
    if track_energy:
        meta["energy_trace"] = energies
    return GridSolution2D(grid, spec, u, gvals.copy(), meta=meta)


def _fill_holes(arr, mask):
    """Fill masked nodes by repeated averaging of valid neighbors, in place."""
    nd = mask.ndim
    for _ in range(max(mask.shape) + 1):
        if not mask.any():
            break
        acc = np.zeros_like(arr)
        cnt = np.zeros(mask.shape)
        for ax in range(nd):
            for sh in (1, -1):
                dst = [slice(None)] * nd
                src = [slice(None)] * nd
                if sh == 1:
                    dst[ax], src[ax] = slice(1, None), slice(None, -1)
                else:
                    dst[ax], src[ax] = slice(None, -1), slice(1, None)
                ok = np.zeros_like(mask)
                ok[tuple(dst)] = ~mask[tuple(src)]
                take = mask & ok
                vals = np.zeros_like(arr)
                vals[tuple(dst)] = arr[tuple(src)]
                acc[take] += vals[take]
                cnt[take] += 1
        newly = mask & (cnt > 0)
        arr[newly] = acc[newly] / cnt[newly][..., None]
        mask = mask & ~newly
    return arr


def prolong(sol: GridSolution2D, fine_grid: Grid):
    """Interpolate a coarse solution onto a finer grid's interior nodes,
    for warm-starting a refined solve.  Inactive coarse nodes are filled by
    neighbor averaging first so disk edges interpolate cleanly."""
    vals = sol.fields().copy()
    mask = ~np.isfinite(vals[..., 0])
    if mask.any():
        _fill_holes(vals, mask)
        sol = GridSolution2D(sol.grid, sol.spec, vals.reshape(sol.u.shape), sol.boundary_values)
    interior, _, _, _ = fine_grid.indexing()
    return sol.interp(fine_grid.coords()[interior])


def _energy_flat(grid, spec, u):
    interior, boundary, nbr, _ = grid.indexing()
    h, d = grid.h, grid.dimension
    w, f = spec.w, spec.f
    role = grid.role.ravel()
    active = role != INACTIVE
    e = 0.0
    # Edges in +x / +y with both endpoints active and at least one interior.
    if d == 1:
        a = np.arange(grid.n_nodes - 1)
        b = a + 1
        keep = active[a] & active[b] & ((role[a] == INTERIOR) | (role[b] == INTERIOR))
        diff = (u[a[keep]] - u[b[keep]]) / h
        e += 0.5 * float(((diff * diff) @ w).sum()) * h**d
    else:
        nx, ny = grid.shape
        idx = np.arange(grid.n_nodes)
        for step in (ny, 1):
            a = idx[: grid.n_nodes - step] if step == ny else idx[idx % ny != ny - 1]
            b = a + step
            keep = active[a] & active[b] & ((role[a] == INTERIOR) | (role[b] == INTERIOR))
            diff = (u[a[keep]] - u[b[keep]]) / h
            e += 0.5 * float(((diff * diff) @ w).sum()) * h**d
    e += float(((u[interior] * f) @ w).sum()) * h**d
    return e


def energy(sol: GridSolution2D):
    """Discrete constrained Dirichlet energy of the solution."""
    return _energy_flat(sol.grid, sol.spec, sol.u)


@dataclass
class ResidualReport:
    kkt_residual: float
    region_residuals: dict
    ordering_ok: bool
    weighted_identity: float
    max_abs_laplacian: float
    coincidence_tol: float

    def to_json(self):
        return json.dumps(
            {
                "kkt_residual": self.kkt_residual,
                "region_residuals": {k: v for k, v in self.region_residuals.items()},
                "ordering_ok": self.ordering_ok,
                "weighted_identity": self.weighted_identity,
                "max_abs_laplacian": self.max_abs_laplacian,
                "coincidence_tol": self.coincidence_tol,
            }
        )


def discrete_laplacian(sol: GridSolution2D):
    """(n_interior, N) five/three-point Laplacian at interior nodes."""
    grid = sol.grid
    interior, _, nbr, _ = grid.indexing()
    acc = sol.u[nbr].sum(axis=1)
    return (acc - 2.0 * grid.dimension * sol.u[interior]) / grid.h**2


def coincidence_labels(sol: GridSolution2D):
    """Per interior node bitmask: bit m set when membranes m, m+1 coincide
    within ``default_coincidence_tol``."""
    coincidence_tol = default_coincidence_tol(sol)
    interior, _, _, _ = sol.grid.indexing()
    ui = sol.u[interior]
    n = sol.n
    labels = np.zeros(len(interior), dtype=np.int64)
    for m in range(n - 1):
        labels |= ((ui[:, m] - ui[:, m + 1]) < coincidence_tol).astype(np.int64) << m
    return labels


def default_coincidence_tol(sol: GridSolution2D):
    return 4.0 * sol.grid.h**2 * float(np.abs(sol.spec.f).max())


def residual(sol: GridSolution2D) -> ResidualReport:
    """Euler-Lagrange residuals per coincidence region plus the KKT violation.

    Nodes are labeled by which consecutive membranes are within the
    coincidence tolerance; on each maximal group the weighted Laplacian must
    match the group force, prefixes must not exceed it and suffixes must not
    fall below it.
    """
    lap = discrete_laplacian(sol)
    w, f = sol.spec.w, sol.spec.f
    n = sol.n
    labels = coincidence_labels(sol)
    interior, _, _, _ = sol.grid.indexing()
    ui = sol.u[interior]

    region_residuals = {}
    kkt = 0.0
    for lab in np.unique(labels):
        mask = labels == lab
        lap_l = lap[mask]
        groups = _label_groups(int(lab), n)
        worst = 0.0
        for lo, hi in groups:
            ww = w[lo:hi]
            wsum = ww.sum()
            f_i = float(ww @ f[lo:hi] / wsum)
            lap_i = lap_l[:, lo:hi] @ ww / wsum
            worst = max(worst, float(np.abs(lap_i - f_i).max()))
            kkt = max(kkt, float(np.abs(lap_i - f_i).max()))
            for cut in range(lo + 1, hi):
                wp = w[lo:cut]
                fp = float(wp @ f[lo:cut] / wp.sum())
                lp = lap_l[:, lo:cut] @ wp / wp.sum()
                kkt = max(kkt, float(np.maximum(lp - fp, 0.0).max()))
                ws = w[cut:hi]
                fs = float(ws @ f[cut:hi] / ws.sum())
                ls = lap_l[:, cut:hi] @ ws / ws.sum()
                kkt = max(kkt, float(np.maximum(fs - ls, 0.0).max()))
        key = "".join("=" if lab >> m & 1 else "<" for m in range(n - 1))
        region_residuals[key] = worst

    ordering_ok = bool(n == 1 or (ui[:, :-1] - ui[:, 1:]).min() >= -1e-12)
    weighted = float(np.abs((lap - f) @ w).max()) if len(lap) else 0.0
    return ResidualReport(
        kkt_residual=kkt,
        region_residuals=region_residuals,
        ordering_ok=ordering_ok,
        weighted_identity=weighted,
        max_abs_laplacian=float(np.abs(lap).max()) if len(lap) else 0.0,
        coincidence_tol=default_coincidence_tol(sol),
    )


def _label_groups(label, n):
    """Maximal coincidence groups (0-based half-open) encoded by the bitmask."""
    groups = []
    lo = 0
    for m in range(n - 1):
        if not label >> m & 1:
            groups.append((lo, m + 1))
            lo = m + 1
    groups.append((lo, n))
    return groups


@dataclass
class MaxPrincipleVerdict:
    ok: bool
    worst_violation: float
    boundary_gap: float


def check_max_principle(sol_a, sol_b, tol=1e-8) -> MaxPrincipleVerdict:
    """Assert sol_a >= sol_b - tol at interior nodes given ordered boundaries."""
    ga, gb = sol_a.grid, sol_b.grid
    if (
        ga.dimension != gb.dimension
        or ga.shape != gb.shape
        or ga.h != gb.h
        or not np.array_equal(ga.role, gb.role)
        or sol_a.spec != sol_b.spec
    ):
        raise IncompatibleGrids("solutions do not share a grid and spec")
    bgap = float((sol_a.boundary_values - sol_b.boundary_values).min())
    if bgap < -1e-12:
        raise ValueError("boundary of sol_a is not above boundary of sol_b")
    interior, _, _, _ = ga.indexing()
    gap = sol_a.u[interior] - sol_b.u[interior]
    worst = float(gap.min())
    return MaxPrincipleVerdict(ok=bool(worst >= -tol), worst_violation=worst, boundary_gap=bgap)


def free_boundary_points(sol, k):
    """Subgrid free boundary locations for pair k.

    Starts from separated nodes adjacent to the contact set (within
    ``default_coincidence_tol``) and steps back by the quadratic detachment
    offset sqrt(d / c) along the gradient of the separation, where
    c = (f_k - f_{k+1}) / 2 is the detachment coefficient.
    """
    coincidence_tol = default_coincidence_tol(sol)
    grid = sol.grid
    interior, _, nbr, _ = grid.indexing()
    d = sol.u[:, k - 1] - sol.u[:, k]
    di = d[interior]
    contact = di < coincidence_tol
    near_contact = (d[nbr] < coincidence_tol).any(axis=1)
    anchors = interior[~contact & near_contact & (di < 16.0 * coincidence_tol)]
    if len(anchors) == 0:
        return np.empty((0, grid.dimension))
    c = 0.5 * (sol.spec.f[k - 1] - sol.spec.f[k])
    coords = grid.coords()
    pos = np.full(grid.n_nodes, -1, dtype=int)
    pos[interior] = np.arange(len(interior))
    pts = []
    for node in anchors:
        j = pos[node]
        grad = (d[nbr[j, 1::2]] - d[nbr[j, 0::2]]) / (2.0 * grid.h)
        norm = np.linalg.norm(grad)
        if norm == 0.0:
            continue
        offset = np.sqrt(max(d[node], 0.0) / c)
        pts.append(coords[node] - offset * grad / norm)
    return np.asarray(pts)


def quadratic_growth_probe(sol: GridSolution2D, k, radii):
    """max_{B_r(x0)} (u_k - u_{k+1}) / r^2 over free boundary points x0.

    Returns {r: (lo, hi)} bounds of the ratio over the sampled points: at
    most 24 subgrid free boundary locations, evenly strided, with balls kept
    inside the domain.
    """
    fb_pts = free_boundary_points(sol, k)
    if len(fb_pts) == 0:
        raise EmptyFreeBoundary(f"no free boundary found for pair {k}")
    grid = sol.grid
    coords = grid.coords()
    active = grid.role.ravel() != INACTIVE
    pts = coords[active]
    lo_dom = pts.min(axis=0)
    hi_dom = pts.max(axis=0)
    d = (sol.u[:, k - 1] - sol.u[:, k])[active]
    rmax = max(radii)
    keep = np.all(fb_pts - rmax - grid.h >= lo_dom, axis=1) & np.all(
        fb_pts + rmax + grid.h <= hi_dom, axis=1
    )
    if grid.dimension == 2 and (grid.role == INACTIVE).any():
        # Disk domain: keep balls away from the circular cut.
        center = 0.5 * (lo_dom + hi_dom)
        radius = 0.5 * (hi_dom - lo_dom).min()
        keep = np.linalg.norm(fb_pts - center, axis=1) + rmax + grid.h <= radius
    fb_pts = fb_pts[keep]
    if len(fb_pts) == 0:
        raise EmptyFreeBoundary(f"no free boundary point admits balls of radius {rmax}")
    stride = max(1, len(fb_pts) // 24)
    fb_pts = fb_pts[::stride]
    out = {}
    for r in radii:
        ratios = []
        for x0 in fb_pts:
            sel = np.linalg.norm(pts - x0, axis=1) <= r
            ratios.append(float(d[sel].max()) / r**2)
        out[float(r)] = (min(ratios), max(ratios))
    return out


def save_solution_csv(sol: GridSolution2D, csv_path, header_path=None):
    """Node table as CSV plus a JSON header with grid, spec and residuals."""
    coords = sol.grid.coords()
    role = sol.grid.role.ravel()
    with open(csv_path, "w", newline="") as fh:
        wtr = csv.writer(fh)
        cols = ["node", "x", "y"][: 1 + sol.grid.dimension] + [
            f"u_{k + 1}" for k in range(sol.n)
        ]
        wtr.writerow(cols)
        for idx in np.flatnonzero(role != INACTIVE):
            row = [idx] + [f"{c:.17g}" for c in coords[idx]] + [
                f"{v:.17g}" for v in sol.u[idx]
            ]
            wtr.writerow(row)
    if header_path is not None:
        rep = residual(sol)
        header = {
            "grid": {
                "dimension": sol.grid.dimension,
                "origin": list(sol.grid.origin),
                "shape": list(sol.grid.shape),
                "h": sol.grid.h,
            },
            "spec": json.loads(sol.spec.to_json()),
            "residual": json.loads(rep.to_json()),
            # Strict JSON has no Infinity: an error bound not yet estimated is null.
            "meta": {
                k: None if isinstance(v, float) and not np.isfinite(v) else v
                for k, v in sol.meta.items()
                if not isinstance(v, list)
            },
        }
        with open(header_path, "w") as fh:
            json.dump(header, fh, indent=2)

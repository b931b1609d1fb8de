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

One sweep generator, ``_sweeps``, yields the field after every sweep, and
one stopping loop, ``_relax``, consumes it until the error estimate meets
``tol`` or the sweep cap is reached.  They serve ``solve`` (load h^2 f) and
``gamesim.bellman_solve`` (unit weights, load 2d times the round costs): an
over-relaxed sweep of that monotone map has the fixed point of its Jacobi
form, value iteration (Bertsekas & Tsitsiklis 1989, sec. 3.2).

Intervals, rectangles and disks share one layout for any dimension d: nodes
in C order, neighbours -1/+1 along each axis in turn (i-1, i+1, j-1, j+1),
red nodes with an even index sum, and cells of 2^d nodes (``cell_corners``).
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    EmptyFreeBoundary,
    EmptyGrid,
    IncompatibleGrids,
    InvalidInput,
    NonFiniteData,
    OutOfDomain,
    UnorderedBoundary,
)
from .problem import ProblemSpec, pooled_groups
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
    def box(lo, hi, h):
        """Box from corner ``lo`` to corner ``hi``; its faces carry the data."""
        shape = tuple(_count(a, b, h) for a, b in zip(lo, hi))
        role = _role_array(shape, BOUNDARY, h)
        role[tuple(slice(1, -1) for _ in shape)] = INTERIOR
        return Grid(len(shape), tuple(float(a) for a in lo), shape, float(h), role)

    @staticmethod
    def interval(lo, hi, h):
        return Grid.box((lo,), (hi,), h)

    @staticmethod
    def rectangle(x0, x1, y0, y1, h):
        return Grid.box((x0, y0), (x1, y1), h)

    @staticmethod
    def disk(cx, cy, radius, h):
        pad = 2.0 * h
        x0 = cx - radius - pad
        y0 = cy - radius - pad
        n = _count(x0, cx + radius + pad, h)
        role = _role_array((n, n), INACTIVE, h)
        xs = x0 + h * np.arange(n)
        ys = y0 + h * np.arange(n)
        dist = np.hypot(xs[:, None] - cx, ys[None, :] - cy)
        inside = dist < radius
        if inside[[0, -1]].any() or inside[:, [0, -1]].any():
            raise InvalidInput(f"disk at ({cx}, {cy}) of radius {radius} is not resolved at h={h}")
        role[inside] = INTERIOR
        # Cut nodes: outside neighbors of interior nodes carry Dirichlet data.
        # The edges hold no inside node, so np.roll wraps nothing in.
        for ax in (0, 1):
            for shift in (1, -1):
                role[np.roll(inside, shift, axis=ax) & ~inside] = BOUNDARY
        return Grid(2, (float(x0), float(y0)), (n, n), float(h), role)

    @property
    def n_nodes(self):
        return int(np.prod(self.shape))

    def coords(self):
        """(M, d) coordinates of all nodes, C-order flattened."""
        axes = [self.origin[a] + self.h * np.arange(self.shape[a]) for a in range(self.dimension)]
        return np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])

    def contains(self, points):
        """Whether every point lies in the stored box, with 1e-12 slack."""
        pts = np.asarray(points)
        lo = np.asarray(self.origin)
        hi = lo + self.h * (np.asarray(self.shape) - 1)
        return bool(np.all(pts >= lo - 1e-12) and np.all(pts <= hi + 1e-12))

    def diameter(self):
        pts = self.coords()[self.role.ravel() != INACTIVE]
        return float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))

    def as_dict(self):
        """Dimension, origin, shape and h, as the JSON headers record a grid."""
        return {"dimension": self.dimension, "origin": list(self.origin),
                "shape": list(self.shape), "h": self.h}

    def indexing(self):
        """Interior/boundary flat indices, neighbor table and red-black split."""
        if "indexing" not in self._cache:
            role = self.role.ravel()
            interior = np.flatnonzero(role == INTERIOR)
            boundary = np.flatnonzero(role == BOUNDARY)
            if len(interior) == 0:
                raise EmptyGrid(f"grid of shape {self.shape} at h={self.h} has no interior nodes")
            strides = [int(np.prod(self.shape[ax + 1 :])) for ax in range(self.dimension)]
            nbr = np.stack([interior + sign * s for s in strides for sign in (-1, 1)], axis=1)
            if np.any(role[nbr.ravel()] == INACTIVE):
                raise InvalidInput("interior node with inactive neighbor")
            red = sum(np.unravel_index(interior, self.shape)) % 2 == 0
            self._cache["indexing"] = (interior, boundary, nbr, red)
        return self._cache["indexing"]


def cell_corners(d):
    """Offsets of the 2^d corners of a cell, first axis fastest: (0, 0),
    (1, 0), (0, 1), (1, 1) in 2D."""
    return [c[::-1] for c in itertools.product((0, 1), repeat=d)]


def _count(lo, hi, h):
    """Nodes from lo to hi at step h; h > 0 must divide hi - lo >= 0."""
    if not (0.0 < h < np.inf and lo <= hi):
        raise InvalidInput(f"need h > 0 and lo <= hi, got h={h} from {lo} to {hi}")
    n = (hi - lo) / h
    if not np.isfinite(n) or abs(n - round(n)) > 1e-9:
        raise InvalidInput(f"extent {hi - lo} is not a multiple of h={h}")
    return int(round(n)) + 1


def _role_array(shape, role, h):
    """All-``role`` node roles; a shape numpy cannot create is an InvalidInput."""
    try:
        return np.full(shape, role, dtype=np.int8)
    except ValueError as exc:
        raise InvalidInput(f"the grid at h={h} has too many nodes: {exc}") from exc


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
        """Multilinear interpolation at points of the stored box (with 1e-12
        slack); a non-finite point raises NonFiniteData, one outside the box
        OutOfDomain."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        g = self.grid
        if not np.isfinite(pts).all():
            raise NonFiniteData("interpolation points must be finite")
        if not g.contains(pts):
            raise OutOfDomain("an interpolation point lies outside the stored box")
        t = (pts - np.asarray(g.origin)) / g.h
        i0 = np.clip(np.floor(t).astype(int), 0, np.asarray(g.shape) - 2)
        frac = t - i0
        vals = self.fields()
        out = None
        for corner in cell_corners(g.dimension):
            term = vals[tuple(i0[:, ax] + c for ax, c in enumerate(corner))]
            for ax, c in enumerate(corner):
                term = term * (frac[:, ax : ax + 1] if c else 1 - frac[:, ax : ax + 1])
            out = term if out is None else out + term
        return out


def dirichlet_values(grid, boundary_data, n):
    """(n_boundary, N) Dirichlet values from an array or a callable of the
    boundary node coordinates; must be finite, with 2d max|g| finite, and
    ordered."""
    _, boundary, _, _ = grid.indexing()
    pts = grid.coords()[boundary]
    if callable(boundary_data):
        g = np.asarray(boundary_data(pts), dtype=float)
    else:
        g = np.asarray(boundary_data, dtype=float)
    if g.shape != (len(boundary), n):
        raise InvalidInput(f"boundary data shape {g.shape} != {(len(boundary), n)}")
    if not np.isfinite(g).all():
        raise NonFiniteData("boundary data contains NaN or infinite values")
    scale = max(1.0, float(np.abs(g).max()))
    # 2d max|g| bounds the spread and every neighbour sum; taken in Python
    # floats, it overflows to inf without the warning numpy emits.
    if not np.isfinite(2 * grid.dimension * scale):
        raise NonFiniteData("2d times the largest boundary value is not a finite number")
    if n > 1 and (g[:, :-1] - g[:, 1:]).min() < -1e-10 * scale:
        raise UnorderedBoundary("boundary data violates the ordering constraint")
    return g


def _harmonic_extension(grid, gvals, n):
    """Discrete harmonic extension of the boundary data, one field per membrane."""
    # Imported here, not at module level: scipy.sparse is half the time of
    # `import membranes.cli`, and the cones and rate pipelines never solve.
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

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


_WINDOW = 20  # sweeps per window of ``_error_bound``


def _error_bound(changes):
    """Estimated sup distance to the discrete solution from the sweep changes:
    a / (1 - rho), with a the largest change of the last ``_WINDOW`` sweeps and
    rho the per-sweep contraction against the largest of the window before.
    Windowed maxima because over-relaxed changes oscillate; 0 once a sweep
    changes nothing, infinite before two windows exist or without contraction."""
    if changes[-1] == 0.0:
        return 0.0
    if len(changes) < 2 * _WINDOW:
        return np.inf
    a = max(changes[-_WINDOW:])
    rho = (a / max(changes[-2 * _WINDOW : -_WINDOW])) ** (1.0 / _WINDOW)
    return a / (1.0 - rho) if rho < 1.0 else np.inf


def _sweeps(grid, gvals, w, load, omega, init=None):
    """Projected SOR for u = proj_w((sum of the neighbors' u - load) / 2d) at
    interior nodes, boundary rows held at ``gvals``, from ``init`` (interior
    rows) or the harmonic extension, projected.  Yields (u, change) after
    every red-black sweep, with u updated in place and change the sweep's
    largest nodal change; never stops by itself."""
    n = len(w)
    interior, boundary, nbr, red = grid.indexing()
    u = np.full((grid.n_nodes, n), np.nan)
    u[boundary] = gvals
    init = _harmonic_extension(grid, gvals, n) if init is None else np.asarray(init, dtype=float)
    if init.shape != (len(interior), n):
        raise InvalidInput(f"initial guess shape {init.shape} != {(len(interior), n)}")
    if not np.isfinite(init).all():
        raise NonFiniteData("the starting field contains NaN or infinite values")
    u[interior] = isotonic_project_batch(init, w)

    inv2d = 1.0 / (2.0 * grid.dimension)
    colors = ((nbr[red], interior[red]), (nbr[~red], interior[~red]))
    relax = omega - 1.0
    floor = 64.0 * np.finfo(float).eps * max(1.0, float(np.nanmax(np.abs(u))))
    while True:
        change = 0.0
        for cn, ci in colors:
            old = u[ci]
            uhat = (u[cn].sum(axis=1) - load) * inv2d
            # Not old + omega (uhat - old): this form is exactly uhat once
            # relax is 0, so the omega = 1 finish can stagnate exactly.
            unew = isotonic_project_batch(uhat + relax * (uhat - old), w)
            change = max(change, float(np.abs(unew - old).max()))
            u[ci] = unew
        yield u, change
        if change <= floor:  # rounding level: finish with omega = 1
            relax = 0.0


def _relax(grid, gvals, w, load, tol, max_sweeps=None, init=None):
    """Run ``_sweeps`` with omega = 2 / (1 + sin(pi h / L)) until
    ``_error_bound`` <= ``tol`` or for ``max_sweeps``, an integer >= 1
    (default 12 (L/h)^2 + 1000).  Returns (u, sweep changes, error bound,
    omega)."""
    if not tol >= 0.0:
        raise InvalidInput(f"tol must be a number >= 0, got {tol}")
    L = grid.diameter()
    if max_sweeps is None:
        max_sweeps = int(np.ceil(12.0 * (L / grid.h) ** 2)) + 1000
    elif not (isinstance(max_sweeps, (int, np.integer)) and max_sweeps >= 1):
        raise InvalidInput(f"the sweep cap must be an integer >= 1, got {max_sweeps!r}")
    omega = 2.0 / (1.0 + np.sin(np.pi * grid.h / L))
    changes = []
    for u, change in _sweeps(grid, gvals, w, load, omega, init):
        changes.append(change)
        bound = _error_bound(changes)
        if bound <= tol or len(changes) == max_sweeps:
            return u, changes, bound, omega


def solve(
    spec: ProblemSpec,
    grid: Grid,
    boundary_data,
    tol=None,
    max_sweeps=None,
    init=None,
) -> GridSolution2D:
    """Minimize the constrained energy by projected SOR sweeps.

    Starts from ``init``, (n_interior, N) rows as ``prolong`` returns them,
    or from the harmonic extension of the data.  Stops when
    ``meta['error_bound']``, an estimate of the sup distance to the discrete
    solution, is at most ``tol`` (default 1e-10 * max|f| * diameter^2), or
    after ``max_sweeps`` sweeps, an integer >= 1; ``meta['converged']`` says
    whether it got there.  The estimate is a / (1 - rho), with a the largest
    nodal change over the last 20 sweeps and rho the per-sweep contraction
    of that maximum against the 20 sweeps before; it is 0 after a sweep
    that changes nothing and infinite before 40 sweeps.  It extrapolates the
    observed contraction and is not a certified bound.  ``tol=0`` runs to
    exact stagnation.  ``meta['omega']`` is the over-relaxation factor and
    ``meta['final_change']`` the last sweep's largest nodal change.
    """
    if not spec.is_normalized:
        raise InvalidInput("spec must be normalized (sum w f = 0)")
    gvals = dirichlet_values(grid, boundary_data, spec.n_membranes)
    if tol is None:
        L = grid.diameter()
        tol = 1e-10 * max(float(np.abs(spec.f).max()), 1e-30) * L * L
    load = grid.h * grid.h * spec.f
    u, changes, bound, omega = _relax(grid, gvals, spec.w, load, tol, max_sweeps, init)
    meta = {
        "sweeps": len(changes),
        "converged": bool(bound <= tol),
        "final_change": changes[-1],
        "error_bound": bound,
        "omega": omega,
        "tol": tol,
    }
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
            lo = tuple(slice(None, -1) if k == ax else slice(None) for k in range(nd))
            hi = tuple(slice(1, None) if k == ax else slice(None) for k in range(nd))
            for dst, src in ((hi, lo), (lo, hi)):
                take = mask[dst] & ~mask[src]
                acc[dst][take] += arr[src][take]
                cnt[dst][take] += 1
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


def energy(grid, spec, u):
    """Discrete constrained Dirichlet energy of the (n_nodes, N) field u,
    which every sweep of ``_sweeps`` leaves no larger."""
    interior = grid.indexing()[0]
    h, d = grid.h, grid.dimension
    w, f = spec.w, spec.f
    fields = u.reshape(grid.shape + (len(w),))
    active = grid.role != INACTIVE
    inner = grid.role == INTERIOR
    e = 0.0
    # Edges along each axis with both endpoints active and at least one interior.
    for ax in range(d):
        a = tuple(slice(None, -1) if k == ax else slice(None) for k in range(d))
        b = tuple(slice(1, None) if k == ax else slice(None) for k in range(d))
        keep = active[a] & active[b] & (inner[a] | inner[b])
        diff = (fields[a][keep] - fields[b][keep]) / h
        e += 0.5 * float(((diff * diff) @ w).sum()) * h**d
    e += float(((u[interior] * f) @ w).sum()) * h**d
    return e


@dataclass
class ResidualReport:
    kkt_residual: float
    region_residuals: dict
    ordering_ok: bool
    weighted_identity: float
    max_abs_laplacian: float
    coincidence_tol: float


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
        joined = [int(lab) >> m & 1 for m in range(n - 1)]
        worst = 0.0
        for lo, hi in pooled_groups(joined):
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
        key = "".join("=" if tie else "<" for tie in joined)
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
        raise InvalidInput("boundary of sol_a is not above boundary of sol_b")
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
    if not 1 <= k <= sol.n - 1:
        raise EmptyFreeBoundary(f"pair index {k} out of range for N={sol.n}")
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
    if (grid.role == INACTIVE).any():
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


def save_solution_csv(sol: GridSolution2D, csv_path, header_path):
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
    rep = residual(sol)
    header = {
        "grid": sol.grid.as_dict(),
        "spec": sol.spec.as_dict(),
        "residual": asdict(rep),
        # Strict JSON has no Infinity: an error bound not yet estimated is null.
        "meta": {
            k: None if isinstance(v, float) and not np.isfinite(v) else v
            for k, v in sol.meta.items()
        },
    }
    with open(header_path, "w") as fh:
        json.dump(header, fh, indent=2)

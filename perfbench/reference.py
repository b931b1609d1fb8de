"""Exact discrete solutions, computed by the benchmark's own code.

The grid solver and the game both target the same discrete complementarity
system: at every interior node the values equal the weighted projection of
the five-point update onto the ordered cone,

    u(i) = P_w((sum_{j~i} u(j) - h^2 f) / 4).

For a fixed pooling pattern (which consecutive membranes share a value at
each node) this is a sparse linear system; policy iteration over the
patterns reaches the exact fixed point in a few solves.  The result stands
in for a stored "run to stagnation" reference: it never calls the code under
measurement, so a later change to the relaxation (for instance over-relaxed
sweeps that never stagnate at tol=0) cannot change or stall the reference.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

INTERIOR, BOUNDARY = 0, 1


def _compositions(n):
    """All splits of range(n) into consecutive blocks, as lists of (lo, hi)."""
    out = []
    for cuts in itertools.product((False, True), repeat=n - 1):
        bounds = [0] + [k + 1 for k, c in enumerate(cuts) if c] + [n]
        out.append(list(zip(bounds[:-1], bounds[1:])))
    return out


def project(vhat, w):
    """Row-wise weighted projection onto u_1 >= ... >= u_N by enumerating the
    2^(N-1) block compositions (N is at most 4 here).

    Returns (u, starts) where starts[i, k] is the first membrane of the block
    that holds membrane k at row i.
    """
    m, n = vhat.shape
    best_obj = np.full(m, np.inf)
    u = np.empty_like(vhat)
    starts = np.zeros((m, n), dtype=np.int64)
    for blocks in _compositions(n):
        cand = np.empty_like(vhat)
        cand_starts = np.empty((m, n), dtype=np.int64)
        feasible = np.ones(m, dtype=bool)
        prev = None
        for lo, hi in blocks:
            ww = w[lo:hi]
            mean = vhat[:, lo:hi] @ ww / ww.sum()
            cand[:, lo:hi] = mean[:, None]
            cand_starts[:, lo:hi] = lo
            if prev is not None:
                feasible &= prev >= mean
            prev = mean
        obj = ((cand - vhat) ** 2) @ w
        take = feasible & (obj < best_obj)
        best_obj[take] = obj[take]
        u[take] = cand[take]
        starts[take] = cand_starts[take]
    return u, starts


def exact_solution(role, h, w, f, values, max_iter=200):
    """Exact solution of the discrete system on a 2D node-role grid.

    ``role`` is the (nx, ny) array of node roles (0 interior, 1 boundary,
    2 inactive), ``values`` an (nx * ny, N) array whose boundary rows hold
    the Dirichlet data.  Returns the (nx * ny, N) field, NaN at inactive
    nodes; raises if the result is not a fixed point to rounding.
    """
    w = np.asarray(w, dtype=float)
    f = np.asarray(f, dtype=float)
    nx, ny = role.shape
    flat = role.ravel()
    interior = np.flatnonzero(flat == INTERIOR)
    i, j = np.divmod(interior, ny)
    nbr = np.stack([(i - 1) * ny + j, (i + 1) * ny + j, i * ny + j - 1, i * ny + j + 1], axis=1)
    m, n = len(interior), len(w)
    pos = np.full(nx * ny, -1, dtype=np.int64)
    pos[interior] = np.arange(m)
    nb_pos = pos[nbr]
    on_bnd = nb_pos < 0
    if np.any(flat[nbr[on_bnd]] != BOUNDARY):
        raise ValueError("interior node next to an inactive node")

    full = np.full((nx * ny, n), np.nan)
    full[flat == BOUNDARY] = values[flat == BOUNDARY]
    # Boundary part of each node's neighbour sum, and the force term.
    gsum = np.where(on_bnd[:, :, None], full[nbr], 0.0).sum(axis=1)
    src = w * (gsum - h * h * f)  # (m, N), weighted right-hand side per membrane

    rows_i = np.repeat(np.arange(m), 4)
    cols_j = nb_pos.ravel()
    link = cols_j >= 0
    rows_i, cols_j = rows_i[link], cols_j[link]

    starts = np.tile(np.arange(n), (m, 1))  # start with every membrane free
    scale = max(1.0, float(np.nanmax(np.abs(full))))
    for _ in range(max_iter):
        is_start = starts == np.arange(n)
        uid = np.cumsum(is_start.ravel()).reshape(m, n) - 1
        uid = np.take_along_axis(uid, starts, axis=1)
        n_unknowns = int(is_start.sum())
        r = np.concatenate([uid.ravel()] + [uid[rows_i, k] for k in range(n)])
        c = np.concatenate([uid.ravel()] + [uid[cols_j, k] for k in range(n)])
        v = np.concatenate(
            [np.tile(4.0 * w, m)] + [np.full(len(rows_i), -w[k]) for k in range(n)]
        )
        a_mat = sp.csc_matrix((v, (r, c)), shape=(n_unknowns, n_unknowns))
        rhs = np.bincount(uid.ravel(), weights=src.ravel(), minlength=n_unknowns)
        sol = spla.splu(a_mat).solve(rhs)
        full[interior] = sol[uid]
        vhat = (full[nbr].sum(axis=1) - h * h * f) / 4.0
        proj, new_starts = project(vhat, w)
        if np.array_equal(new_starts, starts):
            break
        if float(np.abs(proj - full[interior]).max()) <= 1e-15 * scale:
            break
        starts = new_starts
    residual = float(np.abs(proj - full[interior]).max())
    if residual > 1e-12 * scale:
        raise RuntimeError(f"policy iteration stopped {residual:.1e} from a fixed point")
    return full

"""Ticket-exchange random walk game on a lattice, an oracle for the discrete
membrane system with unit weights.

Each round the players may reorder their tickets by priority; holding ticket
k costs f_k for the round; the token then moves to a uniform random neighbor
and pays phi_k on exit.  In equilibrium the ticket values are ordered, and
where consecutive continuation values would invert, the players are
indifferent and trade, pooling the affected values.  The exchange therefore
reallocates the continuation vector onto the ordered cone (the unit-weight
isotonic projection), and the equilibrium values solve the same discrete
complementarity system as the grid solver.

The equilibrium value table is computed with the grid solver's projected
SOR sweep, so it is not an independent check of the solver.  The game stays
an independent check through the Monte Carlo simulation of the exchange
policy, whose mean payoffs are compared with the table, and in the
benchmark through the policy-iteration reference solution.

Randomness is a counter-based hash of (seed, walk index, step, channel), so
results are bit-identical for any execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteData, NotConverged, UnorderedBoundary
from .projection import isotonic_project_batch
from .solver2d import BOUNDARY, Grid, _relax, dirichlet_values

_M64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def _mix64(z):
    """splitmix64 finalizer, vectorized over uint64 arrays (wraparound intended)."""
    with np.errstate(over="ignore"):
        z = (z + np.uint64(0x9E3779B97F4A7C15)) & _M64
        z ^= z >> np.uint64(30)
        z = (z * np.uint64(0xBF58476D1CE4E5B9)) & _M64
        z ^= z >> np.uint64(27)
        z = (z * np.uint64(0x94D049BB133111EB)) & _M64
        z ^= z >> np.uint64(31)
    return z


def _u01(seed, walks, step, channel):
    """Uniform [0,1) from the (seed, walk, step, channel) counter."""
    z = _mix64(np.uint64(step * 4 + channel))
    z = _mix64(walks.astype(np.uint64) ^ z)
    z = _mix64(np.uint64(seed) ^ z)
    return (z >> np.uint64(11)) * (1.0 / (1 << 53))


@dataclass(frozen=True, eq=False)
class GameSpec:
    """Lattice, per-round ticket costs, and ordered boundary payoffs."""

    lattice: Grid
    costs: tuple
    payoffs: np.ndarray  # (n_boundary, N), phi_1 >= ... >= phi_N per node

    def __post_init__(self):
        n = len(self.costs)
        phi = np.asarray(self.payoffs, dtype=float)
        _, boundary, _, _ = self.lattice.indexing()
        if phi.shape != (len(boundary), n):
            raise ValueError(f"payoffs shape {phi.shape} != {(len(boundary), n)}")
        if not (np.isfinite(phi).all() and np.isfinite(self.costs).all()):
            raise NonFiniteData("payoffs and costs must be finite")
        scale = max(1.0, float(np.abs(phi).max()))
        if n > 1 and (phi[:, :-1] - phi[:, 1:]).min() < -1e-10 * scale:
            raise UnorderedBoundary("boundary payoffs must be ordered")
        object.__setattr__(self, "costs", tuple(float(c) for c in self.costs))
        object.__setattr__(self, "payoffs", phi)

    @property
    def n_tickets(self):
        return len(self.costs)

    def to_json_obj(self):
        return {
            "lattice": {
                "dimension": self.lattice.dimension,
                "origin": list(self.lattice.origin),
                "shape": list(self.lattice.shape),
                "h": self.lattice.h,
            },
            "costs": list(self.costs),
            "payoffs": [list(row) for row in self.payoffs],
        }


@dataclass(eq=False)
class ValueTable:
    """Equilibrium value per node and ticket, ordered at every node."""

    game: GameSpec
    v: np.ndarray  # (n_nodes, N); NaN at inactive nodes
    meta: dict = field(default_factory=dict)


def membrane_game(spec, grid, boundary_data) -> GameSpec:
    """Game whose equilibrium solves the discrete membrane problem on the
    grid: unit weights required, per-round costs h^2 f / (2d)."""
    if any(abs(w - 1.0) > 1e-12 for w in spec.weights):
        raise ValueError("the game interpretation requires unit weights")
    phi = dirichlet_values(grid, boundary_data, spec.n_membranes)
    scale = grid.h**2 / (2.0 * grid.dimension)
    return GameSpec(grid, tuple(scale * f for f in spec.forces), phi)


def bellman_solve(game: GameSpec, tol=1e-13, max_iters=None) -> ValueTable:
    """Fixed point of the exchange update: interior continuation vectors,
    mean over neighbors of v_j minus the round cost, reallocated onto the
    ordered cone; boundary rows stay at the exit payoffs.  Computed with the
    grid solver's projected SOR sweep, stopped once its error estimate is
    at most ``tol`` (else NotConverged) or after ``max_iters`` sweeps.
    ``meta``: ``iterations`` (sweeps), ``residual`` (last sweep change),
    ``error_bound``."""
    grid = game.lattice
    load = 2.0 * grid.dimension * np.asarray(game.costs)
    v, changes, bound, _ = _relax(grid, game.payoffs, np.ones(game.n_tickets), load, tol, max_iters)
    if not bound <= tol:
        raise NotConverged(f"value iteration error bound {bound:.3e} > tol {tol:.3e}")
    meta = {"iterations": len(changes), "residual": changes[-1], "error_bound": bound}
    return ValueTable(game, v, meta=meta)


def _exchange_policy(game: GameSpec, values: ValueTable):
    """Pooled exchange blocks per interior node: maps a held priority to the
    block of tickets it may leave with (uniformly, by indifference)."""
    grid = game.lattice
    interior, _, nbr, _ = grid.indexing()
    n = game.n_tickets
    cont = values.v[nbr].sum(axis=1) / (2.0 * grid.dimension) - np.asarray(game.costs)
    pooled = isotonic_project_batch(cont, np.ones(n))
    m = len(interior)
    block_start = np.zeros((m, n), dtype=np.int64)
    block_len = np.ones((m, n), dtype=np.int64)
    # Blocks are maximal runs of equal pooled values.
    same = np.abs(pooled[:, 1:] - pooled[:, :-1]) <= 1e-12 * np.maximum(1.0, np.abs(pooled[:, 1:]))
    start = np.zeros((m, n), dtype=np.int64)
    for k in range(1, n):
        start[:, k] = np.where(same[:, k - 1], start[:, k - 1], k)
    for k in range(n - 1, -1, -1):
        if k == n - 1:
            end = np.full(m, n, dtype=np.int64)
        else:
            end = np.where(same[:, k], end, k + 1)
        block_start[:, k] = start[:, k]
        block_len[:, k] = end - start[:, k]
    full_start = np.zeros((grid.n_nodes, n), dtype=np.int64)
    full_len = np.ones((grid.n_nodes, n), dtype=np.int64)
    full_start[interior] = block_start
    full_len[interior] = block_len
    return full_start, full_len


def monte_carlo_eval(game: GameSpec, values: ValueTable, start_node, ticket, n_walks, seed):
    """Simulate the greedy exchange policy; returns (mean payoff, standard error).

    ``start_node`` is a flat interior node index, ``ticket`` is 1-based.
    Within a pooled indifference block the walker takes a uniformly random
    ticket of the block; per round it pays the held ticket's cost, moves to
    a uniform random neighbor, and collects the exit payoff on the boundary.
    """
    grid = game.lattice
    n = game.n_tickets
    interior, boundary, nbr, _ = grid.indexing()
    if not 1 <= ticket <= n:
        raise ValueError(f"ticket {ticket} out of range")
    role = grid.role.ravel()
    if role[start_node] != 0:
        raise ValueError("start node must be interior")
    block_start, block_len = _exchange_policy(game, values)
    nbr_full = np.zeros((grid.n_nodes, nbr.shape[1]), dtype=np.int64)
    nbr_full[interior] = nbr
    phi_full = np.zeros((grid.n_nodes, n))
    phi_full[boundary] = game.payoffs
    costs = np.asarray(game.costs)
    degree = nbr.shape[1]

    pos = np.full(n_walks, start_node, dtype=np.int64)
    tick = np.full(n_walks, ticket - 1, dtype=np.int64)
    acc = np.zeros(n_walks)
    payoff = np.zeros(n_walks)
    alive = np.arange(n_walks, dtype=np.int64)
    max_steps = int(400 * (grid.diameter() / grid.h) ** 2) + 100000
    step = 0
    while len(alive):
        if step > max_steps:
            raise NotConverged(f"{len(alive)} walks still active after {max_steps} steps")
        u_ex = _u01(seed, alive, step, 0)
        bs = block_start[pos[alive], tick[alive]]
        bl = block_len[pos[alive], tick[alive]]
        new_tick = bs + np.minimum((u_ex * bl).astype(np.int64), bl - 1)
        tick[alive] = new_tick
        acc[alive] -= costs[new_tick]
        u_mv = _u01(seed, alive, step, 1)
        direction = np.minimum((u_mv * degree).astype(np.int64), degree - 1)
        pos[alive] = nbr_full[pos[alive], direction]
        exited = role[pos[alive]] == BOUNDARY
        done = alive[exited]
        payoff[done] = acc[done] + phi_full[pos[done], tick[done]]
        alive = alive[~exited]
        step += 1
    mean = float(payoff.mean())
    se = float(payoff.std(ddof=1) / np.sqrt(n_walks)) if n_walks > 1 else 0.0
    return mean, se

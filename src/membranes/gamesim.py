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

from .errors import InvalidInput, NonFiniteData, NotConverged
from .projection import isotonic_project_batch
from .solver2d import BOUNDARY, Grid, _relax, dirichlet_values

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1, _M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_S11, _S27, _S30, _S31 = (np.uint64(k) for k in (11, 27, 30, 31))


def _mix64(z):
    """splitmix64 finalizer, in place on a uint64 array (wraparound intended)."""
    t = np.empty_like(z)
    z += _GAMMA
    z ^= np.right_shift(z, _S30, out=t)
    z *= _M1
    z ^= np.right_shift(z, _S27, out=t)
    z *= _M2
    z ^= np.right_shift(z, _S31, out=t)
    return z


def _u01(seed, walks, step, channel):
    """Uniform [0,1) from the (seed, walk, step, channel) counter; the seed
    is taken mod 2^64."""
    z = walks.astype(np.uint64)
    z ^= _mix64(np.array([step * 4 + channel], dtype=np.uint64))
    z = _mix64(z)
    z ^= np.uint64(seed % 2**64)
    z = _mix64(z)
    return np.right_shift(z, _S11, out=z) * (1.0 / (1 << 53))


@dataclass(frozen=True, eq=False)
class GameSpec:
    """Lattice, per-round ticket costs, and ordered boundary payoffs."""

    lattice: Grid
    costs: tuple
    payoffs: np.ndarray  # (n_boundary, N), phi_1 >= ... >= phi_N per node

    def __post_init__(self):
        # Payoffs are Dirichlet data: an array or a callable of the boundary points.
        phi = dirichlet_values(self.lattice, self.payoffs, len(self.costs))
        if not np.isfinite(self.costs).all():
            raise NonFiniteData("costs must be finite")
        object.__setattr__(self, "costs", tuple(float(c) for c in self.costs))
        object.__setattr__(self, "payoffs", phi)

    @property
    def n_tickets(self):
        return len(self.costs)

    def as_dict(self):
        return {
            "lattice": self.lattice.as_dict(),
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
        raise InvalidInput("the game interpretation requires unit weights")
    scale = grid.h**2 / (2.0 * grid.dimension)
    return GameSpec(grid, tuple(scale * f for f in spec.forces), boundary_data)


def bellman_solve(game: GameSpec, tol=None, max_iters=None) -> ValueTable:
    """Fixed point of the exchange update: interior continuation vectors,
    mean over neighbors of v_j minus the round cost, reallocated onto the
    ordered cone; boundary rows stay at the exit payoffs.  Computed with the
    grid solver's projected SOR sweep, stopped once its error estimate is
    at most ``tol`` (default 1e-13; else NotConverged) or after
    ``max_iters`` sweeps, an integer >= 1.
    ``meta``: ``iterations`` (sweeps), ``residual`` (last sweep change),
    ``error_bound``, ``tol``."""
    if tol is None:
        tol = 1e-13
    grid = game.lattice
    load = 2.0 * grid.dimension * np.asarray(game.costs)
    v, changes, bound, _ = _relax(grid, game.payoffs, np.ones(game.n_tickets), load, tol, max_iters)
    if not bound <= tol:
        raise NotConverged(f"value iteration error bound {bound:.3e} > tol {tol:.3e}")
    meta = {"iterations": len(changes), "residual": changes[-1], "error_bound": bound, "tol": tol}
    return ValueTable(game, v, meta=meta)


def _exchange_policy(game: GameSpec, values: ValueTable):
    """Pooled exchange block of every cell ``node * N + ticket`` (0-based
    ticket): the first cell of the block of tickets that the held one may
    leave with (uniformly, by indifference) and the block length, as flat
    arrays.  Off the interior every block is the held ticket alone."""
    grid = game.lattice
    interior, _, nbr, _ = grid.indexing()
    n = game.n_tickets
    cont = values.v[nbr].sum(axis=1) / (2.0 * grid.dimension) - np.asarray(game.costs)
    pooled = isotonic_project_batch(cont, np.ones(n))
    # Blocks are maximal runs of equal pooled values.
    same = np.abs(pooled[:, 1:] - pooled[:, :-1]) <= 1e-12 * np.maximum(1.0, np.abs(pooled[:, 1:]))
    k = np.arange(n)
    start = np.tile(k, (grid.n_nodes, 1))
    end = start + 1
    start[interior, 1:] = np.maximum.accumulate(np.where(same, 0, k[1:]), axis=1)
    end[interior, :-1] = np.minimum.accumulate(np.where(same, n, k[1:])[:, ::-1], axis=1)[:, ::-1]
    return (np.arange(grid.n_nodes)[:, None] * n + start).ravel(), (end - start).ravel()


def monte_carlo_eval(game: GameSpec, values: ValueTable, start_node, tickets, n_walks, seed):
    """Simulate the greedy exchange policy from the flat interior node
    ``start_node`` holding each of ``tickets`` (1-based); returns one
    (mean payoff, standard error) per ticket, in the order given.

    Within a pooled indifference block the walker takes a uniformly random
    ticket of the block; per round it pays the held ticket's cost, moves to
    a uniform random neighbor, and collects the exit payoff on the boundary.
    The moves do not depend on the ticket, so one walk carries every ticket
    on the same draws and gives each the result of a walk holding it alone.
    """
    grid = game.lattice
    n = game.n_tickets
    interior, boundary, nbr, _ = grid.indexing()
    integer = (int, np.integer)
    distinct = sorted(set(tickets))
    if not all(isinstance(t, integer) and 1 <= t <= n for t in distinct):
        raise InvalidInput(f"tickets {list(tickets)} out of range")
    role = grid.role.ravel()
    if not (isinstance(start_node, integer) and 0 <= start_node < len(role)) or role[start_node]:
        raise InvalidInput("start node must be interior")
    if not (isinstance(n_walks, integer) and n_walks >= 1):
        raise InvalidInput(f"n_walks must be a positive integer, got {n_walks}")
    if not distinct:
        return []
    block_start, block_len = _exchange_policy(game, values)
    degree = nbr.shape[1]
    # Cells node * N + ticket.  Boundary cells move to themselves and cost
    # nothing, so a walker that has exited stays exactly as it is.
    to = np.tile(np.arange(grid.n_nodes), (degree, 1))
    to[:, interior] = nbr.T
    move = (to[:, :, None] * n + np.arange(n)).ravel()  # direction-major
    cost = np.where(role[:, None] == 0, game.costs, 0.0).ravel()
    phi = np.zeros((grid.n_nodes, n))
    phi[boundary] = game.payoffs
    on_exit = np.repeat(role == BOUNDARY, n)

    cells = np.repeat(start_node * n + np.array(distinct) - 1, n_walks).reshape(-1, n_walks)
    acc = np.zeros(cells.shape)
    walks = np.arange(n_walks)
    live = n_walks
    max_steps = int(400 * (grid.diameter() / grid.h) ** 2) + 100000
    step = 0
    while live:
        if step % 4 == 0 or step > max_steps:
            # Every 4th step, once 1/8 of the walkers have exited, add their
            # payoffs and drop them: cheaper than compacting at every exit.
            done = on_exit[cells[0, :live]]
            n_done = int(np.count_nonzero(done))
            if step > max_steps and n_done < live:
                raise NotConverged(f"{live - n_done} walks still active after {max_steps} steps")
            if 8 * n_done >= live:
                order = np.argsort(done, kind="stable")
                walks[:live] = walks[order]
                for c, a in zip(cells, acc):
                    c[:live] = c[order]
                    a[:live] = a[order]
                    a[live - n_done : live] += phi.ravel()[c[live - n_done : live]]
                live -= n_done
                if not live:
                    break
        # Draws are at most 1 - 2^-53, so u * k truncates to at most k - 1.
        u = _u01(seed, walks[:live], step, 0)
        to_dir = (_u01(seed, walks[:live], step, 1) * degree).astype(np.intp) * len(cost)
        for c, a in zip(cells[:, :live], acc[:, :live]):
            c[:] = block_start[c] + (u * block_len[c]).astype(np.intp)
            a -= cost[c]
            c[:] = move[c + to_dir]
        step += 1
    payoff = np.empty_like(acc)
    payoff[:, walks] = acc
    est = {t: (float(p.mean()), float(p.std(ddof=1) / np.sqrt(n_walks)) if n_walks > 1 else 0.0)
           for t, p in zip(distinct, payoff)}
    return [est[t] for t in tickets]

#!/usr/bin/env python3
"""Cross-validate the grid solver against the ticket-exchange game on a
lattice: the Bellman fixed point (computed with the solver's sweep) vs a
solve run to stagnation, its KKT residual, and Monte Carlo evaluation of the
exchange policy for every ticket at three probe nodes where the ticket values
differ, which is independent of the sweep."""

import argparse

import numpy as np

from membranes import gamesim, solver2d
from membranes.cones1d import Cone1D
from membranes.problem import ProblemSpec, normalize
from membranes.solver2d import Grid


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=3, help="number of membranes")
    ap.add_argument("--size", type=int, default=32, help="lattice cells per side")
    ap.add_argument("--walks", type=int, default=100000)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    n = args.n
    spec = normalize(
        ProblemSpec(n, tuple([1.0] * n), tuple(float(n - 1 - 2 * k) for k in range(n)))
    )
    grid = Grid.rectangle(0, 1, 0, 1, 1.0 / args.size)
    cone = Cone1D(spec, "L" * (n - 1))
    data = lambda pts: cone.eval_2d(pts - 0.5, 0.25)

    game = gamesim.membrane_game(spec, grid, data)
    table = gamesim.bellman_solve(game, tol=1e-14)
    meta = table.meta
    print(
        f"Bellman: {meta['iterations']} sweeps, last change {meta['residual']:.2e},"
        f" error bound {meta['error_bound']:.2e}"
    )

    sol = solver2d.solve(spec, grid, data, tol=0.0, max_sweeps=200000)
    itr = grid.indexing()[0]
    gap = float(np.abs(table.v[itr] - sol.u[itr]).max())
    rep = solver2d.residual(
        solver2d.GridSolution2D(grid, spec, table.v, game.payoffs.copy())
    )
    print(f"max |game - pde| = {gap:.3e}, game KKT residual = {rep.kkt_residual:.3e}")

    # Probes where the ticket values differ, so that the Monte Carlo check
    # can tell a wrong ticket ordering from a right one.
    spread = table.v[itr].max(axis=1) - table.v[itr].min(axis=1)
    rng = np.random.default_rng(args.seed)
    tickets = list(range(1, n + 1))
    for node in rng.choice(itr[spread > 1e-6], 3, replace=False):
        estimates = gamesim.monte_carlo_eval(game, table, int(node), tickets, args.walks, args.seed)
        for ticket, (mean, se) in zip(tickets, estimates):
            bell = table.v[node, ticket - 1]
            print(
                f"node {node} ticket {ticket}: MC {mean:+.6f} (se {se:.1e}),"
                f" Bellman {bell:+.6f}, gap/se {abs(mean - bell) / se:.2f}"
            )


if __name__ == "__main__":
    main()

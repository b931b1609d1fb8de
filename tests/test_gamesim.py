import numpy as np
import pytest

from membranes import gamesim, solver2d
from membranes.cones1d import Cone1D
from membranes.errors import EmptyGrid, NonFiniteData, NotConverged, UnorderedBoundary
from membranes.exact1d import random_branch_vector, solution_for
from membranes.problem import ProblemSpec, normalize
from membranes.projection import isotonic_project_batch
from membranes.solver2d import Grid


def tilted_cone_data(spec, angle=0.25, shift=0.5):
    cone = Cone1D(spec, "L" * (spec.n_membranes - 1))
    return lambda pts: cone.eval_2d(pts - shift, angle)


def jacobi_bellman(game, tol=1e-14, max_iters=100000):
    """Reference for gamesim.bellman_solve: plain value iteration, every
    interior row updated from the previous table, started from the ordered
    harmonic extension of the payoffs and stopped once one update moves no
    value by more than tol * max(1, |v|)."""
    grid = game.lattice
    n = game.n_tickets
    interior, boundary, nbr, _ = grid.indexing()
    costs = np.asarray(game.costs)
    ones = np.ones(n)
    v = np.full((grid.n_nodes, n), np.nan)
    v[boundary] = game.payoffs
    v[interior] = isotonic_project_batch(solver2d._harmonic_extension(grid, game.payoffs, n), ones)
    inv = 1.0 / (2.0 * grid.dimension)
    for _ in range(max_iters):
        vnew = isotonic_project_batch(v[nbr].sum(axis=1) * inv - costs, ones)
        change = float(np.abs(vnew - v[interior]).max())
        v[interior] = vnew
        if change <= tol * max(1.0, float(np.nanmax(np.abs(v)))):
            return v
    raise AssertionError(f"value iteration still moves by {change:.1e}")


def hand_picked_game():
    # Costs that do not sum to 0 and payoffs close enough that tickets 1-2
    # and 2-3 pool at about half the nodes.
    grid = Grid.rectangle(0, 1, 0, 1, 1 / 16)
    pts = grid.coords()[grid.indexing()[1]]
    phi = np.column_stack([0.05 + 0.1 * pts[:, 0], 0.05 * pts[:, 1], -0.02 * pts[:, 0] * pts[:, 1]])
    return gamesim.GameSpec(grid, (0.003, 0.0, -0.002), phi)


class TestJacobiReference:
    def check(self, game):
        got = gamesim.bellman_solve(game)
        ref = jacobi_bellman(game)
        itr = game.lattice.indexing()[0]
        gap = np.abs(got.v[itr] - ref[itr])
        assert (gap <= 1e-10 * np.maximum(1.0, np.abs(ref[itr]))).all()

    def test_n1_not_normalized(self):
        grid = Grid.rectangle(0, 1, 0, 1, 1 / 8)
        self.check(gamesim.GameSpec(grid, (0.01,), np.zeros((len(grid.indexing()[1]), 1))))

    def test_n2_rectangle(self, spec2):
        grid = Grid.rectangle(0, 1, 0, 1, 1 / 16)
        self.check(gamesim.membrane_game(spec2, grid, tilted_cone_data(spec2)))

    def test_n3_rectangle(self, spec3_unit):
        grid = Grid.rectangle(0, 1, 0, 1, 1 / 16)
        self.check(gamesim.membrane_game(spec3_unit, grid, tilted_cone_data(spec3_unit)))

    def test_hand_picked_costs(self):
        self.check(hand_picked_game())


class TestBellman:
    def test_n1_is_discrete_poisson(self):
        # Single ticket: no exchange; v solves mean_nbr v - v = cost.
        spec = ProblemSpec(1, (1.0,), (0.0,))
        grid = Grid.rectangle(0, 1, 0, 1, 1 / 8)
        cost = 0.01
        game = gamesim.GameSpec(grid, (cost,), np.zeros((len(grid.indexing()[1]), 1)))
        vt = gamesim.bellman_solve(game, tol=1e-14)
        itr, _, nbr, _ = grid.indexing()
        resid = vt.v[nbr].sum(axis=1)[:, 0] / 4 - cost - vt.v[itr, 0]
        assert np.abs(resid).max() <= 1e-12

    def test_n2_matches_solver(self, spec2):
        # Interval lattice with boundary data from the exact 1D solution.
        cone = Cone1D(spec2, "L")
        rng = np.random.default_rng(5)
        sol1d = solution_for(cone, random_branch_vector(cone, rng, 0.4))
        grid = Grid.interval(-1, 1, 1 / 32)
        data = lambda pts: sol1d.eval(pts[:, 0])
        game = gamesim.membrane_game(spec2, grid, data)
        vt = gamesim.bellman_solve(game, tol=1e-14)
        ref = solver2d.solve(spec2, grid, data, tol=0.0, max_sweeps=60000)
        itr = grid.indexing()[0]
        assert np.abs(vt.v[itr] - ref.u[itr]).max() <= 1e-8

    def test_ordering_every_node(self, spec3_unit):
        grid = Grid.rectangle(0, 1, 0, 1, 1 / 16)
        game = gamesim.membrane_game(spec3_unit, grid, tilted_cone_data(spec3_unit))
        vt = gamesim.bellman_solve(game)
        active = grid.role.ravel() != 2
        diffs = vt.v[active][:, :-1] - vt.v[active][:, 1:]
        assert diffs.min() >= -1e-12

    def test_exchange_conserves_value(self, spec3_unit):
        grid = Grid.rectangle(0, 1, 0, 1, 1 / 16)
        game = gamesim.membrane_game(spec3_unit, grid, tilted_cone_data(spec3_unit))
        vt = gamesim.bellman_solve(game, tol=1e-14)
        itr, _, nbr, _ = grid.indexing()
        cont = vt.v[nbr].sum(axis=1) / 4 - np.asarray(game.costs)
        assert np.abs(vt.v[itr].sum(axis=1) - cont.sum(axis=1)).max() <= 1e-11

    def test_kkt_equivalence(self, spec3_unit):
        grid = Grid.rectangle(0, 1, 0, 1, 1 / 16)
        game = gamesim.membrane_game(spec3_unit, grid, tilted_cone_data(spec3_unit))
        vt = gamesim.bellman_solve(game, tol=1e-14)
        gs = solver2d.GridSolution2D(grid, spec3_unit, vt.v, game.payoffs.copy())
        rep = solver2d.residual(gs)
        assert rep.kkt_residual <= 1e-8
        assert rep.ordering_ok

    def test_monotone_in_payoffs(self, spec2):
        grid = Grid.rectangle(0, 1, 0, 1, 1 / 8)
        data = tilted_cone_data(spec2)
        game_lo = gamesim.membrane_game(spec2, grid, data)
        game_hi = gamesim.membrane_game(
            spec2, grid, lambda p: data(p) + np.array([0.3, 0.0])
        )
        v_lo = gamesim.bellman_solve(game_lo, tol=1e-14)
        v_hi = gamesim.bellman_solve(game_hi, tol=1e-14)
        active = grid.role.ravel() != 2
        assert (v_hi.v[active] - v_lo.v[active]).min() >= -1e-11

    def test_not_converged(self, spec2):
        grid = Grid.rectangle(0, 1, 0, 1, 1 / 16)
        game = gamesim.membrane_game(spec2, grid, tilted_cone_data(spec2))
        with pytest.raises(NotConverged):
            gamesim.bellman_solve(game, tol=1e-14, max_iters=3)

    def test_unordered_payoffs_rejected(self):
        grid = Grid.rectangle(0, 1, 0, 1, 1 / 8)
        nb = len(grid.indexing()[1])
        phi = np.column_stack([np.zeros(nb), np.ones(nb)])
        with pytest.raises(UnorderedBoundary):
            gamesim.GameSpec(grid, (0.1, -0.1), phi)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_payoffs_rejected(self, value):
        grid = Grid.rectangle(0, 1, 0, 1, 1 / 8)
        nb = len(grid.indexing()[1])
        phi = np.column_stack([np.ones(nb), np.zeros(nb)])
        phi[5, 0] = value
        with pytest.raises(NonFiniteData):
            gamesim.GameSpec(grid, (0.1, -0.1), phi)

    def test_lattice_without_interior_rejected(self):
        grid = Grid.rectangle(0, 1, 0, 1, 1.0)
        with pytest.raises(EmptyGrid):
            gamesim.GameSpec(grid, (0.1, -0.1), np.zeros((4, 2)))

    def test_nonunit_weights_rejected(self):
        spec = normalize(ProblemSpec(2, (1.0, 2.0), (1.0, -0.5)))
        grid = Grid.rectangle(0, 1, 0, 1, 1 / 8)
        with pytest.raises(ValueError):
            gamesim.membrane_game(spec, grid, tilted_cone_data(spec))


class TestMonteCarlo:
    def test_harmonic_measure(self):
        # N=1, zero cost, indicator payoff: the value is the discrete
        # harmonic measure of the marked boundary set.
        spec = ProblemSpec(1, (1.0,), (0.0,))
        grid = Grid.rectangle(0, 1, 0, 1, 1 / 8)
        itr, bnd, _, _ = grid.indexing()
        pts = grid.coords()[bnd]
        phi = (pts[:, 0] > 0.999)[:, None].astype(float)  # right edge
        game = gamesim.GameSpec(grid, (0.0,), phi)
        vt = gamesim.bellman_solve(game, tol=1e-14)
        start = itr[len(itr) // 2]
        mean, se = gamesim.monte_carlo_eval(game, vt, start, 1, 30000, seed=42)
        assert abs(mean - vt.v[start, 0]) <= 3 * se

    def test_policy_evaluation_consistency(self, spec3_unit):
        grid = Grid.rectangle(0, 1, 0, 1, 1 / 8)
        game = gamesim.membrane_game(spec3_unit, grid, tilted_cone_data(spec3_unit))
        vt = gamesim.bellman_solve(game, tol=1e-14)
        itr = grid.indexing()[0]
        rng = np.random.default_rng(0)
        for node in rng.choice(itr, 3, replace=False):
            for ticket in (1, 3):
                mean, se = gamesim.monte_carlo_eval(game, vt, int(node), ticket, 20000, seed=11)
                assert abs(mean - vt.v[node, ticket - 1]) <= 3 * se + 1e-12

    def test_seed_determinism(self, spec2):
        grid = Grid.rectangle(0, 1, 0, 1, 1 / 8)
        game = gamesim.membrane_game(spec2, grid, tilted_cone_data(spec2))
        vt = gamesim.bellman_solve(game, tol=1e-14)
        start = grid.indexing()[0][10]
        a = gamesim.monte_carlo_eval(game, vt, start, 2, 5000, seed=99)
        b = gamesim.monte_carlo_eval(game, vt, start, 2, 5000, seed=99)
        assert a == b
        c = gamesim.monte_carlo_eval(game, vt, start, 2, 5000, seed=100)
        assert c != a

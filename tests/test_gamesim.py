import numpy as np
import pytest

from membranes import gamesim, solver2d
from membranes.cones1d import Cone1D
from membranes.errors import (
    EmptyGrid,
    InvalidInput,
    NonFiniteData,
    NotConverged,
    UnorderedBoundary,
)
from membranes.exact1d import random_branch_vector, solution_for
from membranes.problem import ProblemSpec, normalize
from membranes.projection import isotonic_project_batch
from membranes.solver2d import BOUNDARY, Grid


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


def per_ticket_walks(game, values, start_node, ticket, n_walks, seed):
    """Reference for gamesim.monte_carlo_eval: one walk per ticket, the
    walkers gathered through the index array of those still walking at every
    step, and the exchange blocks built ticket by ticket."""
    grid = game.lattice
    n = game.n_tickets
    interior, boundary, nbr, _ = grid.indexing()
    cont = values.v[nbr].sum(axis=1) / (2.0 * grid.dimension) - np.asarray(game.costs)
    pooled = isotonic_project_batch(cont, np.ones(n))
    same = np.abs(pooled[:, 1:] - pooled[:, :-1]) <= 1e-12 * np.maximum(1.0, np.abs(pooled[:, 1:]))
    block_start = np.zeros((grid.n_nodes, n), dtype=np.int64)
    block_len = np.ones((grid.n_nodes, n), dtype=np.int64)
    start = np.zeros((len(interior), n), dtype=np.int64)
    for k in range(1, n):
        start[:, k] = np.where(same[:, k - 1], start[:, k - 1], k)
    end = np.full(len(interior), n, dtype=np.int64)
    for k in range(n - 1, -1, -1):
        if k < n - 1:
            end = np.where(same[:, k], end, k + 1)
        block_start[interior, k] = start[:, k]
        block_len[interior, k] = end - start[:, k]
    nbr_full = np.zeros((grid.n_nodes, nbr.shape[1]), dtype=np.int64)
    nbr_full[interior] = nbr
    phi_full = np.zeros((grid.n_nodes, n))
    phi_full[boundary] = game.payoffs
    costs = np.asarray(game.costs)
    degree = nbr.shape[1]
    role = grid.role.ravel()

    pos = np.full(n_walks, start_node, dtype=np.int64)
    tick = np.full(n_walks, ticket - 1, dtype=np.int64)
    acc = np.zeros(n_walks)
    payoff = np.zeros(n_walks)
    alive = np.arange(n_walks, dtype=np.int64)
    step = 0
    while len(alive):
        u_ex = gamesim._u01(seed, alive, step, 0)
        bs = block_start[pos[alive], tick[alive]]
        bl = block_len[pos[alive], tick[alive]]
        new_tick = bs + np.minimum((u_ex * bl).astype(np.int64), bl - 1)
        tick[alive] = new_tick
        acc[alive] -= costs[new_tick]
        u_mv = gamesim._u01(seed, alive, step, 1)
        direction = np.minimum((u_mv * degree).astype(np.int64), degree - 1)
        pos[alive] = nbr_full[pos[alive], direction]
        exited = role[pos[alive]] == BOUNDARY
        done = alive[exited]
        payoff[done] = acc[done] + phi_full[pos[done], tick[done]]
        alive = alive[~exited]
        step += 1
    se = float(payoff.std(ddof=1) / np.sqrt(n_walks)) if n_walks > 1 else 0.0
    return float(payoff.mean()), se


def splitmix_u01(seed, walk, step, channel):
    """Reference for gamesim._u01 on Python integers."""
    def mix(z):
        z = (z + 0x9E3779B97F4A7C15) % 2**64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        return z ^ (z >> 31)

    z = mix(seed % 2**64 ^ mix(walk ^ mix(step * 4 + channel)))
    return (z >> 11) / 2**53


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

    @pytest.mark.parametrize("max_iters", [0, -1, 2.5])
    def test_bad_max_iters(self, spec2, max_iters):
        grid = Grid.rectangle(0, 1, 0, 1, 1 / 8)
        game = gamesim.membrane_game(spec2, grid, tilted_cone_data(spec2))
        with pytest.raises(InvalidInput):
            gamesim.bellman_solve(game, max_iters=max_iters)

    def test_nan_tol_rejected(self, spec2):
        grid = Grid.rectangle(0, 1, 0, 1, 1 / 8)
        game = gamesim.membrane_game(spec2, grid, tilted_cone_data(spec2))
        with pytest.raises(InvalidInput):
            gamesim.bellman_solve(game, tol=np.nan)

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
        [(mean, se)] = gamesim.monte_carlo_eval(game, vt, start, [1], 30000, seed=42)
        assert abs(mean - vt.v[start, 0]) <= 3 * se

    def test_policy_evaluation_consistency(self, spec3_unit):
        grid = Grid.rectangle(0, 1, 0, 1, 1 / 8)
        game = gamesim.membrane_game(spec3_unit, grid, tilted_cone_data(spec3_unit))
        vt = gamesim.bellman_solve(game, tol=1e-14)
        itr = grid.indexing()[0]
        rng = np.random.default_rng(0)
        for node in rng.choice(itr, 3, replace=False):
            estimates = gamesim.monte_carlo_eval(game, vt, int(node), [1, 3], 20000, seed=11)
            for ticket, (mean, se) in zip((1, 3), estimates):
                assert abs(mean - vt.v[node, ticket - 1]) <= 3 * se + 1e-12

    def test_seed_determinism(self, spec2):
        grid = Grid.rectangle(0, 1, 0, 1, 1 / 8)
        game = gamesim.membrane_game(spec2, grid, tilted_cone_data(spec2))
        vt = gamesim.bellman_solve(game, tol=1e-14)
        start = grid.indexing()[0][10]
        a = gamesim.monte_carlo_eval(game, vt, start, [2], 5000, seed=99)
        b = gamesim.monte_carlo_eval(game, vt, start, [2], 5000, seed=99)
        assert a == b
        c = gamesim.monte_carlo_eval(game, vt, start, [2], 5000, seed=100)
        assert c != a

    def test_bad_tickets_and_start_rejected(self, spec2):
        grid = Grid.rectangle(0, 1, 0, 1, 1 / 8)
        game = gamesim.membrane_game(spec2, grid, tilted_cone_data(spec2))
        vt = gamesim.bellman_solve(game)
        itr, bnd, _, _ = grid.indexing()
        for tickets in ([0], [1, 3]):
            with pytest.raises(ValueError):
                gamesim.monte_carlo_eval(game, vt, int(itr[0]), tickets, 10, seed=1)
        with pytest.raises(ValueError):
            gamesim.monte_carlo_eval(game, vt, int(bnd[0]), [1], 10, seed=1)
        # A fractional ticket, a start past the last node or counted from the
        # end (an interior node), and no walks.
        start = int(itr[0])
        for node, tickets, n_walks in ((start, [1.5], 10), (grid.n_nodes, [1], 10),
                                       (start - grid.n_nodes, [1], 10), (start, [1], 0)):
            with pytest.raises(InvalidInput):
                gamesim.monte_carlo_eval(game, vt, node, tickets, n_walks, seed=1)


class TestSharedWalks:
    """One walk carrying every ticket gives each ticket the result of the
    per-ticket walks, bit for bit."""

    def check(self, game, nodes, n_walks=3000, seed=5):
        vt = gamesim.bellman_solve(game)
        tickets = list(range(1, game.n_tickets + 1))
        for node in nodes:
            got = gamesim.monte_carlo_eval(game, vt, int(node), tickets, n_walks, seed)
            ref = [per_ticket_walks(game, vt, int(node), t, n_walks, seed) for t in tickets]
            assert got == ref

    def test_n1_rectangle(self):
        grid = Grid.rectangle(0, 1, 0, 1, 1 / 8)
        pts = grid.coords()[grid.indexing()[1]]
        game = gamesim.GameSpec(grid, (0.01,), (pts[:, :1] + pts[:, 1:]) ** 2)
        self.check(game, grid.indexing()[0][[3, 20]])

    def test_n2_rectangle(self, spec2):
        grid = Grid.rectangle(0, 1, 0, 1, 1 / 8)
        game = gamesim.membrane_game(spec2, grid, tilted_cone_data(spec2))
        self.check(game, grid.indexing()[0][[5, 24]])

    def test_n3_rectangle(self, spec3_unit):
        grid = Grid.rectangle(0, 1, 0, 1, 1 / 8)
        game = gamesim.membrane_game(spec3_unit, grid, tilted_cone_data(spec3_unit))
        self.check(game, grid.indexing()[0][[0, 17, 40]])

    def test_interval_lattice(self, spec3_unit):
        grid = Grid.interval(-1, 1, 1 / 16)
        cone = Cone1D(spec3_unit, "LL")
        game = gamesim.membrane_game(spec3_unit, grid, lambda pts: cone.eval(pts[:, 0] - 0.1))
        self.check(game, [4, 16, 27])

    def test_hand_picked_pooling(self):
        game = hand_picked_game()
        vt = gamesim.bellman_solve(game)
        start, length = gamesim._exchange_policy(game, vt)
        pooled = np.flatnonzero((length.reshape(-1, 3) > 1).any(axis=1))
        assert len(pooled) >= 0.3 * len(game.lattice.indexing()[0])
        self.check(game, [pooled[len(pooled) // 2], game.lattice.indexing()[0][0]], n_walks=1000)

    def test_ticket_subsets_order_and_duplicates(self, spec3_unit):
        grid = Grid.rectangle(0, 1, 0, 1, 1 / 8)
        game = gamesim.membrane_game(spec3_unit, grid, tilted_cone_data(spec3_unit))
        vt = gamesim.bellman_solve(game)
        node = int(grid.indexing()[0][17])
        every = gamesim.monte_carlo_eval(game, vt, node, [1, 2, 3], 2000, seed=3)
        for k in (1, 2, 3):
            assert gamesim.monte_carlo_eval(game, vt, node, [k], 2000, seed=3) == [every[k - 1]]
        mixed = gamesim.monte_carlo_eval(game, vt, node, [3, 1, 3, 2], 2000, seed=3)
        assert mixed == [every[2], every[0], every[2], every[1]]

    def test_u01_is_splitmix64_of_the_counter(self):
        walks = np.array([0, 1, 7, 25000, 2**40 + 3])
        for seed in (0, 1001, 2**64 - 1, -1, 2**64, -(2**70) + 5):
            for step, channel in ((0, 0), (3, 1), (12345, 0)):
                got = gamesim._u01(seed, walks, step, channel)
                want = [splitmix_u01(seed, int(w), step, channel) for w in walks]
                assert got.tolist() == want

import json
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from membranes import solver2d
from membranes.cones1d import Cone1D
from membranes.errors import (
    EmptyFreeBoundary,
    EmptyGrid,
    IncompatibleGrids,
    InvalidInput,
    NonFiniteData,
    UnorderedBoundary,
)
from membranes.exact1d import gamma_to_solution
from membranes.problem import ProblemSpec, normalize
from membranes.solver2d import Grid, GridSolution2D


def ordered_random_boundary(spec, rng, amp=0.3):
    """Smooth random Dirichlet data respecting the ordering constraint."""
    n = spec.n_membranes
    coef = rng.standard_normal((n, 3)) * amp
    gaps = rng.uniform(0.1, 0.5, n)

    def data(pts):
        t = pts[:, 0] + (pts[:, 1] if pts.shape[1] > 1 else 0.0)
        base = coef[0, 0] * np.sin(2 * t) + coef[0, 1] * np.cos(t) + coef[0, 2]
        rows = []
        level = base
        for k in range(n - 1, -1, -1):
            rows.append(level.copy())
            if k > 0:
                level = level + gaps[k] * (1.1 + np.sin(3 * t + coef[k, 1]))
        return np.column_stack(rows[::-1])

    return data


def solver_sweeps(spec, grid, data):
    """The fields ``solve`` passes through, one per sweep, with its own omega."""
    first = solver2d.solve(spec, grid, data, max_sweeps=1)
    load = grid.h * grid.h * spec.f
    return solver2d._sweeps(grid, first.boundary_values, spec.w, load, first.meta["omega"])


class TestGrid:
    def test_masks_partition(self):
        g = Grid.disk(0, 0, 0.5, 1 / 16)
        role = g.role.ravel()
        assert set(np.unique(role)) <= {0, 1, 2}
        interior, boundary, nbr, _ = g.indexing()
        assert len(set(interior) & set(boundary)) == 0
        # Interior nodes only have active neighbors.
        assert np.all(role[nbr.ravel()] != 2)

    def test_bad_extent(self):
        with pytest.raises(ValueError):
            Grid.interval(0, 1, 0.3)

    def test_diameter(self):
        g = Grid.rectangle(0, 2, 0, 1, 1 / 8)
        assert g.diameter() == pytest.approx(np.sqrt(5))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Grid.interval(-1, 1, 1 / 8),
            lambda: Grid.rectangle(0, 1, -0.5, 0.375, 1 / 8),
            lambda: Grid.disk(0.1, -0.2, 0.5, 1 / 16),
        ],
        ids=["interval", "rectangle", "disk"],
    )
    def test_indexing_matches_node_loop(self, make):
        g = make()
        interior, boundary, nbr, red = g.indexing()
        role = g.role.ravel()
        assert interior.tolist() == [k for k in range(g.n_nodes) if role[k] == 0]
        assert boundary.tolist() == [k for k in range(g.n_nodes) if role[k] == 1]
        for row, k in enumerate(interior.tolist()):
            index = np.unravel_index(k, g.shape)
            expected = []
            for ax in range(g.dimension):  # i-1, i+1, then j-1, j+1
                for step in (-1, 1):
                    nb = list(index)
                    nb[ax] += step
                    expected.append(int(np.ravel_multi_index(nb, g.shape)))
            assert nbr[row].tolist() == expected
            assert red[row] == (sum(index) % 2 == 0)

    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda: Grid.interval(-1, 1, 1 / 8), lambda p: 0.3 - 1.7 * p[:, 0]),
            (
                lambda: Grid.rectangle(-1, 0.5, 0, 0.5, 1 / 8),
                lambda p: 0.3 - 1.7 * p[:, 0] + 0.9 * p[:, 1] + 2.1 * p[:, 0] * p[:, 1],
            ),
        ],
        ids=["interval-affine", "rectangle-bilinear"],
    )
    def test_interp_reproduces_multilinear_fields(self, spec2, rng, make, field):
        g = make()
        both = lambda p: np.column_stack([field(p) + 1.0, field(p) - 1.0])
        vals = both(g.coords())
        sol = GridSolution2D(g, spec2, vals, vals[g.indexing()[1]])
        lo = np.asarray(g.origin)
        hi = lo + g.h * (np.asarray(g.shape) - 1)
        pts = lo + (hi - lo) * rng.uniform(0.0, 1.0, (200, g.dimension))
        assert np.abs(sol.interp(pts) - both(pts)).max() <= 1e-13


class TestSolve:
    def test_harmonic_polynomial_exact(self):
        spec = ProblemSpec(1, (1.0,), (0.0,))
        g = Grid.rectangle(-1, 1, -1, 1, 1 / 8)
        sol = solver2d.solve(spec, g, lambda p: (p[:, 0] ** 2 - p[:, 1] ** 2)[:, None], tol=1e-14)
        itr = g.indexing()[0]
        exact = g.coords()[itr, 0] ** 2 - g.coords()[itr, 1] ** 2
        assert np.abs(sol.u[itr, 0] - exact).max() <= 1e-12

    def test_1d_matches_exact_solution(self, spec3, rng):
        cone = Cone1D(spec3, "RR")
        pq = gamma_to_solution(cone, np.array([0.31, -0.22]))
        h = 1 / 32
        g = Grid.interval(-1, 1, h)
        sol = solver2d.solve(spec3, g, lambda p: pq.eval(p[:, 0]), tol=0.0, max_sweeps=30000)
        itr = g.indexing()[0]
        err = np.abs(sol.u[itr] - pq.eval(g.coords()[itr, 0])).max()
        assert err <= 10 * h * h

    def test_disk_cone_data(self, spec2):
        p0 = Cone1D(spec2, "L")
        g = Grid.disk(0, 0, 0.5, 1 / 16)
        sol = solver2d.solve(spec2, g, lambda p: p0.eval_2d(p, 0.3), tol=0.0, max_sweeps=40000)
        itr = g.indexing()[0]
        err = np.abs(sol.u[itr] - p0.eval_2d(g.coords()[itr], 0.3)).max()
        assert err <= 10 * g.h**2
        assert sol.meta["converged"]

    def test_disk_aligned_cone_exact(self, spec2):
        # The kink line of the axis-aligned cone lies on grid nodes, where
        # the stencil is exact, so the discrete solution reproduces it to
        # rounding.
        p0 = Cone1D(spec2, "L")
        g = Grid.disk(0, 0, 0.5, 1 / 16)
        sol = solver2d.solve(spec2, g, lambda p: p0.eval_2d(p), tol=0.0, max_sweeps=40000)
        itr = g.indexing()[0]
        err = np.abs(sol.u[itr] - p0.eval_2d(g.coords()[itr])).max()
        assert err <= 1e-12

    def test_translation_covariance(self, spec2, rng):
        g = Grid.rectangle(0, 1, 0, 1, 1 / 16)
        data = ordered_random_boundary(spec2, rng)
        c = 0.37
        sol_a = solver2d.solve(spec2, g, data, tol=0.0, max_sweeps=20000)
        sol_b = solver2d.solve(spec2, g, lambda p: data(p) + c, tol=0.0, max_sweeps=20000)
        itr = g.indexing()[0]
        assert np.abs(sol_b.u[itr] - sol_a.u[itr] - c).max() <= 1e-12

    def test_energy_monotone(self, spec3, rng):
        # A rectangle and an interval: the 1D energy has its own code path.
        cone = Cone1D(spec3, "RL")
        cases = [
            (Grid.rectangle(0, 1, 0, 1, 1 / 12), ordered_random_boundary(spec3, rng), 300),
            (Grid.interval(-1, 1, 1 / 16), lambda p: cone.eval(p[:, 0] - 0.21), 400),
        ]
        for g, data, sweeps in cases:
            fields = islice(solver_sweeps(spec3, g, data), sweeps)
            tr = [solver2d.energy(g, spec3, u) for u, _ in fields]
            assert all(tr[i + 1] <= tr[i] + 1e-12 for i in range(len(tr) - 1)), g.dimension

    def test_stop_adds_no_arithmetic(self, spec3, rng):
        # solve after k sweeps returns the k-th field the sweep generator yields.
        cases = [
            (Grid.rectangle(0, 1, 0, 1, 1 / 8), ordered_random_boundary(spec3, rng), 37),
            (Grid.disk(0, 0, 0.5, 1 / 16), ordered_random_boundary(spec3, rng), 45),
        ]
        for g, data, k in cases:
            sol = solver2d.solve(spec3, g, data, max_sweeps=k)
            u, _ = next(islice(solver_sweeps(spec3, g, data), k - 1, None))
            assert sol.meta["sweeps"] == k
            assert np.array_equal(sol.u, u, equal_nan=True)

    def test_ordering_exact_every_node(self, spec3, rng):
        g = Grid.rectangle(0, 1, 0, 1, 1 / 16)
        sol = solver2d.solve(spec3, g, ordered_random_boundary(spec3, rng), max_sweeps=500)
        itr = g.indexing()[0]
        diffs = sol.u[itr][:, :-1] - sol.u[itr][:, 1:]
        assert diffs.min() >= 0.0

    def test_unordered_boundary_raises(self, spec2):
        g = Grid.rectangle(0, 1, 0, 1, 1 / 8)

        def bad(pts):
            return np.column_stack([-np.ones(len(pts)), np.ones(len(pts))])

        with pytest.raises(UnorderedBoundary):
            solver2d.solve(spec2, g, bad)

    def test_not_converged_flag(self, spec2, rng):
        g = Grid.rectangle(0, 1, 0, 1, 1 / 16)
        sol = solver2d.solve(spec2, g, ordered_random_boundary(spec2, rng), max_sweeps=2)
        assert not sol.meta["converged"]

    def test_unnormalized_spec_rejected(self):
        spec = ProblemSpec(2, (1.0, 1.0), (1.0, -0.5))
        g = Grid.rectangle(0, 1, 0, 1, 1 / 8)
        with pytest.raises(ValueError):
            solver2d.solve(spec, g, lambda p: np.zeros((len(p), 2)))

    def test_warm_start_prolong(self, spec2):
        p0 = Cone1D(spec2, "L")
        data = lambda p: p0.eval_2d(p, 0.3)
        g1 = Grid.disk(0, 0, 0.5, 1 / 8)
        g2 = Grid.disk(0, 0, 0.5, 1 / 16)
        coarse = solver2d.solve(spec2, g1, data, tol=0.0, max_sweeps=20000)
        warm = solver2d.solve(spec2, g2, data, init=solver2d.prolong(coarse, g2), tol=0.0, max_sweeps=40000)
        cold = solver2d.solve(spec2, g2, data, tol=0.0, max_sweeps=40000)
        itr = g2.indexing()[0]
        assert np.abs(warm.u[itr] - cold.u[itr]).max() <= 1e-12
        assert warm.meta["sweeps"] <= cold.meta["sweeps"]


class TestOverRelaxation:
    @pytest.mark.parametrize("seed", [900, 901, 902, 903])
    def test_default_tol_within_tol_of_stagnation(self, spec2, spec3, seed):
        # Criterion 09's instances: converged must mean within tol of the
        # discrete solution, which a tol=0 solve reaches by stagnation.
        spec = spec2 if seed % 2 == 0 else spec3
        g = Grid.rectangle(-1, 1, -1, 1, 1 / 32)
        data = ordered_random_boundary(spec, np.random.default_rng(seed))
        sol = solver2d.solve(spec, g, data, max_sweeps=60000)
        ref = solver2d.solve(spec, g, data, tol=0.0, max_sweeps=60000)
        itr = g.indexing()[0]
        tol = sol.meta["tol"]
        assert sol.meta["converged"] and sol.meta["error_bound"] <= tol
        assert 1.0 < sol.meta["omega"] < 2.0
        assert ref.meta["converged"] and ref.meta["final_change"] == 0.0
        assert np.abs(sol.u[itr] - ref.u[itr]).max() <= tol

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(2, 4),
        cells=st.sampled_from([4, 6, 8]),
        seed=st.integers(0, 2**32 - 1),
        sweeps=st.integers(1, 60),
    )
    def test_ordering_and_energy_every_sweep(self, n, cells, seed, sweeps):
        rng = np.random.default_rng(seed)
        forces = np.cumsum(rng.uniform(0.2, 2.0, n))[::-1]
        spec = normalize(ProblemSpec(n, tuple(rng.uniform(0.3, 3.0, n)), tuple(forces)))
        g = Grid.rectangle(0, 1, 0, 1, 1 / cells)
        itr = g.indexing()[0]
        tr = []
        for u, _ in islice(solver_sweeps(spec, g, ordered_random_boundary(spec, rng)), sweeps):
            assert (u[itr][:, :-1] - u[itr][:, 1:]).min() >= 0.0
            tr.append(solver2d.energy(g, spec, u))
        assert all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(tr, tr[1:]))

    def test_max_sweeps_not_converged_has_no_bound(self, spec2, rng):
        g = Grid.rectangle(0, 1, 0, 1, 1 / 16)
        sol = solver2d.solve(spec2, g, ordered_random_boundary(spec2, rng), max_sweeps=30)
        assert not sol.meta["converged"]
        assert sol.meta["error_bound"] == np.inf


class TestBadInput:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_boundary_data(self, spec2, value):
        g = Grid.rectangle(0, 1, 0, 1, 1 / 8)
        with pytest.raises(NonFiniteData):
            solver2d.solve(spec2, g, lambda p: np.full((len(p), 2), value))

    def test_one_non_finite_value(self, spec2, rng):
        g = Grid.rectangle(0, 1, 0, 1, 1 / 8)
        data = ordered_random_boundary(spec2, rng)

        def bad(p):
            vals = data(p)
            vals[3, 1] = np.nan
            return vals

        with pytest.raises(NonFiniteData):
            solver2d.solve(spec2, g, bad)

    @pytest.mark.parametrize("rows", [5, 81], ids=["five-rows", "every-node"])
    def test_init_of_wrong_shape(self, spec2, rng, rows):
        # Only (n_interior, N) = (49, 2) fits; 81 is the full field's row count.
        g = Grid.rectangle(0, 1, 0, 1, 1 / 8)
        init = np.zeros((rows, 2))
        with pytest.raises(InvalidInput):
            solver2d.solve(spec2, g, ordered_random_boundary(spec2, rng), init=init)

    @pytest.mark.parametrize("max_sweeps", [0, -1, 2.5])
    def test_bad_max_sweeps(self, spec2, rng, max_sweeps):
        g = Grid.rectangle(0, 1, 0, 1, 1 / 8)
        with pytest.raises(InvalidInput):
            solver2d.solve(spec2, g, ordered_random_boundary(spec2, rng), max_sweeps=max_sweeps)

    def test_non_finite_init(self, spec2, rng):
        g = Grid.rectangle(0, 1, 0, 1, 1 / 8)
        init = np.full((len(g.indexing()[0]), 2), np.nan)
        with pytest.raises(NonFiniteData):
            solver2d.solve(spec2, g, ordered_random_boundary(spec2, rng), init=init)

    @pytest.mark.parametrize(
        "make",
        [lambda: Grid.rectangle(0, 1, 0, 1, 1.0), lambda: Grid.interval(0, 1, 1.0),
         lambda: Grid.disk(0, 0, 0.25, 0.5)],
        ids=["rectangle", "interval", "disk"],
    )
    def test_grid_without_interior(self, spec2, make):
        with pytest.raises(EmptyGrid):
            solver2d.solve(spec2, make(), lambda p: np.zeros((len(p), 2)))

    @pytest.mark.parametrize(
        "make",
        [lambda: Grid.interval(0, 1, 0.0), lambda: Grid.interval(0, 1, -0.25),
         lambda: Grid.interval(1, 0, 0.25), lambda: Grid.disk(0, 0, -1, 1 / 16),
         # Node counts past numpy's limits: rejected before any allocation.
         lambda: Grid.interval(0, 0.0625, 1e-300), lambda: Grid.rectangle(0, 1, 0, 1, 2.0**-34),
         lambda: Grid.disk(0, 0, 1, 2.0**-34)],
        ids=["h-zero", "h-negative", "hi-below-lo", "disk-negative-radius", "interval-too-long",
             "rectangle-too-many-nodes", "disk-too-many-nodes"],
    )
    def test_bad_grid(self, make):
        with pytest.raises(InvalidInput):
            make()

    @pytest.mark.parametrize("tol", [np.nan, -1.0])
    def test_bad_tol(self, spec2, tol):
        g = Grid.rectangle(0, 1, 0, 1, 1 / 8)
        with pytest.raises(InvalidInput):
            solver2d.solve(spec2, g, lambda p: np.zeros((len(p), 2)), tol=tol)


class TestResidual:
    def test_weighted_identity_and_regions(self, spec3, rng):
        g = Grid.rectangle(0, 1, 0, 1, 1 / 24)
        sol = solver2d.solve(spec3, g, ordered_random_boundary(spec3, rng), tol=0.0, max_sweeps=60000)
        rep = solver2d.residual(sol)
        assert rep.weighted_identity <= 1e-9
        assert rep.ordering_ok
        assert rep.kkt_residual <= 1e-8

    def test_n2_complementarity(self, spec2, rng):
        # The N=2 case reduces to obstacle-problem complementarity nodewise.
        g = Grid.rectangle(0, 1, 0, 1, 1 / 16)
        sol = solver2d.solve(spec2, g, ordered_random_boundary(spec2, rng), tol=0.0, max_sweeps=40000)
        itr = g.indexing()[0]
        lap = solver2d.discrete_laplacian(sol)
        d = sol.u[itr, 0] - sol.u[itr, 1]
        res = lap[:, 0] - lap[:, 1] - (spec2.f[0] - spec2.f[1])
        assert np.abs(d * res).max() <= 1e-8

    def test_exact_cone_regions(self, spec2):
        # Exact cone data: region residuals vanish away from the kink line.
        g = Grid.rectangle(-1, 1, -1, 1, 1 / 32)
        p0 = Cone1D(spec2, "L")
        vals = p0.eval_2d(g.coords())
        sol = GridSolution2D(g, spec2, vals, vals[g.indexing()[1]])
        lap = solver2d.discrete_laplacian(sol)
        itr = g.indexing()[0]
        away = np.abs(g.coords()[itr, 1]) > 2 * g.h
        sep = vals[itr, 0] - vals[itr, 1] > solver2d.default_coincidence_tol(sol)
        resid = np.abs(lap[:, 0] - spec2.f[0])[away & sep]
        assert resid.max() <= 1e-10


class TestMaxPrinciple:
    def test_constant_shift(self, spec2, rng):
        g = Grid.rectangle(0, 1, 0, 1, 1 / 16)
        data = ordered_random_boundary(spec2, rng)
        sol_a = solver2d.solve(spec2, g, data, tol=0.0, max_sweeps=20000)
        sol_b = solver2d.solve(spec2, g, lambda p: data(p) - 0.2, tol=0.0, max_sweeps=20000)
        verdict = solver2d.check_max_principle(sol_a, sol_b, tol=1e-10)
        assert verdict.ok

    def test_random_ordered_pairs(self, spec3, rng):
        g = Grid.rectangle(0, 1, 0, 1, 1 / 12)
        for _ in range(5):
            data_b = ordered_random_boundary(spec3, rng)
            lift = rng.uniform(0.05, 0.4)
            data_a = lambda p: data_b(p) + lift * (1.2 + np.sin(p[:, 0]))[:, None]
            sol_a = solver2d.solve(spec3, g, data_a, tol=0.0, max_sweeps=20000)
            sol_b = solver2d.solve(spec3, g, data_b, tol=0.0, max_sweeps=20000)
            verdict = solver2d.check_max_principle(sol_a, sol_b, tol=1e-8)
            assert verdict.ok, verdict

    def test_subharmonic_proxy(self, spec2, rng):
        # sum w (u_a - u_b)^2 attains its maximum on the boundary.
        g = Grid.rectangle(0, 1, 0, 1, 1 / 16)
        data_b = ordered_random_boundary(spec2, rng)
        data_a = lambda p: data_b(p) + (0.2 + 0.1 * np.cos(2 * p[:, 0]))[:, None]
        sol_a = solver2d.solve(spec2, g, data_a, tol=0.0, max_sweeps=20000)
        sol_b = solver2d.solve(spec2, g, data_b, tol=0.0, max_sweeps=20000)
        gap2 = ((sol_a.u - sol_b.u) ** 2) @ spec2.w
        itr, bnd, _, _ = g.indexing()
        assert np.nanmax(gap2[itr]) <= gap2[bnd].max() + 1e-10

    def test_incompatible(self, spec2, spec3, rng):
        g = Grid.rectangle(0, 1, 0, 1, 1 / 8)
        g2 = Grid.rectangle(0, 1, 0, 1, 1 / 16)
        data = ordered_random_boundary(spec2, rng)
        a = solver2d.solve(spec2, g, data, max_sweeps=200)
        b = solver2d.solve(spec2, g2, data, max_sweeps=200)
        with pytest.raises(IncompatibleGrids):
            solver2d.check_max_principle(a, b)


class TestQuadraticGrowth:
    def test_p0_ratio(self, spec2):
        # Axis-aligned cone: the ball max snaps to whole grid rows, so use
        # radii commensurate with h, where the probe is exact.
        p0 = Cone1D(spec2, "L")
        g = Grid.rectangle(-1, 1, -1, 1, 1 / 32)
        vals = p0.eval_2d(g.coords())
        sol = GridSolution2D(g, spec2, vals, vals[g.indexing()[1]])
        radii = [0.25, 0.5]  # 8h and 16h
        out = solver2d.quadratic_growth_probe(sol, 1, radii)
        c = (spec2.f[0] - spec2.f[1]) / 2
        for r in radii:
            lo, hi = out[r]
            assert lo >= 0.9 * c
            assert hi <= 1.1 * c

    def test_tilted_ratio(self, spec2):
        p0 = Cone1D(spec2, "L")
        g = Grid.disk(0, 0, 0.5, 1 / 64)
        vals = p0.eval_2d(g.coords(), 0.35)
        role = g.role.ravel()
        vals = np.where((role != 2)[:, None], vals, np.nan)
        sol = GridSolution2D(g, spec2, vals, vals[g.indexing()[1]])
        out = solver2d.quadratic_growth_probe(sol, 1, [0.13, 0.2])
        c = (spec2.f[0] - spec2.f[1]) / 2
        for lo, hi in out.values():
            assert lo >= 0.9 * c
            assert hi <= 1.1 * c

    def test_empty(self, spec2):
        g = Grid.rectangle(0, 1, 0, 1, 1 / 8)
        vals = np.zeros((g.n_nodes, 2))
        vals[:, 0] = 1.0  # fully separated everywhere
        sol = GridSolution2D(g, spec2, vals, vals[g.indexing()[1]])
        with pytest.raises(EmptyFreeBoundary):
            solver2d.quadratic_growth_probe(sol, 1, [0.1])

    @pytest.mark.parametrize("k", [-1, 0, 3])
    def test_pair_index_out_of_range(self, spec3, k):
        g = Grid.rectangle(0, 1, 0, 1, 1 / 8)
        vals = np.zeros((g.n_nodes, 3))
        sol = GridSolution2D(g, spec3, vals, vals[g.indexing()[1]])
        with pytest.raises(EmptyFreeBoundary, match="out of range"):
            solver2d.quadratic_growth_probe(sol, k, [0.1])


class TestSerialization:
    def test_csv_and_header(self, spec2, rng, tmp_path):
        g = Grid.rectangle(0, 1, 0, 1, 1 / 8)
        sol = solver2d.solve(spec2, g, ordered_random_boundary(spec2, rng), max_sweeps=2000)
        csv_path = tmp_path / "sol.csv"
        json_path = tmp_path / "sol.json"
        solver2d.save_solution_csv(sol, csv_path, json_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "node,x,y,u_1,u_2"
        active = (g.role.ravel() != 2).sum()
        assert len(lines) == 1 + active
        header = json.loads(json_path.read_text())
        assert header["grid"]["h"] == g.h
        assert "kkt_residual" in header["residual"]

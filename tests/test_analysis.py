import numpy as np
import pytest

from membranes import analysis, solver2d
from membranes.cones1d import Cone1D, decompose_degenerate, enumerate_cones
from membranes.errors import (
    BallOutsideDomain,
    EmptyFreeBoundary,
    InsufficientData,
    InvalidInput,
    NonFiniteData,
    NotRegular,
)
from membranes.exact1d import (
    ApproximateProfile2D,
    BranchVector,
    _rotated_coords,
    branch_space_basis,
    build_degenerate_profile,
    random_branch_vector,
    solution_for,
    tau,
    zero_branch_vector,
)
from membranes.problem import ProblemSpec
from membranes.solver2d import Grid, GridSolution2D

from test_solver2d import ordered_random_boundary


def field_solution(spec, grid, func):
    """Wrap an exact field (callable on points) as a GridSolution2D."""
    vals = func(grid.coords())
    role = grid.role.ravel()
    vals = np.where((role != 2)[:, None], vals, np.nan)
    bnd = grid.indexing()[1]
    return GridSolution2D(grid, spec, vals, vals[bnd])


class TestExtraction:
    def test_p0_level_line(self, spec2):
        p0 = Cone1D(spec2, "L")
        g = Grid.rectangle(-1, 1, -1, 1, 1 / 64)
        sol = field_solution(spec2, g, p0.eval_2d)
        fb = analysis.extract_free_boundary(sol, 1)
        # Level set of (f1-f2)/2 x2^2 at tol: x2 = sqrt(2 tol / (f1 - f2)).
        c0 = np.sqrt(2 * fb.tolerance / (spec2.f[0] - spec2.f[1]))
        x2 = fb.vertices[:, 1]
        assert np.abs(x2 - c0).max() <= 2 * g.h

    def test_tilted_slope_recovered(self, spec2):
        p0 = Cone1D(spec2, "L")
        s = 0.3
        g = Grid.rectangle(-1, 1, -1, 1, 1 / 64)
        prof = ApproximateProfile2D(p0, zero_branch_vector(p0), s * tau(p0))
        sol = field_solution(spec2, g, prof.eval)
        fb = analysis.extract_free_boundary(sol, 1)
        v = fb.vertices
        span = v[:, 0].max() - v[:, 0].min()
        assert span > 1.0
        slope = np.polyfit(v[:, 0], v[:, 1], 1)[0]
        assert slope == pytest.approx(-s, abs=3 * g.h)

    def test_n1_empty(self):
        spec = ProblemSpec(1, (1.0,), (0.0,))
        g = Grid.rectangle(0, 1, 0, 1, 1 / 8)
        sol = field_solution(spec, g, lambda p: np.zeros((len(p), 1)))
        with pytest.raises(EmptyFreeBoundary):
            analysis.extract_free_boundary(sol, 1)

    def test_no_crossing_empty(self, spec2):
        g = Grid.rectangle(0, 1, 0, 1, 1 / 8)
        sol = field_solution(spec2, g, lambda p: np.column_stack([np.ones(len(p)), -np.ones(len(p))]))
        with pytest.raises(EmptyFreeBoundary):
            analysis.extract_free_boundary(sol, 1)


class TestWeiss:
    def test_p0_value(self, spec2):
        p0 = Cone1D(spec2, "L")
        g = Grid.rectangle(-1, 1, -1, 1, 1 / 128)
        sol = field_solution(spec2, g, p0.eval_2d)
        prof = analysis.weiss(sol, (0, 0), [0.3, 0.6, 0.9])
        target = np.pi / 32 * float(spec2.w @ spec2.f**2)
        assert np.abs(prof.W - target).max() <= 1e-3
        assert np.all(prof.W == prof.E - prof.F)

    def test_cone_flat_in_r(self, spec3):
        cone = Cone1D(spec3, "RL")
        g = Grid.rectangle(-1, 1, -1, 1, 1 / 128)
        sol = field_solution(spec3, g, cone.eval_2d)
        prof = analysis.weiss(sol, (0, 0), np.linspace(0.25, 0.9, 6))
        assert prof.W.max() - prof.W.min() <= 2e-3
        assert np.abs(prof.W - analysis.weiss_of_cone(cone)).max() <= 2e-3

    def test_harmonic_quadratic_invariance(self, spec2):
        # Adding the same homogeneous harmonic quadratic to all membranes
        # leaves W unchanged.
        p0 = Cone1D(spec2, "L")
        q = lambda p: 0.3 * (p[:, 0] ** 2 - p[:, 1] ** 2) + 0.2 * p[:, 0] * p[:, 1]
        g = Grid.rectangle(-1, 1, -1, 1, 1 / 128)
        sol_a = field_solution(spec2, g, p0.eval_2d)
        sol_b = field_solution(spec2, g, lambda p: p0.eval_2d(p) + q(p)[:, None])
        radii = [0.4, 0.7]
        wa = analysis.weiss(sol_a, (0, 0), radii).W
        wb = analysis.weiss(sol_b, (0, 0), radii).W
        assert np.abs(wa - wb).max() <= 2e-3

    def test_degenerate_extension_weiss_invariant(self, spec2, rng):
        # Any valid 2D extension of a degenerate cone has the same Weiss
        # energy as the trivial extension, for all angles and harmonics.
        dec = decompose_degenerate(Cone1D(spec2, "."))
        g = Grid.rectangle(-1, 1, -1, 1, 1 / 128)
        target = analysis.weiss_of_cone(Cone1D(spec2, "."))
        for angles, harm in (
            ([0.0, 0.0], [(0.0, 0.0), (0.0, 0.0)]),
            ([0.7, 2.1], [(0.1, -0.05), (0.12, 0.2)]),
        ):
            prof2d = build_degenerate_profile(dec, angles, harm)
            sol = field_solution(spec2, g, prof2d.eval)
            prof = analysis.weiss(sol, (0, 0), [0.4, 0.8])
            assert np.abs(prof.W - target).max() <= 3e-3

    def test_group_weiss_sum_matches_difference_identity(self, spec2):
        # The per-group energies of the trivial extension reproduce the
        # assembled energy up to the group-quadratic cross term, which is
        # what the difference identity of the decomposition argument uses.
        cone = Cone1D(spec2, ".")
        dec = decompose_degenerate(cone)
        total = analysis.weiss_of_cone(cone)
        per_group = sum(analysis.weiss_of_cone(sub) for _, _, sub in dec.groups)
        cross = np.pi / 16 * sum(
            qpp**2 * spec2.w[lo:hi].sum() for (lo, hi), qpp, _ in dec.groups
        )
        assert total == pytest.approx(per_group + cross, abs=1e-12)

    def test_ball_outside(self, spec2):
        p0 = Cone1D(spec2, "L")
        g = Grid.rectangle(-1, 1, -1, 1, 1 / 32)
        sol = field_solution(spec2, g, p0.eval_2d)
        with pytest.raises(BallOutsideDomain):
            analysis.weiss(sol, (0.8, 0.0), [0.5])

    @pytest.mark.parametrize(
        "center, radii, error",
        [((0, 0), [], InsufficientData), ((0, 0), [0.0, 0.3], InsufficientData),
         ((0, 0), [0.3, np.nan], NonFiniteData), ((np.nan, 0), [0.3], NonFiniteData)],
        ids=["no-radii", "zero-radius", "nan-radius", "nan-center"],
    )
    def test_bad_balls(self, spec2, center, radii, error):
        g = Grid.rectangle(-1, 1, -1, 1, 1 / 8)
        sol = field_solution(spec2, g, Cone1D(spec2, "L").eval_2d)
        with pytest.raises(error):
            analysis.weiss(sol, center, radii)

    def test_ball_inside_interval(self):
        g = Grid.interval(-1, 1, 1 / 8)
        analysis.check_ball_inside(g, (0.2,), 0.75)
        for center, r in (((0.2,), 0.85), ((-0.5,), 0.6)):
            with pytest.raises(BallOutsideDomain):
                analysis.check_ball_inside(g, center, r)

    def test_weiss_1d(self, spec2, rng):
        cone = Cone1D(spec2, "L")
        g = Grid.interval(-1, 1, 1 / 256)
        vals = cone.eval(g.coords()[:, 0])
        sol = GridSolution2D(g, spec2, vals, vals[g.indexing()[1]])
        prof = analysis.weiss(sol, (0.0,), [0.3, 0.6])
        # 1D analytic: W = sum w [a^-(f-a^-)+a^+(f-a^+)] * int_{-1}^{1} x^2 / 2... via direct quadrature oracle
        xs = np.linspace(-1, 1, 20001)
        for i, r in enumerate([0.3, 0.6]):
            sel = np.abs(xs) <= r
            x = xs[sel]
            u = cone.eval(x)
            du = np.gradient(u, x, axis=0)
            integrand = (0.5 * du**2 + spec2.f * u) @ spec2.w
            e_ref = np.trapezoid(integrand, x) / r**3
            f_ref = float((cone.eval(np.array([-r, r])) ** 2 @ spec2.w).sum()) / r**4
            assert prof.W[i] == pytest.approx(e_ref - f_ref, abs=5e-3)


class TestMonotonicity:
    def test_solved_field_monotone(self, spec2, rng):
        g = Grid.rectangle(-1, 1, -1, 1, 1 / 32)
        sol = solver2d.solve(spec2, g, ordered_random_boundary(spec2, rng), tol=0.0, max_sweeps=50000)
        radii = np.linspace(0.2, 0.9, 8)
        prof = analysis.weiss(sol, (0, 0), radii)
        c_q = analysis.calibrate_weiss_slack(sol, (0, 0), radii)
        verdict = analysis.monotonicity_check(prof, c_q)
        assert verdict.ok, verdict.violations

    def test_negative_control_flagged(self, spec2, rng):
        g = Grid.rectangle(-1, 1, -1, 1, 1 / 32)
        sol = solver2d.solve(spec2, g, ordered_random_boundary(spec2, rng), tol=0.0, max_sweeps=50000)
        radii = np.linspace(0.2, 0.9, 8)
        c_q = analysis.calibrate_weiss_slack(sol, (0, 0), radii)
        # Corrupt with an ordered bump concentrated at mid radius.
        coords = g.coords()
        bump = 0.25 * np.exp(-(((np.linalg.norm(coords, axis=1) - 0.5) / 0.1) ** 2))
        u_bad = sol.u.copy()
        u_bad[:, 0] += bump
        u_bad[:, 1] -= bump
        bad = GridSolution2D(g, spec2, u_bad, sol.boundary_values)
        prof_bad = analysis.weiss(bad, (0, 0), radii)
        verdict = analysis.monotonicity_check(prof_bad, c_q)
        assert not verdict.ok

    def test_flat_for_cone(self, spec3):
        cone = Cone1D(spec3, "LR")
        g = Grid.rectangle(-1, 1, -1, 1, 1 / 64)
        sol = field_solution(spec3, g, cone.eval_2d)
        radii = np.linspace(0.25, 0.9, 6)
        prof = analysis.weiss(sol, (0, 0), radii)
        c_q = analysis.calibrate_weiss_slack(sol, (0, 0), radii, cone=cone)
        verdict = analysis.monotonicity_check(prof, c_q)
        assert verdict.ok


class TestBlowupRescale:
    """The blow-up rescaling r^{-2} u(r x) of exact profiles, evaluated directly."""

    def test_cone_invariant(self, spec2):
        # A cone is its own blow-up.
        p0 = Cone1D(spec2, "L")
        pts = Grid.rectangle(-1, 1, -1, 1, 1 / 32).coords()
        for r in (1.0, 0.5):
            assert np.abs(p0.eval_2d(r * pts) / r**2 - p0.eval_2d(pts)).max() <= 1e-14

    def test_1d_profile_homogeneity(self, spec3, rng):
        cone = Cone1D(spec3, "RL")
        b = random_branch_vector(cone, rng, 0.5)
        h, r = 1 / 64, 0.5
        xs = Grid.interval(-1, 1, h).coords()[:, 0]
        # r^{-2} h(r x, b) = h(x, b / r) by degree-2 homogeneity.
        lhs = solution_for(cone, b).eval(r * xs) / r**2
        rhs = solution_for(cone, (1.0 / r) * b).eval(xs)
        assert np.abs(lhs - rhs).max() <= 5 * h**2


def dense_lsq_branch(cone, theta, rel, uvals, resid=None):
    """Reference for analysis._lsq_branch: the (M N) x k design matrix built
    one basis column at a time and solved by dense least squares."""
    basis = branch_space_basis(cone)
    ct, st = np.cos(theta), np.sin(theta)
    y1 = rel @ np.array([ct, st])
    y2 = rel @ np.array([-st, ct])
    target = uvals - cone.eval(y2) if resid is None else resid
    n = cone.n
    side = y2 >= 0
    cols = []
    for j in range(basis.shape[1]):
        colm, colp = basis[:n, j], basis[n:, j]
        per_membrane = np.where(side[:, None], colp[None, :], colm[None, :])
        cols.append(((y1 * y2)[:, None] * per_membrane).ravel())
    c, *_ = np.linalg.lstsq(np.stack(cols, axis=1), target.ravel(), rcond=None)
    return BranchVector(cone, basis @ c)


def one_sided_ball(cone, rng):
    """300 points with y > 0 and the cone's values there plus noise."""
    rel = np.column_stack([rng.uniform(-0.5, 0.5, 300), rng.uniform(0.01, 0.5, 300)])
    return rel, cone.eval(rel[:, 1]) + 1e-2 * rng.standard_normal((300, cone.n))


class TestLsqBranch:
    def test_normal_equations_match_dense_lstsq(self, spec2, spec3, spec4, rng):
        for spec in (spec2, spec3, spec4):
            cones = [c for c in enumerate_cones(spec) if c.connected]
            for _ in range(4):
                cone = cones[rng.integers(len(cones))]
                theta = rng.uniform(0.0, 2.0 * np.pi)
                r = rng.uniform(0.2, 1.0)
                rad = r * np.sqrt(rng.uniform(0.0, 1.0, 400))
                phi = rng.uniform(0.0, 2.0 * np.pi, 400)
                rel = np.column_stack([rad * np.cos(phi), rad * np.sin(phi)])
                b = random_branch_vector(cone, rng, scale=rng.uniform(0.01, 0.5))
                prof = ApproximateProfile2D(cone, zero_branch_vector(cone), b, theta)
                uvals = prof.eval(rel) + 1e-3 * rng.uniform(-1, 1, (len(rel), cone.n))
                resid = rng.standard_normal((len(rel), cone.n))
                for res in (None, resid):
                    got = analysis._lsq_branch(cone, theta, rel, uvals, resid=res)
                    ref = dense_lsq_branch(cone, theta, rel, uvals, resid=res)
                    scale = max(1.0, ref.norm())
                    assert np.abs(got.values - ref.values).max() <= 1e-9 * scale

    def test_one_sided_ball_gets_the_minimum_norm_answer(self, spec3, rng):
        # No points on the y2 < 0 side: those basis coefficients are free,
        # and both solvers must leave them at zero.
        cone = Cone1D(spec3, "RL")
        rel, uvals = one_sided_ball(cone, rng)
        got = analysis._lsq_branch(cone, 0.0, rel, uvals)
        ref = dense_lsq_branch(cone, 0.0, rel, uvals)
        assert np.abs(got.minus).max() <= 1e-12
        assert np.abs(got.values - ref.values).max() <= 1e-9 * max(1.0, ref.norm())


def linear_misfits(cone, rel, uvals):
    """Reference for analysis._coarse_misfits: at each coarse angle, rotate
    the ball, fit b with _lsq_branch and take the RMS misfit of the
    linearized profile cone(y2) + y1 y2 b_side(y2)."""
    out = []
    for theta in analysis._COARSE_THETAS:
        b = analysis._lsq_branch(cone, theta, rel, uvals)
        y1, y2 = _rotated_coords(rel, theta)
        b_side = np.where((y2 >= 0)[:, None], b.plus, b.minus)
        lin = cone.eval(y2) + (y1 * y2)[:, None] * b_side
        out.append(np.sqrt(np.mean((uvals - lin) ** 2)))
    return np.array(out)


class TestCoarseScan:
    @staticmethod
    def assert_scan_matches(cone, rel, uvals):
        ref = linear_misfits(cone, rel, uvals)
        got = analysis._coarse_misfits(cone, analysis._angular_moments(rel, uvals))
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-8 * ref.min()
        assert np.argmin(got) == np.argmin(ref)

    @staticmethod
    def profile_values(cone, rel, rng):
        b = random_branch_vector(cone, rng, scale=rng.uniform(0.01, 0.2))
        theta = rng.uniform(0.0, 2.0 * np.pi)
        prof = ApproximateProfile2D(cone, zero_branch_vector(cone), b, theta)
        return prof.eval(rel) + 1e-3 * rng.uniform(-1, 1, (len(rel), cone.n))

    def test_random_balls_match_per_angle_scan(self, spec2, spec3, spec4, rng):
        for spec in (spec2, spec3, spec4):
            for cone in [c for c in enumerate_cones(spec) if c.connected]:
                r = rng.uniform(0.2, 1.0)
                rad = r * np.sqrt(rng.uniform(0.0, 1.0, 400))
                phi = rng.uniform(0.0, 2.0 * np.pi, 400)
                rel = np.column_stack([rad * np.cos(phi), rad * np.sin(phi)])
                self.assert_scan_matches(cone, rel, self.profile_values(cone, rel, rng))

    def test_one_sided_ball(self, spec3, rng):
        # At theta = 0 the y2 < 0 side is empty, at theta = pi the other one.
        cone = Cone1D(spec3, "RL")
        self.assert_scan_matches(cone, *one_sided_ball(cone, rng))

    def test_grid_ball_with_nodes_on_window_edges(self, spec3, rng):
        # Centred on a node: nodes lie on the y2 = 0 lines at theta = k pi/4,
        # and the origin node is in the ball.
        grid = Grid.rectangle(-1, 1, -1, 1, 1 / 16)
        rel, sel = analysis.ball_nodes(grid, (0.0, 0.0), 0.7)
        rel = rel[sel]
        assert np.any(np.all(rel == 0.0, axis=1))
        for cone in [c for c in enumerate_cones(spec3) if c.connected]:
            self.assert_scan_matches(cone, rel, self.profile_values(cone, rel, rng))


class TestFitCone:
    def test_recovers_rotation(self, spec2):
        p0 = Cone1D(spec2, "L")
        theta = 0.3
        g = Grid.rectangle(-1, 1, -1, 1, 1 / 64)
        sol = field_solution(spec2, g, lambda p: p0.eval_2d(p, theta))
        fit = analysis.fit_cone(sol, (0, 0), 0.6, catalogue=[p0])
        assert fit.cone_id == "L"
        assert abs(fit.angle - theta) <= 2 * g.h
        assert fit.epsilon <= 4 * g.h**2

    def test_recovers_branch_vector(self, spec2, rng):
        p0 = Cone1D(spec2, "L")
        b_true = 0.05 * tau(p0) * (1.0 / tau(p0).norm())
        prof = ApproximateProfile2D(p0, zero_branch_vector(p0), b_true, 0.0)
        g = Grid.rectangle(-1, 1, -1, 1, 1 / 64)
        sol = field_solution(spec2, g, prof.eval)
        fit = analysis.fit_cone(sol, (0, 0), 0.6, catalogue=[p0])
        err = np.linalg.norm(fit.b.values - b_true.values)
        # Rotation can trade against b along the translation direction; the
        # recovered profile itself must match to fit accuracy.
        check = ApproximateProfile2D(p0, zero_branch_vector(p0), fit.b, fit.angle)
        pts = sol.grid.coords()[np.linalg.norm(sol.grid.coords(), axis=1) <= 0.6]
        assert np.abs(check.eval(pts) - prof.eval(pts)).max() <= 5e-3
        assert err <= 0.1 * b_true.norm() or fit.epsilon <= 1e-4

    def test_perturbation_stability(self, spec2, rng):
        p0 = Cone1D(spec2, "L")
        g = Grid.rectangle(-1, 1, -1, 1, 1 / 64)
        r = 0.6
        eps_in = 5e-4
        noise = eps_in * r * r * np.sin(7 * g.coords()[:, 0])[:, None] * np.array([1.0, -1.0])
        sol = field_solution(spec2, g, lambda p: p0.eval_2d(p, 0.2))
        sol_p = GridSolution2D(g, spec2, sol.u + noise, sol.boundary_values)
        fit = analysis.fit_cone(sol_p, (0, 0), r, catalogue=[p0])
        assert fit.epsilon <= eps_in + 4 * g.h**2

    def test_degenerate_input_engages_degenerate_entry(self, spec2):
        # Data: the trivial extension of the point-contact cone rotated by
        # theta; in group-quadratic terms the rotation sits in the harmonic
        # parts, alpha = -(q/2) cos 2t, beta = -(q/2) sin 2t.
        theta = 0.4
        dec = decompose_degenerate(Cone1D(spec2, "."))
        harm = [
            (-0.5 * qpp * np.cos(2 * theta), -0.5 * qpp * np.sin(2 * theta))
            for _, qpp, _ in dec.groups
        ]
        prof = build_degenerate_profile(dec, [theta, theta], harm)
        g = Grid.rectangle(-1, 1, -1, 1, 1 / 48)
        sol = field_solution(spec2, g, prof.eval)
        fit = analysis.fit_cone(sol, (0, 0), 0.6)
        assert fit.degenerate
        assert fit.cone_id == "."
        assert fit.epsilon <= 1e-6
        assert min(abs(fit.angle - theta) % np.pi, np.pi - abs(fit.angle - theta) % np.pi) <= 1e-3
        # Connected entries alone fit poorly.
        connected = [c for c in enumerate_cones(spec2) if c.connected]
        fit_conn = analysis.fit_cone(sol, (0, 0), 0.6, catalogue=connected)
        assert fit_conn.epsilon > 1e3 * max(fit.epsilon, 1e-9)

    def test_extract_refit_round_trip(self, spec2):
        p0 = Cone1D(spec2, "L")
        theta = 0.25
        g = Grid.rectangle(-1, 1, -1, 1, 1 / 64)
        sol = field_solution(spec2, g, lambda p: p0.eval_2d(p, theta))
        fit = analysis.fit_cone(sol, (0, 0), 0.6, catalogue=[p0])
        fb = analysis.extract_free_boundary(sol, 1)
        # The fitted profile's free boundary is the line at angle fit.angle.
        nu = np.array([-np.sin(fit.angle), np.cos(fit.angle)])
        dist = np.abs(fb.vertices @ nu)
        inside = np.linalg.norm(fb.vertices, axis=1) <= 0.6
        assert dist[inside].max() <= np.sqrt(fit.epsilon) + np.sqrt(fb.tolerance) + 2 * g.h

    @staticmethod
    def profile_n3(spec3_unit, theta=2.0):
        """An all-'L' N=3 profile rotated by theta, with a branch vector
        orthogonal to the translation direction, on h=1/32."""
        cone = Cone1D(spec3_unit, "LL")
        t_hat = tau(cone).values / tau(cone).norm()
        basis = branch_space_basis(cone)
        b = (basis - np.outer(t_hat, t_hat @ basis)) @ np.array([0.7, -0.4])
        b = BranchVector(cone, 0.05 * b / np.linalg.norm(b))
        prof = ApproximateProfile2D(cone, zero_branch_vector(cone), b, theta)
        return field_solution(spec3_unit, Grid.rectangle(-1, 1, -1, 1, 1 / 32), prof.eval)

    def test_exact_profile_evaluation_budget(self, spec3_unit, monkeypatch):
        # The coarse angle scan runs on the linearized profile; only the
        # re-scored winner, the golden-section steps and the polish evaluate
        # the exact one.  A scan on the exact profile made 180 calls here.
        from membranes import exact1d

        calls = []
        counted = lambda cone, b: calls.append(b) or solution_for(cone, b)
        monkeypatch.setattr(exact1d, "solution_for", counted)
        sol = self.profile_n3(spec3_unit)
        # The coarse misfits are in hand when the angle search starts.
        calls_for_field = len(calls)
        calls_before_search = []
        angle_search = analysis._angle_search
        spied = lambda *args: calls_before_search.append(len(calls)) or angle_search(*args)
        monkeypatch.setattr(analysis, "_angle_search", spied)
        fit = analysis.fit_cone(sol, (0, 0), 0.6, catalogue=[Cone1D(spec3_unit, "LL")])
        assert abs(fit.angle - 2.0) <= 2e-3
        assert calls_before_search == [calls_for_field]
        assert 0 < len(calls) <= 180 // 3

    def test_empty_catalogue(self, spec3_unit):
        sol = self.profile_n3(spec3_unit)
        with pytest.raises(InsufficientData, match="empty cone catalogue"):
            analysis.fit_cone(sol, (0, 0), 0.6, catalogue=[])

    @pytest.mark.parametrize("radius", [0.0, -0.3, np.nan, np.inf])
    def test_bad_radius(self, spec3_unit, radius):
        sol = self.profile_n3(spec3_unit)
        with pytest.raises(InvalidInput, match="radius"):
            analysis.fit_cone(sol, (0, 0), radius)

    def test_ball_past_the_grid(self, spec3_unit):
        # Not fitted on the part of the ball that lies inside the grid.
        sol = self.profile_n3(spec3_unit)
        with pytest.raises(BallOutsideDomain, match="stored domain"):
            analysis.fit_cone(sol, (0, 0), 50.0)

    def test_catalogue_of_another_n(self, spec2, spec3_unit):
        sol = self.profile_n3(spec3_unit)
        with pytest.raises(InvalidInput, match="N=2"):
            analysis.fit_cone(sol, (0, 0), 0.6, catalogue=[Cone1D(spec2, "L")])

    def test_one_fit_per_mirror_pair(self, spec3_unit, monkeypatch):
        fitted = []
        fit_connected = analysis._fit_connected
        counted = lambda cone, *args: fitted.append(cone.id) or fit_connected(cone, *args)
        monkeypatch.setattr(analysis, "_fit_connected", counted)
        sol = self.profile_n3(spec3_unit)
        ll, rr = Cone1D(spec3_unit, "LL"), Cone1D(spec3_unit, "RR")
        assert analysis.fit_cone(sol, (0, 0), 0.6, catalogue=[rr, ll]).cone_id == "RR"
        assert fitted == ["RR"]
        assert analysis.fit_cone(sol, (0, 0), 0.6, catalogue=[ll, rr]).cone_id == "LL"

    def test_mirror_fits_agree(self, spec3_unit):
        sol = self.profile_n3(spec3_unit)
        fit_l = analysis.fit_cone(sol, (0, 0), 0.6, catalogue=[Cone1D(spec3_unit, "LL")])
        fit_r = analysis.fit_cone(sol, (0, 0), 0.6, catalogue=[Cone1D(spec3_unit, "RR")])
        assert fit_l.epsilon == pytest.approx(fit_r.epsilon, rel=1e-9)
        turn = np.angle(np.exp(1j * (fit_r.angle - fit_l.angle - np.pi)))
        assert abs(turn) <= 1e-8


class TestRegularPointProbe:
    def test_exact_p0(self, spec2):
        p0 = Cone1D(spec2, "L")
        g = Grid.rectangle(-1, 1, -1, 1, 1 / 64)
        sol = field_solution(spec2, g, p0.eval_2d)
        report = analysis.regular_point_probe(sol, (0, 0), radius=0.5)
        assert report.fit.epsilon <= 1e-8
        for rows in report.oscillations.values():
            for _, osc, _ in rows:
                assert osc <= 0.1

    def test_tilted_common_tangent(self, spec3_unit):
        p0 = Cone1D(spec3_unit, "LL")
        s = 0.15
        prof = ApproximateProfile2D(p0, zero_branch_vector(p0), s * tau(p0))
        g = Grid.rectangle(-1, 1, -1, 1, 1 / 64)
        sol = field_solution(spec3_unit, g, prof.eval)
        report = analysis.regular_point_probe(sol, (0, 0), radius=0.5)
        expected = np.mod(np.arctan(-s), np.pi)
        for k, angle in report.tangent_angles.items():
            delta = abs(angle - expected)
            assert min(delta, np.pi - delta) <= 0.05, k

    @pytest.mark.parametrize("radius", [0.0, np.nan])
    def test_bad_radius(self, spec2, radius):
        g = Grid.rectangle(-1, 1, -1, 1, 1 / 8)
        sol = field_solution(spec2, g, Cone1D(spec2, "L").eval_2d)
        with pytest.raises(InvalidInput, match="radius"):
            analysis.regular_point_probe(sol, (0, 0), radius=radius)

    def test_degenerate_not_regular(self, spec2):
        dec = decompose_degenerate(Cone1D(spec2, "."))
        prof = build_degenerate_profile(dec, [0.0, 0.0], [(0.0, 0.0), (0.0, 0.0)])
        g = Grid.rectangle(-1, 1, -1, 1, 1 / 48)
        sol = field_solution(spec2, g, prof.eval)
        with pytest.raises(NotRegular):
            analysis.regular_point_probe(sol, (0, 0), radius=0.5)


class TestRateFit:
    def test_log_model_exact(self):
        rs = np.geomspace(1e-4, 0.5, 9)
        rf = analysis.rate_fit(list(zip(rs, 1.0 / (-np.log(rs)))))
        assert rf.preferred == "log"
        assert rf.log_residual <= 1e-12

    def test_power_model(self):
        rs = np.geomspace(1e-4, 0.5, 9)
        rf = analysis.rate_fit(list(zip(rs, rs**0.5)))
        assert rf.preferred == "power"
        assert rf.power_alpha == pytest.approx(0.5, abs=1e-12)
        assert rf.power_residual <= 1e-12

    def test_insufficient(self):
        with pytest.raises(InsufficientData):
            analysis.rate_fit([(0.1, 1.0), (0.2, 2.0), (0.3, 3.0), (0.4, 4.0)])
        with pytest.raises(InsufficientData):
            analysis.rate_fit([(r, r) for r in np.linspace(0.1, 0.5, 6)])

    @pytest.mark.parametrize(
        "column, value", [(1, np.nan), (0, np.nan), (1, np.inf)],
        ids=["nan-epsilon", "nan-radius", "inf-epsilon"],
    )
    def test_non_finite(self, column, value):
        series = [[r, r**0.5] for r in np.geomspace(1e-4, 0.5, 9)]
        series[3][column] = value
        with pytest.raises(NonFiniteData):
            analysis.rate_fit(series)

    @pytest.mark.parametrize(
        "entry", [(0.1, 0.2, 0.3), (0.1,), 0.1, ("r", 0.2)],
        ids=["triple", "single", "number", "text"],
    )
    def test_entry_not_a_pair(self, entry):
        series = [(r, r**0.5) for r in np.geomspace(1e-4, 0.5, 8)] + [entry]
        with pytest.raises(InvalidInput):
            analysis.rate_fit(series)

    def test_extreme_radii_do_not_overflow(self):
        # max / min overflows here; the span is compared in log space.
        radii = [1e-300, 1e-200, 1e-100, 1.0, 1e308]
        rf = analysis.rate_fit(list(zip(radii, [1.0, 2.0, 3.0, 4.0, 5.0])))
        assert rf.preferred == "power"
        assert np.isnan(rf.log_constant)

    def test_csv_json(self, tmp_path):
        rs = np.geomspace(1e-4, 0.5, 9)
        rf = analysis.rate_fit(list(zip(rs, 1.0 / (-np.log(rs)))))
        rf.to_csv(tmp_path / "rate.csv")
        assert (tmp_path / "rate.csv").read_text().startswith("r,epsilon\n")
        assert "preferred" in rf.as_dict()

import itertools
import json

import numpy as np
import pytest

from membranes import exact1d, solver2d
from membranes.cones1d import Cone1D, decompose_degenerate, enumerate_cones
from membranes.errors import (
    NotConnected,
    OrderingViolation,
    TwoRayViolation,
    ZeroVector,
)
from membranes.exact1d import (
    ApproximateProfile2D,
    BranchVector,
    PiecewiseQuadratic1D,
    asymmetry,
    b_to_gamma,
    branch_space_basis,
    build_degenerate_profile,
    error_function,
    gamma_to_solution,
    random_branch_vector,
    solution_for,
    solution_to_b,
    tau,
    zero_branch_vector,
)
from membranes.problem import ProblemSpec, normalize

XS = np.linspace(-5.0, 5.0, 401)
SPEC5 = normalize(ProblemSpec(5, (1.0, 0.6, 1.4, 0.9, 1.2), (2.5, 1.0, 0.2, -0.7, -3.0)))


def connected_cones(spec):
    return [c for c in enumerate_cones(spec) if c.connected]


class TestBranchSpace:
    def test_tau_p0(self, spec2):
        t = tau(Cone1D(spec2, "L"))
        assert np.allclose(t.values, [0, 0, 1, -1])

    def test_tau_mirror(self, spec2):
        t = tau(Cone1D(spec2, "R"))
        assert np.allclose(t.values, [1, -1, 0, 0])

    def test_tau_membership(self, spec4):
        for cone in connected_cones(spec4):
            assert tau(cone).is_member()

    def test_tau_not_connected(self, spec2):
        with pytest.raises(NotConnected):
            tau(Cone1D(spec2, "."))

    def test_free_dimension(self, spec4):
        for cone in connected_cones(spec4):
            basis = branch_space_basis(cone)
            assert basis.shape == (8, 3)
            assert np.linalg.matrix_rank(basis) == spec4.n_membranes - 1

    def test_random_vectors_are_members(self, spec3, rng):
        for cone in connected_cones(spec3):
            for _ in range(10):
                assert random_branch_vector(cone, rng, 2.0).is_member()


class TestGammaToSolution:
    def test_zero_gamma_is_cone(self, spec3):
        for cone in connected_cones(spec3):
            sol = gamma_to_solution(cone, np.zeros(2))
            assert np.abs(sol.eval(XS) - cone.eval(XS)).max() <= 1e-14

    def test_p0_shift(self, spec2):
        cone = Cone1D(spec2, "L")
        for s in (-1.3, 0.7, 2.0):
            sol = gamma_to_solution(cone, np.array([-s]))
            assert np.abs(sol.eval(XS) - cone.eval(XS + s)).max() <= 1e-12

    def test_against_grid_solver_oracle(self, spec3):
        # Independent check: projected Gauss-Seidel 1D solve with the
        # constructed solution's own trace as Dirichlet data.
        cone = Cone1D(spec3, "RR")
        sol = gamma_to_solution(cone, np.array([0.3, -0.2]))
        h = 1 / 64
        grid = solver2d.Grid.interval(-1, 1, h)
        num = solver2d.solve(spec3, grid, lambda p: sol.eval(p[:, 0]), tol=0.0, max_sweeps=60000)
        itr = grid.indexing()[0]
        err = np.abs(num.u[itr] - sol.eval(grid.coords()[itr, 0])).max()
        assert err <= 10 * h * h

    def test_any_gamma_admissible(self, spec4, rng):
        for cone in connected_cones(spec4)[:4]:
            for _ in range(5):
                g = rng.uniform(-3, 3, 3)
                sol = gamma_to_solution(cone, g)
                assert sol.validate() == []

    def test_ties_merge_breakpoints(self, spec3):
        cone = Cone1D(spec3, "RL")
        sol = gamma_to_solution(cone, np.array([0.5, 0.5]))
        assert len(sol.breakpoints) == 1
        assert sol.validate() == []


class TestSolutionToB:
    def test_zero(self, spec3):
        cone = Cone1D(spec3, "LR")
        b = solution_to_b(gamma_to_solution(cone, np.zeros(2)))
        assert np.abs(b.values).max() <= 1e-14

    def test_shift_reads_s_tau(self, spec2):
        cone = Cone1D(spec2, "L")
        s = 0.8
        b = solution_to_b(gamma_to_solution(cone, np.array([-s])))
        assert np.abs(b.values - s * tau(cone).values).max() <= 1e-12

    def test_round_trip(self, spec4, rng):
        for cone in connected_cones(spec4):
            for _ in range(20):
                b = random_branch_vector(cone, rng, scale=rng.uniform(0.05, 4.0))
                gam = b_to_gamma(cone, b)
                b2 = solution_to_b(gamma_to_solution(cone, gam))
                assert np.abs(b2.values - b.values).max() <= 1e-10


class TestBToGamma:
    def test_zero(self, spec3):
        for cone in connected_cones(spec3):
            assert np.abs(b_to_gamma(cone, zero_branch_vector(cone))).max() <= 1e-12

    def test_s_tau_gives_constant(self, spec3):
        for cone in connected_cones(spec3):
            for s in (-0.9, 1.7):
                gam = b_to_gamma(cone, s * tau(cone))
                assert np.abs(gam + s).max() <= 1e-10

    def test_continuation_after_natural_first_pass_failures(self):
        # b's on which region iteration from the identity order cycles
        # without passing the round trip; the continuation must invert them.
        for pattern, seed in (("LRLL", 10), ("LRLL", 26), ("LRRL", 13)):
            cone = Cone1D(SPEC5, pattern)
            b = random_branch_vector(cone, np.random.default_rng(seed), 1.0)
            assert exact1d._iterate_regions(cone, tuple(range(4)), b.values, 1e-10) is None
            b2 = solution_to_b(solution_for(cone, b))
            assert np.abs(b2.values - b.values).max() <= 1e-10

    def test_continuation_matches_direct_pass(self, spec3, spec4, rng, monkeypatch):
        # Uniqueness: with the first region iteration forced to fail, the
        # continuation returns the same function as the direct pass.
        real = exact1d._iterate_regions
        for spec in (spec3, spec4, SPEC5):
            for cone in connected_cones(spec)[:4]:
                b = random_branch_vector(cone, rng, scale=rng.uniform(0.05, 3.0))
                direct = solution_for(cone, b).eval(XS)
                calls = []

                def first_fails(*args):
                    calls.append(args)
                    return None if len(calls) == 1 else real(*args)

                monkeypatch.setattr(exact1d, "_iterate_regions", first_fails)
                forced = solution_for(cone, b).eval(XS)
                monkeypatch.setattr(exact1d, "_iterate_regions", real)
                assert len(calls) > 1
                assert np.abs(forced - direct).max() <= 1e-10

    def test_solution_for_is_the_checked_solution(self, spec4, rng):
        for cone in connected_cones(spec4):
            b = random_branch_vector(cone, rng, scale=rng.uniform(0.05, 3.0))
            sol = solution_for(cone, b)
            gam = b_to_gamma(cone, b)
            assert sol.gamma.tobytes() == gam.tobytes()
            assert sol.coeffs.tobytes() == gamma_to_solution(cone, gam).coeffs.tobytes()

    def test_single_build_when_iteration_succeeds_at_once(self, spec3, monkeypatch):
        cone = Cone1D(spec3, "RL")
        # b of an increasing gamma: the identity region holds at once.
        b = solution_to_b(gamma_to_solution(cone, np.array([-0.4, 0.3])))
        solution_for(cone, b)  # builds the identity region's matrices once
        builds = []

        def counted(*args):
            builds.append(args)
            return gamma_to_solution(*args)

        monkeypatch.setattr(exact1d, "gamma_to_solution", counted)
        solution_for(cone, b)
        assert len(builds) == 1


class TestHEval:
    def test_h_at_zero_b(self, spec3):
        for cone in connected_cones(spec3):
            h0 = solution_for(cone, zero_branch_vector(cone)).eval(XS)
            assert np.abs(h0 - cone.eval(XS)).max() <= 1e-14

    def test_shift_identity_exact(self, spec4):
        for cone in connected_cones(spec4):
            t = tau(cone)
            for s in (0.7,):
                got = solution_for(cone, s * t).eval(XS)
                assert np.abs(got - cone.eval(XS + s)).max() <= 1e-12

    def test_linear_asymptote_quadratic_error(self, spec3, rng):
        # |h_i - (p_i + b_i x)| <= C |b|^2 uniformly.
        for cone in connected_cones(spec3):
            for _ in range(10):
                b = random_branch_vector(cone, rng, scale=rng.uniform(0.05, 2.0))
                sol = solution_for(cone, b)
                lin = cone.eval(XS) + np.where(XS[:, None] >= 0, b.plus, b.minus) * XS[:, None]
                dev = np.abs(sol.eval(XS) - lin).max()
                assert dev <= 100.0 * b.norm() ** 2

    def test_homogeneity(self, spec3, rng):
        cone = Cone1D(spec3, "RL")
        b = random_branch_vector(cone, rng, 0.9)
        for lam in (0.5, 2.0, 3.0):
            lhs = solution_for(cone, lam * b).eval(lam * XS)
            rhs = lam**2 * solution_for(cone, b).eval(XS)
            assert np.abs(lhs - rhs).max() <= 1e-10

    def test_lipschitz_in_b(self, spec3, rng):
        # C^{1,1} dependence: |h(., b+d) - h(., b)| <= C |d| with stable C.
        cone = Cone1D(spec3, "LR")
        b = random_branch_vector(cone, rng, 1.0)
        direction = random_branch_vector(cone, rng, 1.0)
        xs = np.linspace(-4, 4, 161)
        base = solution_for(cone, b).eval(xs)
        ratios = []
        for t in (1e-1, 1e-2, 1e-3):
            d = t * direction
            ratios.append(np.abs(solution_for(cone, b + d).eval(xs) - base).max() / t)
        assert max(ratios) <= 50.0
        assert max(ratios) <= 3.0 * min(ratios) + 1e-9

    def test_first_order_expansion_in_b(self, spec3, rng):
        # |h(x, b+d) - (h(x, b) + x d)| <= C |d| (|b| + |d|) over samples.
        cone = Cone1D(spec3, "RR")
        xs = np.linspace(-3, 3, 121)
        for _ in range(5):
            b = random_branch_vector(cone, rng, scale=rng.uniform(0.1, 1.0))
            d = random_branch_vector(cone, rng, scale=rng.uniform(0.01, 0.3))
            lhs = solution_for(cone, b + d).eval(xs)
            rhs = solution_for(cone, b).eval(xs)
            rhs = rhs + np.where(xs[:, None] >= 0, d.plus, d.minus) * xs[:, None]
            bound = 50.0 * d.norm() * (b.norm() + d.norm())
            assert np.abs(lhs - rhs).max() <= bound


class TestErrorFunction:
    def test_zero(self, spec3):
        cone = Cone1D(spec3, "LL")
        assert np.abs(error_function(cone, zero_branch_vector(cone)).values).max() <= 1e-14

    def test_homogeneous_degree_two(self, spec4, rng):
        for cone in connected_cones(spec4)[:4]:
            b = random_branch_vector(cone, rng, 0.8)
            e1 = error_function(cone, b).values
            e2 = error_function(cone, 2.0 * b).values
            assert np.abs(e2 - 4.0 * e1).max() <= 1e-10

    def test_p0_translation_error(self, spec2):
        cone = Cone1D(spec2, "L")
        e = error_function(cone, tau(cone))
        assert np.allclose(e.values, [0, 0, 0.5, -0.5], atol=1e-12)

    def test_error_lives_in_branch_space(self, spec3, rng):
        cone = Cone1D(spec3, "RL")
        b = random_branch_vector(cone, rng, 1.1)
        assert error_function(cone, b).is_member()

    @pytest.mark.parametrize("pattern", ["RLR", "LLRR"[:3], "RL"])
    def test_quadratic_form_per_region(self, spec3, spec4, rng, pattern):
        # On every fixed breakpoint order, e is an exact quadratic form in b.
        spec = spec4 if len(pattern) == 3 else spec3
        cone = Cone1D(spec, pattern)
        basis = branch_space_basis(cone)
        d = cone.n - 1
        for order in itertools.permutations(range(d)):
            samples = []
            for _ in range(12):
                vals = np.sort(rng.uniform(-1.5, 1.5, d))
                gam = np.empty(d)
                gam[list(order)] = vals
                b = solution_to_b(gamma_to_solution(cone, gam))
                c = np.linalg.lstsq(basis, b.values, rcond=None)[0]
                e = error_function(cone, b).values
                samples.append((c, e))
            # Fit e_component = c^T A c by least squares on monomials c_i c_j.
            feats = np.asarray(
                [[c[i] * c[j] for i in range(d) for j in range(i, d)] for c, _ in samples]
            )
            targets = np.asarray([e for _, e in samples])
            coef, *_ = np.linalg.lstsq(feats, targets, rcond=None)
            resid = np.abs(feats @ coef - targets).max()
            assert resid <= 1e-9, (pattern, order, resid)


class TestAsymmetry:
    def test_zero_on_tau_line(self, spec4):
        for cone in connected_cones(spec4)[:4]:
            assert asymmetry(cone, 1.3 * tau(cone)) <= 1e-10

    def test_scale_invariant(self, spec3, rng):
        cone = Cone1D(spec3, "RL")
        b = random_branch_vector(cone, rng, 0.7)
        assert asymmetry(cone, 2.0 * b) == pytest.approx(asymmetry(cone, b), abs=1e-10)

    def test_positive_off_line(self, spec3, rng):
        t_hat = {}
        for cone in connected_cones(spec3):
            t = tau(cone)
            for _ in range(20):
                b = random_branch_vector(cone, rng, 1.0)
                dist = min(
                    np.linalg.norm(b.values / b.norm() - s * t.values / t.norm())
                    for s in (1.0, -1.0)
                )
                if dist > 1e-3:
                    assert asymmetry(cone, b) > 0.0

    def test_zero_vector(self, spec3):
        cone = Cone1D(spec3, "LL")
        with pytest.raises(ZeroVector):
            asymmetry(cone, zero_branch_vector(cone))


class TestProfile2D:
    def test_zero_profile_is_cone(self, spec3, rng):
        cone = Cone1D(spec3, "RL")
        prof = ApproximateProfile2D(cone, zero_branch_vector(cone), zero_branch_vector(cone))
        pts = rng.uniform(-2, 2, (50, 2))
        assert np.abs(prof.eval(pts) - cone.eval(pts[:, 1])).max() <= 1e-14

    def test_tau_profile_is_tilted_cone(self, spec2, rng):
        cone = Cone1D(spec2, "L")
        s = 0.45
        prof = ApproximateProfile2D(cone, zero_branch_vector(cone), s * tau(cone))
        pts = rng.uniform(-1.5, 1.5, (200, 2))
        exact = cone.eval(pts[:, 1] + s * pts[:, 0])
        assert np.abs(prof.eval(pts) - exact).max() <= 1e-12

    def test_rotation(self, spec2, rng):
        cone = Cone1D(spec2, "L")
        theta = 0.6
        prof = ApproximateProfile2D(cone, zero_branch_vector(cone), zero_branch_vector(cone), theta)
        pts = rng.uniform(-1, 1, (50, 2))
        nu = np.array([-np.sin(theta), np.cos(theta)])
        assert np.abs(prof.eval(pts) - cone.eval(pts @ nu)).max() <= 1e-13

    def test_general_b0_b1_matches_definition(self, spec3, rng):
        cone = Cone1D(spec3, "LR")
        b0 = random_branch_vector(cone, rng, 0.2)
        b1 = random_branch_vector(cone, rng, 0.3)
        prof = ApproximateProfile2D(cone, b0, b1)
        pts = rng.uniform(-1, 1, (20, 2))
        expected = np.array(
            [
                solution_for(cone, BranchVector(cone, b0.values + x1 * b1.values)).eval(x2)
                for x1, x2 in pts
            ]
        )
        assert np.abs(prof.eval(pts) - expected).max() <= 1e-12

    def test_laplacian_residual_small_off_strip(self, spec3, rng):
        # Finite-difference oracle on a fine local mesh: away from the free
        # boundary strip, |Lap v_I - f_I| = 2 |e_I| <= C |b|^2.
        cone = Cone1D(spec3, "RL")
        b = random_branch_vector(cone, rng, 0.08)
        prof = ApproximateProfile2D(cone, zero_branch_vector(cone), b)
        e_plus = error_function(cone, b).values
        delta = 1e-4
        for x0 in (np.array([0.5, 0.7]), np.array([0.4, -0.8])):
            offsets = np.array(
                [[0, 0], [delta, 0], [-delta, 0], [0, delta], [0, -delta]]
            )
            vals = prof.eval(x0 + offsets)
            lap = (vals[1:].sum(axis=0) - 4 * vals[0]) / delta**2
            side = slice(3, None) if x0[1] > 0 else slice(0, 3)
            groups = cone.right_groups() if x0[1] > 0 else cone.left_groups()
            e_side = e_plus[side.start or 0 :] if x0[1] > 0 else error_function(cone, b).minus
            for grp in groups:
                idx = grp.indices()
                w = spec3.w[idx]
                f_i = w @ spec3.f[idx] / w.sum()
                lap_i = w @ lap[idx] / w.sum()
                resid = abs(lap_i - f_i)
                assert resid <= 100.0 * b.norm() ** 2
                pred = 2.0 * (w @ e_side[idx] / w.sum())
                assert resid == pytest.approx(abs(pred), abs=1e-4)


class TestPiecewiseQuadratic:
    def test_validate_and_c11(self, spec4, rng):
        cone = connected_cones(spec4)[3]
        b = random_branch_vector(cone, rng, 1.0)
        sol = solution_for(cone, b)
        assert sol.validate(tol=1e-10) == []

    def test_json_round_trip(self, spec3, rng):
        cone = Cone1D(spec3, "RR")
        sol = solution_for(cone, random_branch_vector(cone, rng, 0.8))
        text = sol.to_json()
        obj = json.loads(text)
        assert "breakpoints" in obj and "coefficients" in obj
        back = PiecewiseQuadratic1D.from_json(text, cone=cone)
        assert np.abs(back.eval(XS) - sol.eval(XS)).max() <= 1e-15


class TestDegenerateProfile:
    def test_connected_is_rotated_cone(self, spec3, rng):
        cone = Cone1D(spec3, "RL")
        dec = decompose_degenerate(cone)
        prof = build_degenerate_profile(dec, [0.4], [(0.0, 0.0)])
        pts = rng.uniform(-1, 1, (60, 2))
        assert np.abs(prof.eval(pts) - cone.eval_2d(pts, 0.4)).max() <= 1e-12

    def test_point_coincidence_valid(self, spec2):
        dec = decompose_degenerate(Cone1D(spec2, "."))
        prof = build_degenerate_profile(dec, [0.0, 0.0], [(0.0, 0.0), (0.0, 0.0)])
        assert prof.rays[1] == ()
        pts = np.array([[0.3, 0.4], [-0.5, 0.1]])
        vals = prof.eval(pts)
        # q1 - q2 = |x|^2 / 2 off the origin.
        assert np.allclose(vals[:, 0] - vals[:, 1], 0.5 * (pts**2).sum(axis=1))

    def test_line_coincidence_two_rays(self, spec2):
        dec = decompose_degenerate(Cone1D(spec2, "."))
        prof = build_degenerate_profile(dec, [0.0, 0.0], [(-0.5, 0.0), (0.5, 0.0)])
        rays = prof.rays[1]
        assert len(rays) == 2
        sep = abs(rays[0] - rays[1])
        assert min(sep, 2 * np.pi - sep) == pytest.approx(np.pi, abs=1e-2)

    def test_ordering_violation(self, spec2):
        dec = decompose_degenerate(Cone1D(spec2, "."))
        with pytest.raises(OrderingViolation) as err:
            build_degenerate_profile(dec, [0.0, 0.0], [(-0.7, 0.0), (0.7, 0.0)])
        assert err.value.angle is not None

    def test_crossing_groups_rejected(self):
        spec = normalize(ProblemSpec(3, (1.0, 1.0, 1.0), (1.0, 0.6, -1.6)))
        dec = decompose_degenerate(Cone1D(spec, "R."))
        with pytest.raises(OrderingViolation):
            # Strong opposing harmonic parts push the groups through each other.
            build_degenerate_profile(dec, [0.0, 0.0], [(-0.75, 0.0), (0.75, 0.0)])

    def test_at_most_two_obtuse_rays_whenever_ordered(self, rng):
        # The ray-count property in numerical form: every assembly that
        # passes the ordering check also passes the ray count/separation
        # check, so valid builds never fail on rays.  Scan random assemblies of a mixed
        # degenerate cone; count both outcomes.
        spec = normalize(ProblemSpec(3, (1.0, 1.0, 1.0), (1.0, 0.6, -1.6)))
        dec = decompose_degenerate(Cone1D(spec, "R."))
        built = 0
        rejected = 0
        for _ in range(120):
            angles = rng.uniform(0, 2 * np.pi, 2)
            harm = rng.uniform(-0.5, 0.5, (2, 2))
            try:
                prof = build_degenerate_profile(dec, angles, harm)
            except OrderingViolation:
                rejected += 1
                continue
            except TwoRayViolation as exc:  # ordering should imply the ray property
                raise AssertionError(f"ordered assembly failed the ray check: {exc}")
            built += 1
            rays = prof.rays[2]
            assert len(rays) <= 2
            if len(rays) == 2:
                sep = abs(rays[0] - rays[1])
                assert min(sep, 2 * np.pi - sep) > np.pi / 2
        assert built > 0 and rejected > 0

    def test_cluster_detector(self):
        from membranes.exact1d import _circular_clusters

        mask = np.array([1, 1, 0, 0, 1, 0, 0, 1], dtype=bool)
        clusters = _circular_clusters(mask)
        assert len(clusters) == 2  # wrap-around run merges with the first
        assert sorted(map(len, clusters)) == [1, 3]
        assert _circular_clusters(np.zeros(5, dtype=bool)) == []
        assert len(_circular_clusters(np.ones(5, dtype=bool))) == 1

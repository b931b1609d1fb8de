import numpy as np
import pytest

from membranes import analysis
from membranes.cones1d import Cone1D, decompose_degenerate, enumerate_cones
from membranes.errors import NotConnected
from membranes.exact1d import branch_space_basis
from membranes.problem import ProblemSpec, normalize


class TestEnumeration:
    @pytest.mark.parametrize("n,total,connected", [(1, 1, 1), (2, 3, 2), (3, 9, 4)])
    def test_counts_small(self, n, total, connected):
        spec = normalize(ProblemSpec(n, tuple([1.0] * n), tuple(float(-k) for k in range(n))))
        cones = enumerate_cones(spec)
        assert len(cones) == total
        assert sum(c.connected for c in cones) == connected

    def test_counts_to_eight(self):
        for n in range(1, 9):
            spec = normalize(
                ProblemSpec(n, tuple([1.0] * n), tuple(float(n - 2 * k) for k in range(n)))
            )
            cones = enumerate_cones(spec)
            assert len(cones) == 3 ** (n - 1)
            assert sum(c.connected for c in cones) == 2 ** (n - 1)
            assert len({c.pattern for c in cones}) == len(cones)

    def test_n1_trivial(self):
        spec = ProblemSpec(1, (2.0,), (0.0,))
        (cone,) = enumerate_cones(spec)
        assert cone.pattern == ""
        assert cone.connected


class TestCoefficients:
    def test_p0(self, spec2):
        cone = Cone1D(spec2, "L")
        am, ap = cone.a_minus, cone.a_plus
        assert np.allclose(ap, [0.5, -0.5])
        assert np.allclose(am, [0.0, 0.0])

    def test_fully_separated(self, spec2):
        cone = Cone1D(spec2, ".")
        am, ap = cone.a_minus, cone.a_plus
        assert np.allclose(ap, [0.5, -0.5])
        assert np.allclose(am, [0.5, -0.5])

    def test_n3_mixed_pattern(self):
        spec = normalize(ProblemSpec(3, (1, 1, 1), (1, 0, -1)))
        cone = Cone1D(spec, "RL")
        am, ap = cone.a_minus, cone.a_plus
        assert np.allclose(ap, [0.25, 0.25, -0.5])
        assert np.allclose(am, [0.5, -0.25, -0.25])
        # Ordering and zero weighted mean by direct evaluation.
        xs = np.linspace(-2, 2, 41)
        vals = cone.eval(xs)
        assert np.all(np.diff(vals, axis=-1) <= 1e-12)
        assert np.abs(vals @ spec.w).max() <= 1e-12

    def test_all_cones_ordered_zero_mean_laplacian(self, spec4):
        xs = np.array([-1.7, -0.4, 0.3, 2.2])
        for cone in enumerate_cones(spec4):
            vals = cone.eval(xs)
            assert np.all(np.diff(vals, axis=-1) <= 1e-12)
            assert np.abs(vals @ spec4.w).max() <= 1e-12
            # Piecewise Laplacian equals the group force of the active side.
            for side, a in (("L", cone.a_minus), ("R", cone.a_plus)):
                groups = cone.left_groups() if side == "L" else cone.right_groups()
                for grp in groups:
                    idx = grp.indices()
                    f_i = spec4.w[idx] @ spec4.f[idx] / spec4.w[idx].sum()
                    assert np.abs(2.0 * a[idx] - f_i).max() <= 1e-12


class TestBranchLayout:
    def test_p0_n2(self, spec2):
        cone = Cone1D(spec2, "L")
        assert [(g.lo, g.hi) for g in cone.left_groups()] == [(1, 2)]
        assert [(g.lo, g.hi) for g in cone.right_groups()] == [(1, 1), (2, 2)]

    def test_n3_rl(self, spec3):
        cone = Cone1D(spec3, "RL")
        assert [(g.lo, g.hi) for g in cone.left_groups()] == [(1, 1), (2, 3)]
        assert [(g.lo, g.hi) for g in cone.right_groups()] == [(1, 2), (3, 3)]

    def test_n1(self):
        cone = Cone1D(ProblemSpec(1, (1.0,), (0.0,)), "")
        assert len(cone.left_groups()) + len(cone.right_groups()) == 2

    def test_connected_count_is_n_plus_1(self, spec4):
        for cone in enumerate_cones(spec4):
            if cone.connected:
                branches = len(cone.left_groups()) + len(cone.right_groups())
                assert branches == spec4.n_membranes + 1

    def test_not_connected(self, spec2):
        with pytest.raises(NotConnected):
            branch_space_basis(Cone1D(spec2, "."))


class TestDecomposition:
    def test_n2_point_only(self, spec2):
        dec = decompose_degenerate(Cone1D(spec2, "."))
        assert dec.cut_indices == (1,)
        assert [(g.lo, g.hi) for g, _, _ in dec.groups] == [(1, 1), (2, 2)]
        assert [qpp for _, qpp, _ in dec.groups] == [1.0, -1.0]

    def test_n3_cut_at_two(self):
        spec = normalize(ProblemSpec(3, (1, 1, 1), (1, 0, -1)))
        dec = decompose_degenerate(Cone1D(spec, "R."))
        assert dec.cut_indices == (2,)
        (g1, q1, sub1), (g2, q2, sub2) = dec.groups
        assert (g1.lo, g1.hi) == (1, 2) and sub1.pattern == "R"
        assert (g2.lo, g2.hi) == (3, 3) and sub2.pattern == ""
        assert q1 == pytest.approx(0.5)
        assert q2 == pytest.approx(-1.0)
        # Sub-problems are re-centered.
        assert abs(sub1.spec.w @ sub1.spec.f) <= 1e-12

    def test_connected_trivial(self, spec3):
        dec = decompose_degenerate(Cone1D(spec3, "LL"))
        assert len(dec.groups) == 1
        assert dec.groups[0][1] == pytest.approx(0.0, abs=1e-12)
        assert dec.groups[0][2].pattern == "LL"

    def test_reassembly_identity(self, spec4):
        xs = np.linspace(-3, 3, 25)
        for cone in enumerate_cones(spec4):
            dec = decompose_degenerate(cone)
            assert np.abs(dec.reassemble_eval(xs) - cone.eval(xs)).max() <= 1e-12
            for _, _, sub in dec.groups:
                assert sub.connected


class TestWeissMinimality:
    def test_p0_minimizes_up_to_n5(self):
        for n in range(2, 6):
            spec = normalize(
                ProblemSpec(n, tuple(1.0 + 0.3 * k for k in range(n)),
                            tuple(float(n - 1.7 * k) for k in range(n)))
            )
            cones = enumerate_cones(spec)
            p0 = Cone1D(spec, "L" * (n - 1))
            w0 = analysis.weiss_of_cone(p0)
            wref = analysis.weiss_of_cone(Cone1D(spec, "R" * (n - 1)))
            assert w0 == pytest.approx(wref, abs=1e-12)  # reflection symmetry
            for cone in cones:
                assert analysis.weiss_of_cone(cone) >= w0 - 1e-12

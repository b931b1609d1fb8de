import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from membranes.errors import InvalidWeight, NonFiniteData, NondegeneracyViolation
from membranes.cones1d import LEFT, POINT, RIGHT
from membranes.problem import (
    ProblemSpec,
    normalize,
    pooled_forces,
    pooled_groups,
    subtract_average,
)


def specs(max_n=6):
    """Strategy for valid (possibly unnormalized) problem specs."""

    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        w = draw(
            st.lists(st.floats(0.1, 10.0, allow_nan=False), min_size=n, max_size=n)
        )
        top = draw(st.floats(-5.0, 5.0, allow_nan=False))
        gaps = draw(
            st.lists(st.floats(0.05, 3.0, allow_nan=False), min_size=n - 1, max_size=n - 1)
        )
        f = [top]
        for g in gaps:
            f.append(f[-1] - g)
        return ProblemSpec(n, tuple(w), tuple(f))

    return build()


class TestNormalize:
    def test_already_zero_mean(self):
        s = normalize(ProblemSpec(2, (1, 1), (1, -1)))
        assert s.forces == (1.0, -1.0)

    def test_subtract_mean(self):
        s = normalize(ProblemSpec(2, (1, 1), (3, 1)))
        assert s.forces == (1.0, -1.0)

    def test_weighted_mean(self):
        s = normalize(ProblemSpec(2, (1, 2), (4, 1)))
        assert s.forces == (2.0, -1.0)

    @given(specs())
    @settings(max_examples=60, deadline=None)
    def test_idempotent_and_zero_mean(self, spec):
        s1 = normalize(spec)
        s2 = normalize(s1)
        assert s2.forces == s1.forces  # bit-for-bit after first application
        assert abs(s1.w @ s1.f) <= 1e-12 * max(1.0, np.abs(s1.f).max())
        # Ordering preserved.
        assert all(s1.forces[i] > s1.forces[i + 1] for i in range(spec.n_membranes - 1))

    def test_nondegeneracy_violation(self):
        with pytest.raises(NondegeneracyViolation):
            ProblemSpec(2, (1, 1), (1, 1))
        with pytest.raises(NondegeneracyViolation):
            ProblemSpec(3, (1, 1, 1), (1, 2, 0))

    def test_invalid_weight(self):
        with pytest.raises(InvalidWeight):
            ProblemSpec(2, (1, 0), (1, -1))
        with pytest.raises(InvalidWeight):
            ProblemSpec(2, (1, -2), (1, -1))

    @pytest.mark.parametrize(
        "weights, forces",
        [((1, float("nan")), (1, -1)), ((1, 1), (float("nan"), -1)), ((1, 1), (float("inf"), -1))],
    )
    def test_non_finite_rejected(self, weights, forces):
        with pytest.raises(NonFiniteData):
            ProblemSpec(2, weights, forces)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_weight_sum_rejected(self):
        with pytest.raises(NonFiniteData):
            ProblemSpec(2, (1e308, 1e308), (2, 1))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "weights, forces",
        [((1, 1), (1.7e308, 1.6e308)), ((1, 1.5), (1.7e308, -1.7e308))],
        ids=["mean-overflows", "shift-overflows"],
    )
    def test_overflowing_normalization_rejected(self, weights, forces):
        spec = ProblemSpec(2, weights, forces)
        assert not spec.is_normalized
        with pytest.raises(NonFiniteData):
            normalize(spec)


class TestGroupForce:
    def test_zero_mean_pair(self):
        s = normalize(ProblemSpec(2, (1, 1), (1, -1)))
        assert pooled_forces(s, [True]).tolist() == [0.0, 0.0]

    def test_arithmetic_mean(self):
        s = ProblemSpec(3, (1, 1, 1), (1, 0, -1))
        assert pooled_forces(s, [True, False]).tolist() == pytest.approx([0.5, 0.5, -1.0])

    def test_weighted_normalized(self):
        s = ProblemSpec(2, (1, 2), (2, -1))
        assert pooled_forces(s, [True]).tolist() == [0.0, 0.0]

    @given(specs())
    @settings(max_examples=40, deadline=None)
    def test_full_range_zero_after_normalize(self, spec):
        s = normalize(spec)
        assert np.abs(pooled_forces(s, [True] * (s.n_membranes - 1))).max() <= 1e-12


class TestPooling:
    @pytest.mark.parametrize(
        "joined, groups",
        [
            ([], [(0, 1)]),
            ([True, True, True], [(0, 4)]),
            ([False, False, False], [(0, 1), (1, 2), (2, 3), (3, 4)]),
            ([False, True, True, False, True], [(0, 1), (1, 4), (4, 6)]),
        ],
        ids=["one-membrane", "all-tied", "all-split", "mixed"],
    )
    def test_groups(self, joined, groups):
        assert list(pooled_groups(joined)) == groups

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_forces_match_group_force_on_every_pattern(self, n):
        rng = np.random.default_rng(n)
        w, f = rng.uniform(0.3, 3.0, n), np.sort(rng.normal(size=n))[::-1]
        spec = normalize(ProblemSpec(n, tuple(w), tuple(f)))
        for pattern in itertools.product((LEFT, POINT, RIGHT), repeat=n - 1):
            for side in (LEFT, RIGHT):
                # Each maximal run of `side` entries ties its membranes into
                # one group, pooled to f_I = sum_I w f / sum_I w.
                expected = np.empty(n)
                lo = 0
                for m in range(n):
                    if m == n - 1 or pattern[m] != side:
                        idx = np.arange(lo, m + 1)
                        w_i = spec.w[idx]
                        expected[idx] = float(w_i @ spec.f[idx] / w_i.sum())
                        lo = m + 1
                got = pooled_forces(spec, [c == side for c in pattern])
                assert got.tobytes() == expected.tobytes()


class TestSubtractAverage:
    @pytest.mark.parametrize(
        "vals,w,expected",
        [
            ((1, 1), (1, 1), (0, 0)),
            ((2, 0), (1, 1), (1, -1)),
            ((3, 0, 0), (1, 1, 1), (2, -1, -1)),
        ],
    )
    def test_examples(self, vals, w, expected):
        out = subtract_average(np.array(vals, dtype=float), w)
        assert np.allclose(out, expected, atol=1e-15)

    @given(
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=5),
        st.integers(0, 10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_projection_and_differences(self, vals, seed):
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.1, 3.0, len(vals))
        u = np.array(vals)
        once = subtract_average(u, w)
        twice = subtract_average(once, w)
        assert np.abs(once - twice).max() <= 1e-12
        assert abs(once @ w) <= 1e-10
        assert np.allclose(np.diff(once), np.diff(u), atol=1e-12)

    def test_fields_last_axis(self, rng):
        u = rng.standard_normal((7, 5, 3))
        w = np.array([1.0, 2.0, 0.5])
        out = subtract_average(u, w)
        assert out.shape == u.shape
        assert np.abs(out @ w).max() <= 1e-12


def test_json_round_trip(spec3):
    obj = json.loads(json.dumps(spec3.as_dict()))
    assert obj["n"] == 3
    back = ProblemSpec.from_dict(obj)
    assert back == spec3

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from membranes.errors import InvalidWeight, TooLarge
from membranes.projection import isotonic_project_batch, qp_oracle_project


def vectors(max_n=8):
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(
            st.lists(st.floats(-10, 10, allow_nan=False), min_size=n, max_size=n),
            st.lists(st.floats(0.1, 5.0, allow_nan=False), min_size=n, max_size=n),
        )
    )


class TestExamples:
    def test_symmetric_pooling(self):
        assert np.allclose(isotonic_project_batch([0, 1], [1, 1]), [0.5, 0.5])

    def test_full_pool_vs_oracle(self):
        got = isotonic_project_batch([2, 1, 3], [1, 1, 1])
        ref = qp_oracle_project([2, 1, 3], [1, 1, 1])
        assert np.allclose(got, [2, 2, 2], atol=1e-12)
        assert np.allclose(got, ref, atol=1e-12)

    def test_weighted_pool(self):
        assert np.allclose(isotonic_project_batch([0, 3], [2, 1]), [1, 1])

    def test_oracle_feasible_identity(self):
        v = [3.0, 1.0, 0.5]
        assert np.allclose(qp_oracle_project(v, [1, 2, 1]), v)

    def test_oracle_reversed_gives_mean(self):
        v = [0.0, 1.0, 2.0, 3.0]
        assert np.allclose(qp_oracle_project(v, [1, 1, 1, 1]), [1.5] * 4)

    @pytest.mark.parametrize("v", [[0.0, 1e-9], [0.0, 0.0, 1e-13]])
    def test_oracle_pools_violations_below_its_screen(self, v):
        # Both inputs violate the order by less than the float screen's slack.
        got = qp_oracle_project(v, [1.0] * len(v))
        assert np.array_equal(got, isotonic_project_batch(v, [1.0] * len(v)))
        assert np.allclose(got, sum(v) / len(v), rtol=1e-15, atol=0.0)


class TestAgainstOracle:
    @given(vectors())
    @settings(max_examples=150, deadline=None)
    def test_pava_equals_oracle(self, vw):
        v, w = vw
        got = isotonic_project_batch(v, w)
        ref = qp_oracle_project(v, w)
        assert np.abs(got - ref).max() <= 1e-10

    def test_random_sweep(self, rng):
        for n in range(2, 9):
            w = rng.uniform(0.2, 3.0, n)
            for _ in range(80):
                v = rng.standard_normal(n) * 3
                dev = np.abs(isotonic_project_batch(v, w) - qp_oracle_project(v, w)).max()
                assert dev <= 1e-10


class TestProperties:
    @given(vectors())
    @settings(max_examples=100, deadline=None)
    def test_idempotent_ordered_mean_preserving(self, vw):
        v, w = vw
        v, w = np.asarray(v), np.asarray(w)
        p = isotonic_project_batch(v, w)
        assert np.all(np.diff(p) <= 1e-12)
        assert np.abs(isotonic_project_batch(p, w) - p).max() <= 1e-12
        assert abs(w @ p - w @ v) <= 1e-10 * max(1.0, np.abs(v).max())

    @given(vectors())
    @settings(max_examples=60, deadline=None)
    def test_lipschitz_equal_weights(self, vw):
        v, _ = vw
        v = np.asarray(v)
        w = np.ones(len(v))
        d = np.sin(np.arange(len(v)))  # arbitrary fixed perturbation direction
        for t in (0.1, 1.0):
            a = isotonic_project_batch(v, w)
            b = isotonic_project_batch(v + t * d, w)
            assert np.abs(a - b).max() <= t * np.abs(d).max() + 1e-12

    @given(vectors())
    @settings(max_examples=60, deadline=None)
    def test_monotone(self, vw):
        v, w = vw
        v = np.asarray(v)
        bump = np.abs(np.cos(np.arange(len(v))))
        a = isotonic_project_batch(v, w)
        b = isotonic_project_batch(v + bump, w)
        assert np.all(b >= a - 1e-12)

    def test_batch_matches_scalar(self, rng):
        for n in (2, 3, 5, 8):
            w = rng.uniform(0.3, 2.0, n)
            vs = rng.standard_normal((200, n)) * 2
            batch = isotonic_project_batch(vs, w)
            for i in range(0, 200, 17):
                assert np.abs(batch[i] - isotonic_project_batch(vs[i], w)).max() <= 1e-12


    def test_batch_exactly_ordered_and_fixed_on_ordered_rows(self, rng):
        for n in range(1, 9):
            w = rng.uniform(0.2, 3.0, n)
            vs = rng.standard_normal((300, n)) * 2
            # Every other row is already ordered; rounding makes ties common.
            vs[::2] = -np.sort(-np.round(vs[::2], 1), axis=1)
            got = isotonic_project_batch(vs, w)
            assert np.all(got[:, :-1] >= got[:, 1:])
            assert np.array_equal(got[::2], vs[::2])
            for i in range(0, 300, 5):
                assert np.abs(got[i] - qp_oracle_project(vs[i], w)).max() <= 1e-10


class TestErrors:
    def test_invalid_weight(self):
        with pytest.raises(InvalidWeight):
            isotonic_project_batch([1, 0], [1, 0])
        with pytest.raises(InvalidWeight):
            qp_oracle_project([1, 0], [-1, 1])
        with pytest.raises(InvalidWeight):
            isotonic_project_batch(np.zeros((3, 2)), [1, -1])

    def test_oracle_too_large(self):
        with pytest.raises(TooLarge):
            qp_oracle_project(list(range(13)), [1] * 13)

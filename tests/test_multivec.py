import numpy as np

from gcgeig.multivec import mv_inner_prod, mv_new, mv_set_random


def random_mv(rng, n, k):
    return np.asfortranarray(rng.standard_normal((n, k)))


class TestCreateAndRandom:
    def test_column_slices_alias_parent(self):
        x = mv_new(6, 4)
        view = x[:, 1:3]
        view[...] = 3.0
        assert np.all(x[:, 1:3] == 3.0)
        assert not x[:, 0].any() and not x[:, 3].any()

    def test_same_seed_same_block(self):
        a = mv_set_random(mv_new(50, 4), seed=9)
        b = mv_set_random(mv_new(50, 4), seed=9)
        assert np.array_equal(a, b)
        c = mv_set_random(mv_new(50, 4), seed=10)
        assert not np.array_equal(a, c)

    def test_uniform_mean_and_range(self):
        x = mv_set_random(mv_new(10**6, 1), seed=0)
        assert abs(x.mean()) < 0.01
        assert x.max() <= 1.0 and x.min() >= -1.0


class TestInnerProd:
    def test_tiny_known_value(self):
        x = np.asfortranarray([[1.0], [2.0]])
        y = np.asfortranarray([[3.0], [1.0]])
        out = mv_inner_prod(x, y)
        assert out.shape == (1, 1)
        assert out[0, 0] == 5.0

    def test_against_scalar_loop(self, rng):
        x = random_mv(rng, 23, 4)
        y = random_mv(rng, 23, 3)
        expect = np.zeros((4, 3))
        for r in range(4):
            for c in range(3):
                acc = 0.0
                for i in range(23):
                    acc += x[i, r] * y[i, c]
                expect[r, c] = acc
        got = mv_inner_prod(x, y)
        assert np.abs(got - expect).max() < 1e-13

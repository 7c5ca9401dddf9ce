import numpy as np
import pytest

from mha_nw_lab.errors import ShapeMismatch
from mha_nw_lab.mha import make_weights, weight_vector


class TestMakeWeights:
    def test_uniform(self):
        np.testing.assert_array_equal(make_weights("uniform", 4), np.full(4, 0.25))

    def test_geometric_rho_one_is_uniform(self):
        np.testing.assert_allclose(make_weights("geometric", 4, rho=1.0),
                                   np.full(4, 0.25))

    def test_geometric_near_one_converges_to_uniform(self):
        alphas = make_weights("geometric", 4, rho=1 - 1e-7)
        assert np.abs(alphas - 0.25).max() <= 1e-6

    def test_geometric_decays(self):
        alphas = make_weights("geometric", 3, rho=0.5)
        np.testing.assert_allclose(alphas, np.array([4, 2, 1]) / 7)

    def test_fibonacci_h4(self):
        np.testing.assert_allclose(make_weights("fibonacci", 4),
                                   np.array([1, 1, 2, 3]) / 7)

    def test_rho_out_of_range(self):
        with pytest.raises(ShapeMismatch):
            make_weights("geometric", 3, rho=1.5)
        with pytest.raises(ShapeMismatch):
            make_weights("geometric", 3, rho=0.0)

    def test_custom_validated(self):
        alphas = make_weights("custom", 3, custom=np.array([0.2, 0.3, 0.5]))
        np.testing.assert_allclose(alphas, [0.2, 0.3, 0.5])
        with pytest.raises(ShapeMismatch):
            make_weights("custom", 3, custom=np.array([0.5, 0.6, 0.2]))
        with pytest.raises(ShapeMismatch):
            make_weights("custom", 3, custom=np.array([0.5, -0.1, 0.6]))

    def test_custom_is_checked_as_given_and_never_renormalised(self):
        near = [0.25, 0.25, 0.5 + 4e-13]
        np.testing.assert_array_equal(make_weights("custom", 3, custom=near), near)
        with pytest.raises(ShapeMismatch, match="sum to"):
            make_weights("custom", 3, custom=[0.25, 0.25, 0.5 + 1e-10])

    def test_weights_always_positive_and_normalized(self):
        for kind in ("uniform", "fibonacci"):
            for H in (1, 2, 5, 9):
                alphas = make_weights(kind, H)
                assert np.all(alphas > 0)
                assert abs(alphas.sum() - 1.0) <= 1e-12

    def test_a_read_only_float64_vector(self):
        custom = [0.25, 0.25, 0.5]
        for alphas in (make_weights("uniform", 3), make_weights("geometric", 3, rho=0.5),
                       make_weights("fibonacci", 3), make_weights("custom", 3, custom=custom)):
            assert type(alphas) is np.ndarray
            assert alphas.dtype == np.float64 and alphas.shape == (3,)
            with pytest.raises(ValueError):
                alphas[0] = 1.0


class TestWeightVector:
    @pytest.mark.parametrize("alphas", [
        [0.5, 0.5],                        # wrong length
        [[0.25, 0.25, 0.5]],               # not a vector
        [0.0, 0.5, 0.5],                   # not positive
        [-0.5, 0.75, 0.75],
        [np.nan, 0.5, 0.5],                # not finite
        [np.inf, 0.5, 0.5],
        [0.2, 0.2, 0.2],                   # not summing to one
    ])
    def test_rejects(self, alphas):
        with pytest.raises(ShapeMismatch):
            weight_vector(alphas, 3)

    def test_sum_prints_as_a_number(self):
        with pytest.raises(ShapeMismatch) as excinfo:
            weight_vector([0.3] * 4, 4)
        assert str(excinfo.value) == "weights sum to 1.2, expected 1"

    def test_copies_read_only(self):
        source = np.array([0.25, 0.25, 0.5])
        alphas = weight_vector(source, 3)
        source[0] = 9.0
        np.testing.assert_array_equal(alphas, [0.25, 0.25, 0.5])
        assert not alphas.flags.writeable


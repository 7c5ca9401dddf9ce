import numpy as np
import pytest

from mha_nw_lab.errors import RankDeficient, ShapeMismatch
from mha_nw_lab.tensor_core import Matrix, qr_orthonormalize


class TestMatrix:
    def test_rejects_non_2d(self):
        with pytest.raises(ShapeMismatch):
            Matrix(np.arange(3.0))

    def test_rejects_nan(self):
        with pytest.raises(ShapeMismatch):
            Matrix([[1.0, np.nan]])

    def test_immutable(self):
        m = Matrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            m[0, 0] = 5.0

    def test_shape_accessors(self):
        m = Matrix([[1, 2, 3], [4, 5, 6]])
        assert m.shape == (2, 3)


class TestQR:
    def test_orthonormal_input_is_fixed_point(self):
        rng = np.random.default_rng(3)
        q0, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        out = qr_orthonormalize(q0)
        # an orthonormal input has R = I, so the sign convention returns it unflipped
        assert np.abs(out - q0).max() < 1e-12

    def test_axis_aligned_case(self):
        out = qr_orthonormalize([[2, 0], [0, 3], [0, 0]])
        np.testing.assert_allclose(out, [[1, 0], [0, 1], [0, 0]], atol=1e-15)

    def test_orthonormality_residual(self):
        rng = np.random.default_rng(11)
        q = qr_orthonormalize(rng.standard_normal((8, 3)))
        gram = q.T @ q
        assert np.abs(gram - np.eye(3)).max() <= 1e-10

    def test_reconstruction(self):
        # a = QR with R = Q^T a upper triangular and diag(R) > 0: the sign convention
        rng = np.random.default_rng(12)
        for _ in range(20):
            a = rng.standard_normal((7, 4))
            q = qr_orthonormalize(a)
            r = q.T @ a
            assert np.all(np.diag(r) > 0.0)
            assert np.abs(np.tril(r, -1)).max() <= 1e-12 * np.linalg.norm(a)
            err = np.linalg.norm(q @ np.triu(r) - a)
            assert err <= 1e-9 * np.linalg.norm(a)

    def test_rank_deficient_reports_rank(self):
        col = np.arange(1.0, 6.0)[:, None]
        a = np.hstack([col, 2.0 * col, np.ones((5, 1))])
        with pytest.raises(RankDeficient) as excinfo:
            qr_orthonormalize(a)
        assert excinfo.value.detected_rank == 2

    def test_wide_matrix_rejected(self):
        with pytest.raises(ShapeMismatch):
            qr_orthonormalize(np.ones((2, 4)))

    def test_overflowing_factor_rejected(self):
        # np.linalg.qr returns a finite R but a Q of [-inf, nan, nan]
        with pytest.raises(ShapeMismatch, match="not finite"):
            qr_orthonormalize([[1e308], [1e308], [0.0]])

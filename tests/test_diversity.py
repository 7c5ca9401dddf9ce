import json
from pathlib import Path

import numpy as np
import pytest

from mha_nw_lab import diversity
from mha_nw_lab.diversity import (
    hdi,
    load_weight_file,
    make_diversity_report,
    make_projection_family,
    optimize_projections,
    projection_gradient,
    projection_objective,
)
from mha_nw_lab.decomposition import ExperimentPlan, FamilySpec
from mha_nw_lab.errors import (Infeasible, NeedsTwoHeads, OptimizationStalled, ShapeMismatch,
                               WeightFileError)
from mha_nw_lab.mha import make_weights
from mha_nw_lab.synthetic import make_task
from mha_nw_lab.nw_attention import HeadConfig
from mha_nw_lab.tensor_core import Matrix, qr_orthonormalize


FIXTURES = Path(__file__).resolve().parent.parent / "configs" / "fixtures"


def set_from_wks(wks):
    heads = []
    p = wks[0].shape[0]
    for w in wks:
        m = Matrix(np.asarray(w, dtype=float))
        heads.append(HeadConfig(wq=m, wk=m, wv=np.zeros(p)))
    return tuple(heads)


def orthonormal(p, d_k, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((p, d_k)))
    return q


def eigvalsh_oracle(w0, w1):
    # cos(theta_j)^2 are the eigenvalues of M^T M, M = U_h^T U_h' (Bjorck & Golub)
    m = np.linalg.qr(w0)[0].T @ np.linalg.qr(w1)[0]
    cos2 = np.clip(np.linalg.eigvalsh(m.T @ m), 0.0, 1.0)
    return np.sort(np.arccos(np.sqrt(cos2)))


def angles01(wks):
    return make_diversity_report(set_from_wks(wks)).principal_angles[(0, 1)]


class TestCrossGram:
    """Pairwise Gram mass ||wk_h^T wk_h' / d_k||_F^2 in ``gram_frobsq``."""

    def test_identical_orthonormal_heads(self):
        u = orthonormal(6, 3, 0)
        report = make_diversity_report(set_from_wks([u, u]))
        assert report.gram_frobsq[0, 1] == pytest.approx(1.0 / 3, rel=1e-14)

    def test_orthogonal_subspaces_zero(self):
        frame = orthonormal(6, 4, 1)
        report = make_diversity_report(set_from_wks([frame[:, :2], frame[:, 2:]]))
        assert report.gram_frobsq[0, 1] <= 4e-28   # 4 entries, each |G_ij| <= 1e-14

    def test_45_degree_pair_by_hand(self):
        e1 = np.array([[1.0], [0.0]])
        mid = np.array([[1.0], [1.0]]) / np.sqrt(2)
        report = make_diversity_report(set_from_wks([e1, mid]))
        assert report.gram_frobsq[0, 1] == pytest.approx(0.5, rel=1e-12)

    def test_symmetry_of_frobenius_mass(self):
        proj = set_from_wks([orthonormal(5, 2, s) for s in (4, 5, 6)])
        gram = make_diversity_report(proj).gram_frobsq
        np.testing.assert_array_equal(gram, gram.T)
        np.testing.assert_array_equal(np.diag(gram), np.zeros(3))
        assert np.all(gram[np.triu_indices(3, 1)] > 0.0)


class TestPrincipalAngles:
    def test_identical_subspaces_zero_angles(self):
        u = orthonormal(6, 3, 6)
        np.testing.assert_allclose(angles01([u, u]), np.zeros(3), atol=1e-7)

    def test_orthogonal_subspaces_right_angles(self):
        frame = orthonormal(8, 4, 7)
        np.testing.assert_allclose(angles01([frame[:, :2], frame[:, 2:]]),
                                   np.full(2, np.pi / 2), atol=1e-7)

    def test_planted_45_degrees(self):
        e1 = np.array([[1.0], [0.0]])
        mid = np.array([[1.0], [1.0]]) / np.sqrt(2)
        angles = angles01([e1, mid])
        assert angles[0] == pytest.approx(np.pi / 4, rel=1e-12)

    def test_ascending_in_0_halfpi(self):
        rng = np.random.default_rng(8)
        angles = angles01([rng.standard_normal((7, 3)), rng.standard_normal((7, 3))])
        assert np.all(np.diff(angles) >= 0)
        assert np.all(angles >= 0) and np.all(angles <= np.pi / 2 + 1e-12)

    def test_cosines_match_orthonormal_gram_mass(self):
        # sum cos^2(theta_j) equals the squared Frobenius mass of U_h^T U_h'
        rng = np.random.default_rng(9)
        for _ in range(10):
            w0, w1 = rng.standard_normal((6, 2)), rng.standard_normal((6, 2))
            angles = angles01([w0, w1])
            mass = float(((np.linalg.qr(w0)[0].T @ np.linalg.qr(w1)[0]) ** 2).sum())
            assert np.sum(np.cos(angles) ** 2) == pytest.approx(mass, abs=1e-8)

    def test_against_eigvalsh_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            w0, w1 = rng.standard_normal((8, 3)), rng.standard_normal((8, 3))
            np.testing.assert_allclose(angles01([w0, w1]), eigvalsh_oracle(w0, w1),
                                       rtol=0, atol=3e-8)

    def test_hard_conditioning_cases(self):
        # nearly aligned, badly column-scaled and Hilbert-like frames
        rng = np.random.default_rng(13)
        base = rng.standard_normal((8, 3))
        hilbert = np.array([[1.0 / (i + j + 1) for j in range(3)] for i in range(8)])
        pairs = [
            (base, base + 1e-6 * rng.standard_normal((8, 3))),
            (base, base @ np.diag([1e-4, 1.0, 1e4])),
            (hilbert, base),
            (hilbert, hilbert + 1e-7 * base),
        ]
        for w0, w1 in pairs:
            # angles near 0 are known to ~sqrt(eps) from either cosine route
            np.testing.assert_allclose(angles01([w0, w1]), eigvalsh_oracle(w0, w1),
                                       rtol=0, atol=3e-8)


class TestHdi:
    def test_needs_two_heads(self):
        with pytest.raises(NeedsTwoHeads):
            hdi(set_from_wks([orthonormal(4, 2, 0)]))

    def test_mixed_shapes_rejected_naming_the_head(self):
        # both indices divide by one d_k, so head 2's narrower frame is refused
        wks = [orthonormal(4, 2, 0), orthonormal(4, 2, 1), orthonormal(4, 1, 2)]
        with pytest.raises(ShapeMismatch, match="^head 2 has shape 4x1, expected 4x2$"):
            make_diversity_report(set_from_wks(wks))

    def test_orthogonal_endpoint(self):
        frame = orthonormal(8, 8, 10)
        proj = set_from_wks([frame[:, i * 2:(i + 1) * 2] for i in range(4)])
        literal, normalized = hdi(proj)
        assert literal == pytest.approx(1.0, abs=1e-12)
        assert normalized == pytest.approx(1.0, abs=1e-12)

    def test_identical_orthonormal_heads_dk4(self):
        u = orthonormal(8, 4, 11)
        literal, normalized = hdi(set_from_wks([u, u]))
        assert literal == pytest.approx(0.75, abs=1e-12)   # 1 - 1/d_k
        assert normalized == pytest.approx(0.0, abs=1e-12)

    def test_45_degree_pair(self):
        e1 = np.array([[1.0], [0.0]])
        mid = np.array([[1.0], [1.0]]) / np.sqrt(2)
        literal, _ = hdi(set_from_wks([e1, mid]))
        assert literal == pytest.approx(0.5, rel=1e-12)

    def test_normalized_rotation_invariant(self):
        rng = np.random.default_rng(12)
        wks = [orthonormal(6, 2, s) for s in (20, 21, 22)]
        _, base = hdi(set_from_wks(wks))
        rot = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        rotated = [w @ rot for w in wks]
        _, spun = hdi(set_from_wks(rotated))
        assert spun == pytest.approx(base, abs=1e-10)

    def test_literal_not_rotation_invariant_under_scaling(self):
        # scaling a frame changes the literal index but not the normalized one
        u = orthonormal(6, 2, 23)
        v = orthonormal(6, 2, 24)
        lit1, norm1 = hdi(set_from_wks([u, v]))
        lit2, norm2 = hdi(set_from_wks([2.0 * u, v]))
        assert norm2 == pytest.approx(norm1, abs=1e-10)
        assert lit2 != pytest.approx(lit1, abs=1e-6)

    def test_report_contents(self):
        frame = orthonormal(6, 4, 25)
        proj = set_from_wks([frame[:, :2], frame[:, 2:]])
        report = make_diversity_report(proj)
        assert report.gram_frobsq.shape == (2, 2)
        assert report.gram_frobsq[0, 0] == 0.0
        assert (0, 1) in report.principal_angles
        assert report.hdi == pytest.approx(1.0, abs=1e-12)

    def test_report_matches_direct_formulas(self):
        rng = np.random.default_rng(26)
        proj = set_from_wks([rng.standard_normal((9, 2)) for _ in range(4)])
        report = make_diversity_report(proj)
        assert (report.hdi, report.hdi_normalized) == hdi(proj)
        for (h, h2), angles in report.principal_angles.items():
            wk_h, wk_h2 = proj[h].wk, proj[h2].wk
            g = (wk_h.T @ wk_h2) / proj[0].d_k
            assert report.gram_frobsq[h, h2] == float((g * g).sum())
            np.testing.assert_allclose(angles, eigvalsh_oracle(wk_h, wk_h2), rtol=0, atol=3e-8)
        assert len(report.principal_angles) == 6

    def test_one_qr_per_head(self, monkeypatch):
        calls = []

        def counting(a):
            calls.append(a.shape)
            return qr_orthonormalize(a)

        monkeypatch.setattr(diversity, "qr_orthonormalize", counting)
        rng = np.random.default_rng(27)
        make_diversity_report(set_from_wks([rng.standard_normal((9, 2)) for _ in range(4)]))
        assert len(calls) == 4


class TestProjectionFamily:
    def test_mix0_identical_frames(self):
        proj = make_projection_family(8, 2, 4, mix=0.0, seed=1)
        _, normalized = hdi(proj)
        assert normalized == pytest.approx(0.0, abs=1e-10)
        for head in proj[1:]:
            np.testing.assert_allclose(head.wk, proj[0].wk, atol=1e-12)

    def test_mix1_orthogonal_blocks(self):
        proj = make_projection_family(8, 2, 4, mix=1.0, seed=2)
        literal, normalized = hdi(proj)
        assert normalized == pytest.approx(1.0, abs=1e-12)
        for h in range(4):
            for h2 in range(h + 1, 4):
                g = proj[h].wk.T @ proj[h2].wk / proj[0].d_k
                assert np.abs(g).max() <= 1e-12

    def test_mid_mix_strictly_between(self):
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        values = []
        for mix in grid:
            _, normalized = hdi(make_projection_family(8, 2, 4, mix=mix, seed=3))
            values.append(normalized)
        assert all(values[i] < values[i + 1] for i in range(len(values) - 1))
        assert 0.0 < values[2] < 1.0

    @pytest.mark.parametrize("mix", [0.0, 0.5, 1.0])
    def test_infeasible_orthogonal_request(self, mix):
        # one construction at every mix: mix 0 needs H*d_k <= p too
        with pytest.raises(Infeasible, match=r"needs H\*d_k <= p, got 4\*2 > 4"):
            make_projection_family(4, 2, 4, mix=mix, seed=5)

    def test_query_gain_scales_wq_only(self):
        proj = make_projection_family(8, 2, 4, mix=1.0, seed=6, query_gain=5.0)
        for head in proj:
            np.testing.assert_allclose(head.wq, 5.0 * head.wk, rtol=1e-15)

    def test_balanced_value_vector_unit_norm_equal_blocks(self):
        proj = make_projection_family(8, 2, 4, mix=1.0, seed=7)
        wv = proj[0].wv
        assert np.linalg.norm(wv) == pytest.approx(1.0, rel=1e-12)
        for head in proj:
            captured = head.wk.T @ wv
            assert float(captured @ captured) == pytest.approx(0.25, rel=1e-10)

    def test_noise_scales_orthogonal_to_keys(self):
        proj = make_projection_family(12, 2, 4, mix=1.0, seed=8,
                                      noise_scales=(0.0, 1.0, 2.0, 3.0))
        base = proj[0].wv
        for h, head in enumerate(proj):
            extra = head.wv - base if h else np.zeros(12)
            assert np.linalg.norm(extra) == pytest.approx(float(h), abs=1e-9)
            for other in proj:
                assert np.abs(other.wk.T @ extra).max() <= 1e-9

    def test_noise_scales_need_spare_dims(self):
        with pytest.raises(Infeasible):
            make_projection_family(8, 2, 4, mix=1.0, seed=9, noise_scales=(0, 1, 2, 3))

    @pytest.mark.parametrize("mix", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("p", [8, 12])
    def test_all_zero_noise_scales_are_the_unset_family(self, p, mix):
        # all-zero scales add nothing, so they need no spare dimensions, which
        # p = 8 lacks at H = 4 and d_k = 2
        unset = make_projection_family(p, 2, 4, mix=mix, seed=9)
        zero = make_projection_family(p, 2, 4, mix=mix, seed=9, noise_scales=(0.0,) * 4)
        for a, b in zip(unset, zero):
            assert [w.tobytes() for w in (a.wq, a.wk, a.wv)] == \
                [w.tobytes() for w in (b.wq, b.wk, b.wv)]

    def test_deterministic(self):
        a = make_projection_family(8, 2, 4, mix=0.6, seed=11)
        b = make_projection_family(8, 2, 4, mix=0.6, seed=11)
        for ha, hb in zip(a, b):
            np.testing.assert_array_equal(ha.wk, hb.wk)
            np.testing.assert_array_equal(ha.wv, hb.wv)


class TestOptimizer:
    def test_two_heads_in_plane_reach_right_angle(self):
        proj, trace = optimize_projections(2, 1, 2, seed=5)
        assert trace[-1] <= 1e-10
        w0 = proj[0].wk.ravel()
        w1 = proj[1].wk.ravel()
        angle = np.arccos(np.clip(abs(w0 @ w1), 0, 1))
        assert angle == pytest.approx(np.pi / 2, abs=1e-4)

    def test_trace_nonincreasing(self):
        _, trace = optimize_projections(8, 2, 4, seed=1)
        assert all(trace[i + 1] <= trace[i] for i in range(len(trace) - 1))

    def test_ten_random_starts_reach_1e8(self):
        for seed in range(10):
            proj, trace = optimize_projections(8, 2, 4, seed=seed)
            assert trace[-1] <= 1e-8
            for head in proj:
                assert np.linalg.norm(head.wk) == pytest.approx(1.0, abs=1e-12)
                np.testing.assert_array_equal(head.wq, head.wk)

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            optimize_projections(4, 2, 4, seed=0)

    def test_every_step_rejected_stalls_with_its_trace(self, monkeypatch):
        # each candidate scores worse than the start, so every step is rejected
        values = []

        def rising(wks, d_k):
            values.append(float(len(values) + 1))
            return values[-1]

        monkeypatch.setattr(diversity, "projection_objective", rising)
        with pytest.raises(OptimizationStalled, match="after 10 consecutive step rejections") \
                as stalled:
            optimize_projections(8, 2, 4, seed=0)
        assert stalled.value.trace == [1.0]
        assert len(values) == 11   # the start, then ten rejected candidates

    def test_start_at_tolerance_returns_its_one_entry_trace(self, monkeypatch):
        # a start scoring at OPTIMIZER_TOL is returned without a step
        values = []

        def at_tolerance(wks, d_k):
            values.append(diversity.OPTIMIZER_TOL)
            return values[-1]

        monkeypatch.setattr(diversity, "projection_objective", at_tolerance)
        proj, trace = optimize_projections(8, 2, 4, seed=0)
        assert trace == [diversity.OPTIMIZER_TOL]
        assert len(values) == 1
        start = np.random.default_rng(0).standard_normal((8, 2))
        np.testing.assert_array_equal(proj[0].wk, start / np.linalg.norm(start))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(99)
        step = 1e-6
        worst = 0.0
        for _ in range(20):
            p, d_k, H = 6, 2, 3
            wks = [rng.standard_normal((p, d_k)) for _ in range(H)]
            grads = projection_gradient(wks, d_k)
            for h in range(H):
                fd = np.zeros((p, d_k))
                for i in range(p):
                    for j in range(d_k):
                        up = [w.copy() for w in wks]
                        dn = [w.copy() for w in wks]
                        up[h][i, j] += step
                        dn[h][i, j] -= step
                        fd[i, j] = (projection_objective(up, d_k)
                                    - projection_objective(dn, d_k)) / (2 * step)
                denom = np.maximum(np.maximum(np.abs(fd), np.abs(grads[h])), 1e-8)
                worst = max(worst, float((np.abs(fd - grads[h]) / denom).max()))
        assert worst <= 1e-5


class TestWeightFile:
    def _write(self, tmp_path, payload):
        path = tmp_path / "weights.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return path

    def test_round_trip(self, tmp_path):
        frame = orthonormal(6, 4, 40)
        doc = {"heads": [
            {"p": 6, "d_k": 2, "data": frame[:, :2].ravel().tolist()},
            {"p": 6, "d_k": 2, "data": frame[:, 2:].ravel().tolist()},
        ]}
        proj = load_weight_file(self._write(tmp_path, doc))
        assert len(proj) == 2 and proj[0].p == 6 and proj[0].d_k == 2
        literal, normalized = hdi(proj)
        assert normalized == pytest.approx(1.0, abs=1e-12)

    def test_truncated_file_reports_byte_offset(self, tmp_path):
        path = self._write(tmp_path, '{"heads": [{"p": 2, "d_k": 1, "data": [1.0,')
        with pytest.raises(WeightFileError, match=r"byte offset \d+"):
            load_weight_file(path)

    def test_wrong_count_names_head(self, tmp_path):
        doc = {"heads": [{"p": 2, "d_k": 2, "data": [1.0, 0.0, 0.0]}]}
        with pytest.raises(WeightFileError, match="head 0"):
            load_weight_file(self._write(tmp_path, doc))

    def test_mixed_shapes_rejected(self, tmp_path):
        doc = {"heads": [
            {"p": 2, "d_k": 1, "data": [1.0, 0.0]},
            {"p": 3, "d_k": 1, "data": [1.0, 0.0, 0.0]},
        ]}
        with pytest.raises(WeightFileError, match="head 1"):
            load_weight_file(self._write(tmp_path, doc))

    def test_mixed_shapes_checked_before_the_frame(self, tmp_path):
        # head 1 is also of rank 0: its shape is what the message names
        doc = {"heads": [{"p": 3, "d_k": 1, "data": [1.0, 0.0, 0.0]},
                         {"p": 3, "d_k": 2, "data": [0.0] * 6}]}
        path = self._write(tmp_path, doc)
        with pytest.raises(WeightFileError) as excinfo:
            load_weight_file(path)
        assert str(excinfo.value) == f"weight file {path}: head 1 has shape 3x2, expected 3x1"

    def test_non_finite_rejected(self, tmp_path):
        for value in (float("nan"), float("inf"), None):   # NaN, Infinity, null
            doc = {"heads": [{"p": 2, "d_k": 1, "data": [1.0, value]}]}
            with pytest.raises(WeightFileError, match="head 0"):
                load_weight_file(self._write(tmp_path, doc))

    def test_head_wider_than_p_names_head(self, tmp_path):
        doc = {"heads": [{"p": 2, "d_k": 3, "data": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0]}] * 2}
        with pytest.raises(WeightFileError,
                           match="head 0: qr_orthonormalize requires rows >= cols"):
            load_weight_file(self._write(tmp_path, doc))

    def test_rank_deficient_head_names_head(self, tmp_path):
        doc = {"heads": [{"p": 3, "d_k": 1, "data": [1.0, 0.0, 0.0]},
                         {"p": 3, "d_k": 1, "data": [0.0, 0.0, 0.0]}]}
        with pytest.raises(WeightFileError, match="head 1: qr_orthonormalize: rank 0 < 1"):
            load_weight_file(self._write(tmp_path, doc))

    def test_frame_that_overflows_in_qr_names_head(self, tmp_path):
        # R is finite but Q overflows: the frame is rejected here, not by an SVD later
        doc = {"heads": [{"p": 3, "d_k": 1, "data": [1.0, 0.0, 0.0]},
                         {"p": 3, "d_k": 1, "data": [1e308, 1e308, 0.0]}]}
        with pytest.raises(WeightFileError,
                           match=r"head 1: qr_orthonormalize: the factor of a \(3, 1\) frame "
                                 "is not finite"):
            load_weight_file(self._write(tmp_path, doc))

    def test_missing_fields_rejected(self, tmp_path):
        doc = {"heads": [{"p": 2, "data": [1.0, 0.0]}]}
        with pytest.raises(WeightFileError, match="d_k"):
            load_weight_file(self._write(tmp_path, doc))


class TestHeadTuple:
    """Every producer of a head set returns a plain tuple of HeadConfig."""

    @pytest.mark.parametrize("producer", [
        lambda: make_projection_family(8, 2, 4, mix=0.5, seed=1),
        lambda: make_projection_family(8, 2, 4, mix=0.0, seed=1),
        lambda: optimize_projections(8, 2, 4, seed=1)[0],
        lambda: load_weight_file(FIXTURES / "weights_orthogonal.json"),
        lambda: ExperimentPlan(
            task=make_task("quadratic", 8, 0.0, "gaussian"),
            projection=FamilySpec(p=8, d_k=2, H=4), weights=make_weights("uniform", 4),
            n=10, R=2, Q=1, master_seed=1).resolve_projection(),
    ], ids=["family", "family-shared-frame", "optimizer", "weight-file", "plan"])
    def test_a_tuple_of_heads(self, producer):
        heads = producer()
        assert type(heads) is tuple and len(heads) in (2, 4)
        assert all(type(head) is HeadConfig for head in heads)

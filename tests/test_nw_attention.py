import numpy as np
import pytest

from mha_nw_lab.errors import DegenerateKernel, ShapeMismatch
from mha_nw_lab.nw_attention import (
    _SCREEN_GAP, DEGENERATE_ENTROPY_NATS, HeadConfig, attend, attend_many, kernel_operands,
    nw_reference,
)
from mha_nw_lab.synthetic import Dataset, make_task, sample_dataset
from mha_nw_lab.tensor_core import Matrix


def make_head(p, d_k, seed=0, query_gain=1.0):
    rng = np.random.default_rng(seed)
    wk = rng.standard_normal((p, d_k))
    wv = rng.standard_normal(p)
    return HeadConfig(wq=Matrix(query_gain * wk), wk=Matrix(wk), wv=wv)


def make_data(xs):
    return Dataset(xs=xs)


def one_replicate(head, queries, data, sizes=None):
    """attend_many on the head's ``kernel_operands`` for one dataset: the
    estimates and counts of that dataset, without the replicate axis."""
    [projected] = kernel_operands([head], queries, data.n)([data])
    estimates, degenerate = attend_many(head, queries, data, sizes, projected=projected)
    return estimates[0], degenerate[0]


def softmax_oracle(logits):
    """Two-line reference softmax, independent of the library helper."""
    e = np.exp(logits - np.max(logits))
    return e / e.sum()


class TestHeadConfig:
    def test_shape_validation(self):
        with pytest.raises(ShapeMismatch):
            HeadConfig(wq=Matrix(np.ones((3, 2))), wk=Matrix(np.ones((3, 1))),
                       wv=np.ones(3))
        with pytest.raises(ShapeMismatch):
            HeadConfig(wq=Matrix(np.ones((3, 2))), wk=Matrix(np.ones((3, 2))),
                       wv=np.ones(4))

    def test_dimensions_are_derived(self):
        head = make_head(5, 4)
        assert (head.p, head.d_k) == (5, 4)

    def test_projections_are_read_only_copies(self):
        wk = np.ones((3, 2), dtype=np.float32)
        head = HeadConfig(wq=wk, wk=wk, wv=np.ones(3))
        wk[0, 0] = 5.0
        for w in (head.wq, head.wk, head.wv):
            assert w.dtype == np.float64 and not w.flags.writeable
        assert head.wk[0, 0] == 1.0

    def test_non_finite_projection_rejected(self):
        with pytest.raises(ShapeMismatch, match="finite"):
            HeadConfig(wq=np.ones((3, 1)), wk=[[1.0], [np.inf], [0.0]], wv=np.ones(3))
        with pytest.raises(ShapeMismatch, match="finite"):
            HeadConfig(wq=np.ones((3, 1)), wk=np.ones((3, 1)), wv=[1.0, np.nan, 0.0])

    def test_heads_compare_by_identity(self):
        # equal arrays do not make equal heads (nor raise, as array fields would)
        a, b = make_head(3, 2), make_head(3, 2)
        assert a == a and a != b


class TestAttend:
    def test_single_point_dataset(self):
        head = make_head(2, 1, seed=1)
        data = make_data([[0.5, -1.0]])
        out = attend(head, np.array([0.1, 0.2]), data)
        assert out.weights.shape == (1,)
        assert out.weights[0] == pytest.approx(1.0)
        assert out.estimate == pytest.approx(float(head.wv @ data.xs[0]))

    def test_identical_points_give_uniform_weights(self):
        head = make_head(3, 2, seed=2)
        data = make_data(np.tile([[0.3, -0.2, 0.9]], (6, 1)))
        out = attend(head, np.array([1.0, 0.0, -1.0]), data)
        np.testing.assert_allclose(out.weights, np.full(6, 1.0 / 6))

    def test_three_point_hand_instance(self):
        # p = 2, d_k = 1, explicit numbers, verified by a separate softmax
        wq = Matrix([[1.0], [0.0]])
        wk = Matrix([[0.0], [1.0]])
        wv = np.array([2.0, -1.0])
        head = HeadConfig(wq=wq, wk=wk, wv=wv)
        xs = np.array([[1.0, 0.5], [0.0, -1.0], [2.0, 2.0]])
        data = make_data(xs)
        x = np.array([3.0, 7.0])
        q = 3.0                      # wq^T x
        keys = xs[:, 1]              # wk^T x_i
        logits = q * keys / 1.0      # sqrt(d_k) = 1
        weights = softmax_oracle(logits)
        values = xs @ wv
        out = attend(head, x, data)
        np.testing.assert_allclose(out.weights, weights, rtol=1e-14)
        assert out.estimate == pytest.approx(float(weights @ values), rel=1e-14)

    def test_weights_sum_to_one(self):
        head = make_head(4, 2, seed=3)
        data = make_data(np.random.default_rng(0).standard_normal((50, 4)))
        out = attend(head, np.zeros(4), data)
        assert abs(out.weights.sum() - 1.0) <= 1e-12
        assert np.all(out.weights >= 0.0)

    def test_convexity(self):
        rng = np.random.default_rng(4)
        head = make_head(3, 2, seed=5)
        for _ in range(50):
            data = make_data(rng.standard_normal((20, 3)))
            out = attend(head, rng.standard_normal(3), data)
            values = data.xs @ head.wv
            span = values.max() - values.min()
            assert values.min() - 1e-12 * span <= out.estimate <= values.max() + 1e-12 * span

    def test_extreme_logits_are_stabilized(self):
        head = HeadConfig(wq=Matrix([[1000.0]]),
                          wk=Matrix([[1.0]]), wv=np.array([1.0]))
        data = make_data([[-1.0], [0.0], [1.0]])
        out = attend(head, np.array([1.0]), data)
        assert np.all(np.isfinite(out.weights))
        assert out.estimate == pytest.approx(1.0)

    def test_empty_dataset_rejected(self):
        head = make_head(2, 1)
        with pytest.raises(ShapeMismatch):
            attend(head, np.zeros(2), make_data(np.zeros((0, 2))))

    def test_dimension_mismatch(self):
        head = make_head(3, 2)
        with pytest.raises(ShapeMismatch):
            attend(head, np.zeros(4), make_data(np.zeros((2, 3))))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(10)
        head = make_head(3, 2, seed=6)
        xs = rng.standard_normal((12, 3))
        x = rng.standard_normal(3)
        out = attend(head, x, make_data(xs))
        perm = rng.permutation(12)
        out_p = attend(head, x, make_data(xs[perm]))
        np.testing.assert_allclose(out_p.weights, out.weights[perm], rtol=1e-14)
        assert out_p.estimate == pytest.approx(out.estimate, rel=1e-14)

    def test_batched_path_matches_single(self):
        rng = np.random.default_rng(11)
        head = make_head(4, 2, seed=7)
        data = make_data(rng.standard_normal((30, 4)))
        queries = rng.standard_normal((5, 4))
        batched = one_replicate(head, queries, data)[0][0]
        singles = np.array([attend(head, q, data).estimate for q in queries])
        # gemv vs gemm accumulation can differ in the last bit
        np.testing.assert_allclose(batched, singles, rtol=1e-12)


def full_entropy(head, queries, xs):
    """Row entropies from the full normalised weight matrix, -(w log w).sum()."""
    return logit_entropy((queries @ head.wq) @ (xs @ head.wk).T / np.sqrt(head.d_k))


def logit_entropy(logits):
    """Entropy of each row of softmax(logits), shifted by the row max."""
    w = np.exp(logits - logits.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    return -(w * np.log(np.maximum(w, 1e-300))).sum(axis=1)


class TestFusedKernel:
    def test_degenerate_count_matches_full_entropy(self):
        rng = np.random.default_rng(7)
        entropies = []
        for trial in range(300):
            p = int(rng.integers(2, 6))
            d_k = int(rng.integers(1, 4))
            gain = 10.0 ** rng.uniform(0.0, 3.0) if trial % 3 else 1.0
            head = make_head(p, d_k, seed=trial, query_gain=gain)
            xs = rng.standard_normal((int(rng.integers(1, 60)), p))
            queries = rng.standard_normal((16, p))
            entropy = full_entropy(head, queries, xs)
            degenerate = one_replicate(head, queries, make_data(xs))[1][0]
            assert degenerate == np.count_nonzero(entropy < DEGENERATE_ENTROPY_NATS)
            entropies.append(entropy)
        entropy = np.concatenate(entropies)
        # rows on both sides of the threshold, and inside the screen's margin
        assert np.count_nonzero(entropy < DEGENERATE_ENTROPY_NATS) > 100
        assert np.count_nonzero(entropy > 1.0) > 100
        near = (entropy >= DEGENERATE_ENTROPY_NATS) & (entropy < 2 * DEGENERATE_ENTROPY_NATS)
        assert np.count_nonzero(near) > 0

    def test_degenerate_count_per_prefix_matches_full_entropy(self):
        rng = np.random.default_rng(17)
        entropies = []
        for trial in range(300):
            p = int(rng.integers(2, 6))
            d_k = int(rng.integers(1, 4))
            gain = 10.0 ** rng.uniform(0.0, 3.0) if trial % 3 else 1.0
            head = make_head(p, d_k, seed=trial, query_gain=gain)
            xs = rng.standard_normal((int(rng.integers(1, 60)), p))
            sizes = np.unique(rng.integers(1, xs.shape[0] + 1, size=3))
            queries = rng.standard_normal((16, p))
            [(q, keys, values)] = kernel_operands([head], queries, len(xs))([make_data(xs)])
            [estimates], [degenerate] = attend_many(head, queries, make_data(xs), sizes,
                                                    projected=(q, keys, values))
            assert estimates.shape == (len(sizes), 16)
            for j, n in enumerate(sizes):
                entropy = full_entropy(head, queries, xs[:n])
                assert degenerate[j] == np.count_nonzero(entropy < DEGENERATE_ENTROPY_NATS)
                # the one-size call reads a prefix of the same projection
                alone = attend_many(head, queries, make_data(xs[:n]),
                                    projected=(q, keys[:, :n], values[:, :n]))[0][0, 0]
                if j == 0:   # the first prefix is the one-size pass itself
                    np.testing.assert_array_equal(estimates[j], alone)
                else:
                    np.testing.assert_allclose(estimates[j], alone, rtol=1e-12, atol=1e-15)
                entropies.append(entropy)
        entropy = np.concatenate(entropies)
        assert np.count_nonzero(entropy < DEGENERATE_ENTROPY_NATS) > 100
        assert np.count_nonzero(entropy > 1.0) > 100
        near = (entropy >= DEGENERATE_ENTROPY_NATS) & (entropy < 2 * DEGENERATE_ENTROPY_NATS)
        assert np.count_nonzero(near) > 0

    @pytest.mark.parametrize("d_k", [1, 2, 3])
    def test_prefixes_are_left_to_right_sums_of_the_segments(self, d_k):
        # no logit reaches +-600, so no row is shifted and each prefix's e.v and s
        # are, bit for bit, the segments' exp(q k^T) @ [v, 1] summed left to right
        rng = np.random.default_rng(53 + d_k)
        p, n, sizes = 5, 120, [7, 30, 31, 90, 120]
        head = make_head(p, d_k, seed=d_k, query_gain=3.0)
        xs = rng.standard_normal((n, p))
        queries = rng.standard_normal((16, p))
        [(q, keys, vs)] = kernel_operands([head], queries, n)([make_data(xs)])
        estimates, _ = attend_many(head, queries, make_data(xs), sizes, projected=(q, keys, vs))
        keys, vs = keys[0], vs[0]   # [v, 1], as the kernel reads it
        ev = s = 0.0
        for j, (start, stop) in enumerate(zip([0] + sizes, sizes)):
            k = keys[start:stop]
            logits = q * k.T if d_k == 1 else q @ k.T
            assert np.abs(logits).max() < 600.0
            ev_j, s_j = (np.exp(logits) @ vs[start:stop]).T
            ev, s = ev + ev_j, s + s_j
            np.testing.assert_array_equal(estimates[0, j], ev / s)

    @staticmethod
    def offset_head(rng, p=5, d_k=3):
        """A head whose logit for query x and point x_i is x[0] * x_i[0] / sqrt(d_k)
        plus the logit of coordinates 2.., which also carry the value; points
        set coordinate 1 to 1, which adds 3 to every value and no logit."""
        wq = np.zeros((p, d_k))
        wk = np.zeros((p, d_k))
        wq[0, 0] = wk[0, 0] = 1.0
        wq[2:, 1:] = rng.standard_normal((p - 2, d_k - 1))
        wk[2:, 1:] = 0.5 * rng.standard_normal((p - 2, d_k - 1))
        wv = np.concatenate([[0.0, 3.0], rng.standard_normal(p - 2)])
        return HeadConfig(wq=Matrix(wq), wk=Matrix(wk), wv=wv), wq, wk, wv

    def test_rows_with_and_without_the_shift_in_one_block(self):
        rng = np.random.default_rng(31)
        head, wq, wk, wv = self.offset_head(rng)
        d_k, n = 3, 25
        xs = np.column_stack([np.ones(n), np.ones(n), rng.standard_normal((n, 3))])
        offsets = np.array([650.0, 0.0, -650.0, 300.0, 601.0, -599.0, -601.0, 599.0])
        queries = np.column_stack([offsets * np.sqrt(d_k), rng.standard_normal((8, 4))])
        estimates, _ = one_replicate(head, queries, make_data(xs), [9, 25])
        rest = (queries[:, 1:] @ wq[1:, 1:]) @ (xs[:, 1:] @ wk[1:, 1:]).T / np.sqrt(d_k)
        for j, m in enumerate([9, 25]):
            for q in range(8):
                expected = nw_reference(offsets[q] + rest[q, :m], xs[:m] @ wv)
                assert estimates[j, q] == pytest.approx(expected, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("first, later", [(601.0, 599.0), (-601.0, -599.0),
                                              (700.0, 598.0), (-700.0, -598.0)])
    def test_shifted_first_segment_merges_with_unshifted_later_ones(self, first, later):
        # points 0..9 carry offset `first` (row max beyond the raw-exp range),
        # points 10.. carry `later` (inside it), so the prefixes merge a shifted
        # segment with unshifted ones
        rng = np.random.default_rng(int(first) + 5000)
        head, wq, wk, wv = self.offset_head(rng)
        d_k, n = 3, 40
        column = np.where(np.arange(n) < 10, first, later)
        xs = np.column_stack([column, np.ones(n), 0.1 * rng.standard_normal((n, 3))])
        queries = np.column_stack([np.full(6, np.sqrt(d_k)), rng.standard_normal((6, 4))])
        sizes = [10, 25, 40]
        estimates, _ = one_replicate(head, queries, make_data(xs), sizes)
        rest = (queries[:, 1:] @ wq[1:, 1:]) @ (xs[:, 1:] @ wk[1:, 1:]).T / np.sqrt(d_k)
        for j, m in enumerate(sizes):
            for q in range(6):
                expected = nw_reference(column[:m] + rest[q, :m], xs[:m] @ wv)
                assert estimates[j, q] == pytest.approx(expected, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("shift", [-1000.0, -700.0, 700.0, 1000.0])
    def test_estimates_match_reference_under_logit_shift(self, shift):
        # coordinate 0 is a constant 1 that only the shift column sees, so
        # every logit is shift + the logit of the remaining coordinates
        rng = np.random.default_rng(int(shift) + 2000)
        p, d_k, n = 4, 3, 25
        wq = np.zeros((p, d_k))
        wk = np.zeros((p, d_k))
        wq[0, 0] = wk[0, 0] = 1.0
        wq[1:, 1:] = rng.standard_normal((p - 1, d_k - 1))
        wk[1:, 1:] = 0.5 * rng.standard_normal((p - 1, d_k - 1))
        wv = np.concatenate([[3.0], rng.standard_normal(p - 1)])
        head = HeadConfig(wq=Matrix(wq), wk=Matrix(wk), wv=wv)
        xs = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
        queries = np.column_stack([np.full(8, shift * np.sqrt(d_k)),
                                   rng.standard_normal((8, p - 1))])
        estimates = one_replicate(head, queries, make_data(xs))[0][0]
        rest = (queries[:, 1:] @ wq[1:, 1:]) @ (xs[:, 1:] @ wk[1:, 1:]).T / np.sqrt(d_k)
        # the oracle's raw exp() overflows beyond ~700; there it gets the
        # unshifted logits, which define the same estimator
        oracle_shift = shift if abs(shift) <= 700.0 else 0.0
        for q in range(8):
            expected = nw_reference(oracle_shift + rest[q], xs @ wv)
            assert estimates[q] == pytest.approx(expected, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("sizes, return_weights", [([5, 3], False), ([3, 3], False),
                                                        ([0, 4], False), ([4, 9], False),
                                                        ([3, 6], True)])
    def test_bad_sizes_and_weights_of_many_sizes_are_rejected(self, sizes, return_weights):
        head, data = make_head(2, 1), make_data(np.random.default_rng(4).standard_normal((6, 2)))
        [projected] = kernel_operands([head], np.zeros((3, 2)), data.n)([data])
        with pytest.raises(ShapeMismatch):
            attend_many(head, np.zeros((3, 2)), data, sizes, return_weights, projected=projected)

    def test_operands_are_each_heads_projections(self):
        # heads 0 and 1 share key column 1 and a value vector; head 2's key
        # columns 2 and 0 are not adjacent in the product, so its keys are a copy
        rng = np.random.default_rng(5)
        frame, wv = rng.standard_normal((3, 3)), rng.standard_normal(3)
        heads = [HeadConfig(wq=2.0 * frame[:, :2], wk=frame[:, :2], wv=wv),
                 HeadConfig(wq=frame[:, 1:], wk=frame[:, 1:], wv=wv),
                 HeadConfig(wq=frame[:, [2, 0]], wk=frame[:, [2, 0]], wv=-wv)]
        datasets = [make_data(rng.standard_normal((10, 3))) for _ in range(2)]
        queries = rng.standard_normal((4, 3))
        project = kernel_operands(heads, queries, 10, replicates=2)
        operands = project(datasets)
        for head, (q, keys, values) in zip(heads, operands):
            np.testing.assert_array_equal(q, queries @ head.wq / np.sqrt(2))
            for b, data in enumerate(datasets):
                np.testing.assert_allclose(keys[b], data.xs @ head.wk, rtol=1e-12, atol=1e-15)
                np.testing.assert_allclose(values[b, :, 0], data.xs @ head.wv,
                                           rtol=1e-12, atol=1e-15)
                np.testing.assert_array_equal(values[b, :, 1], 1.0)
        product = operands[0][2].base
        assert product.shape == (2, 3 + 2 * 2, 10)   # 3 key columns, 2 (wv, 0) pairs
        assert [np.shares_memory(keys, product) for _, keys, _ in operands] == [True, True, False]
        assert all(values.base is product for _, _, values in operands)
        # a later call on fewer datasets writes into the same product
        first = [(keys.copy(), values.copy()) for _, keys, values in operands]
        again = project(datasets[1:])
        assert again[0][2].base is product
        for (keys, values), (_, keys_1, values_1) in zip(first, again):
            np.testing.assert_array_equal(keys_1[0], keys[1])
            np.testing.assert_array_equal(values_1[0], values[1])
        with pytest.raises(ShapeMismatch, match=r"queries in R\^2"):
            kernel_operands(heads, queries[:, :2], 10)
        with pytest.raises(ShapeMismatch, match="data dims"):
            project([make_data(np.zeros((10, 2)))])

    @pytest.mark.parametrize("call, match", [
        (lambda heads, q, xs: kernel_operands([], q, 10), r"got 0 heads in R\^\[\]"),
        (lambda heads, q, xs: kernel_operands(heads, q, 10),
         r"queries in R\^8, got 2 heads in R\^\[8, 12\]"),
        (lambda heads, q, xs: kernel_operands(heads[:1], q, 10, replicates=2)(xs),
         r"room for 1 to 2 datasets .* got 3"),
        (lambda heads, q, xs: kernel_operands(heads[:1], q, 12)(xs[:1]),
         r"datasets of n = 12 in R\^8, got 1, data dims \[\(10, 8\)\]"),
        (lambda heads, q, xs: kernel_operands(heads[:1], q, 0)(xs[:1]),
         r"got 1 heads in R\^\[8\], n = 0, replicates = 1"),
    ], ids=["no-heads", "mixed-head-dims", "more-datasets-than-replicates",
            "dataset-of-another-n", "n-zero"])
    def test_operands_reject_what_they_cannot_lay_out(self, call, match):
        rng = np.random.default_rng(6)
        heads, queries = [make_head(8, 2, seed=1), make_head(12, 2, seed=2)], np.zeros((4, 8))
        datasets = [make_data(rng.standard_normal((10, 8))) for _ in range(3)]
        with pytest.raises(ShapeMismatch, match=match):
            call(heads, queries, datasets)

    def test_projected_inputs_must_fit_head_queries_and_sizes(self):
        rng = np.random.default_rng(5)
        head = make_head(3, 2, seed=5)
        data = make_data(rng.standard_normal((10, 3)))
        queries = rng.standard_normal((4, 3))
        [(q, keys, values)] = kernel_operands([head], queries, data.n)([data])
        keys, values = keys[0], values[0]
        estimates, _ = attend_many(head, queries, data, [5, 10], projected=(q, keys, values))
        assert estimates.shape == (2, 4)
        for bad in [(q[:3], keys, values), (q[:, :1], keys, values), (q, keys[:5], values),
                    (q, keys[:, :1], values), (q, keys, values[:, :1]), (q, keys, values[:9])]:
            with pytest.raises(ShapeMismatch, match="projected shapes"):
                attend_many(head, queries, data, [5, 10], projected=bad)
        with pytest.raises(TypeError, match="projected"):
            attend_many(head, queries, data, [5, 10])

    @pytest.mark.parametrize("Q, n", [(4, 4), (3, 5)])
    def test_weights_of_stacked_replicates_are_each_ones_own(self, Q, n):
        # each replicate's weight rows sum to 1 and are those of its own 2-D call
        rng = np.random.default_rng(71 + n)
        head = make_head(3, 2, seed=7)
        datasets = [make_data(rng.standard_normal((n, 3))) for _ in range(2)]
        queries = rng.standard_normal((Q, 3))
        [(q, keys, values)] = kernel_operands([head], queries, n, replicates=2)(datasets)
        estimates, _, weights = attend_many(head, queries, datasets[0], return_weights=True,
                                            projected=(q, keys, values))
        assert weights.shape == (2, Q, n)
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, rtol=0, atol=1e-15)
        for r in range(2):
            alone = attend_many(head, queries, datasets[r], return_weights=True,
                                projected=(q, keys[r], values[r]))
            np.testing.assert_array_equal(estimates[r], alone[0])
            np.testing.assert_array_equal(weights[r], alone[2])

    @pytest.mark.parametrize("d_k", [1, 2])
    def test_a_stack_of_replicates_equals_one_call_each(self, d_k):
        # replicate 1 holds a key at 650 on axis 0, in the second segment: query
        # 0's logit there is 650, a shifted row, and the queries leaning on that
        # axis are degenerate from n = 20 on; replicates 0 and 2 have no such row
        rng = np.random.default_rng(61 + d_k)
        n, sizes = 30, [8, 20, 30]
        head = make_head(3, d_k)
        data = make_data(rng.standard_normal((n, 3)))
        queries = rng.standard_normal((6, 3))
        q = 0.5 * rng.standard_normal((6, d_k))
        q[0, 0] = 1.0
        keys = rng.standard_normal((3, n, d_k))
        keys[1, 12, 0] = 650.0
        values = np.ones((3, n, 2))
        values[..., 0] = rng.standard_normal((3, n))
        estimates, counts = attend_many(head, queries, data, sizes, projected=(q, keys, values))
        assert estimates.shape == (3, 3, 6) and counts.shape == (3, 3)
        for r in range(3):
            alone = attend_many(head, queries, data, sizes, projected=(q, keys[r], values[r]))
            np.testing.assert_array_equal(estimates[r], alone[0])
            np.testing.assert_array_equal(counts[r], alone[1])
        assert (q @ keys[1].T).max() > 600.0 > np.abs(q @ keys[[0, 2]].swapaxes(1, 2)).max()
        assert counts[1, 0] == 0 and counts[1, 1:].min() > 0 and counts[[0, 2]].sum() == 0

    #: 1-D keys in [1, 2]: at sizes [2, 5, 7] the smallest is in the first
    #: segment and the largest in the second
    SCREEN_KEYS = np.array([1.0, 1.5, 1.25, 1.75, 2.0, 1.125, 1.0625])
    #: q = x, k = x, v = 1 at p = d_k = 1
    SCREEN_HEAD = HeadConfig(wq=Matrix([[1.0]]), wk=Matrix([[1.0]]), wv=np.ones(1))

    def screen_queries(self, top):
        """Query top / max(k) (top > 0) or top / min(k) (top < 0), whose logits
        over SCREEN_KEYS peak at top, then queries 0 and 0.5."""
        keys = self.SCREEN_KEYS
        return np.array([[top / (keys.max() if top > 0 else keys.min())], [0.0], [0.5]])

    @pytest.mark.parametrize("sizes", [None, [2, 5, 7]], ids=["one-size", "three-sizes"])
    @pytest.mark.parametrize("top", [2e3, 2e9, 1e12, 1e100, -1e12])
    def test_screen_counts_one_hot_rows_at_any_row_max(self, top, sizes):
        # on every prefix the first query's other logits lie at least |top| / 16
        # below its row max: a one-hot row, shifted since |top| > 600, whose gap
        # log s + (shift - max) is 0; queries 0 and 0.5 give rows of high entropy
        head, keys, queries = self.SCREEN_HEAD, self.SCREEN_KEYS[:, None], self.screen_queries(top)
        degenerate = one_replicate(head, queries, make_data(keys), sizes)[1]
        for j, m in enumerate(sizes or [len(keys)]):
            entropy = full_entropy(head, queries, keys[:m])
            assert degenerate[j] == np.count_nonzero(entropy < DEGENERATE_ENTROPY_NATS) == 1

    @pytest.mark.parametrize("sizes", [None, [2, 5, 7]], ids=["one-size", "three-sizes"])
    @pytest.mark.parametrize("top", [2e3, 2e9, 1e12, 1e100, -1e12])
    def test_screen_counts_one_hot_rows_of_stacked_replicates(self, top, sizes):
        # replicate 0 holds the keys above, replicate 1 the same keys reversed,
        # which moves the smallest to the last segment, and replicate 2 equal
        # keys, whose rows are all uniform
        keys = np.stack([self.SCREEN_KEYS, self.SCREEN_KEYS[::-1], np.ones(7)])
        n, q = keys.shape[1], self.screen_queries(top)
        counts = attend_many(self.SCREEN_HEAD, q, make_data(np.zeros((n, 1))), sizes,
                             projected=(q, keys[..., None], np.ones((3, n, 2))))[1]
        assert counts.shape == (3, len(sizes or [n]))
        for r in range(3):
            for j, m in enumerate(sizes or [n]):
                entropy = logit_entropy(q @ keys[r, None, :m])
                assert counts[r, j] == np.count_nonzero(entropy < DEGENERATE_ENTROPY_NATS)
        assert counts[:2].min() == 1 and counts[2].max() == 0

    def test_screen_gap_is_where_the_binary_entropy_bound_reaches_twice_the_threshold(self):
        # a largest weight e^-tau = 1 - d bounds the entropy below by h_b(d)
        d = -np.expm1(-_SCREEN_GAP)
        bound = _SCREEN_GAP * np.exp(-_SCREEN_GAP) - d * np.log(d)
        assert bound == pytest.approx(2.0 * DEGENERATE_ENTROPY_NATS, rel=1e-9)
        assert _SCREEN_GAP == pytest.approx(1.18e-7, rel=0.01)

    def test_two_atoms_just_outside_the_screen_are_not_degenerate(self):
        for gap in _SCREEN_GAP * np.array([1.0 + 1e-9, 1.01, 2.0]):
            w = np.array([np.exp(-gap), -np.expm1(-gap)])
            assert -(w * np.log(w)).sum() >= DEGENERATE_ENTROPY_NATS
        # through the kernel: logits 0 and -delta give the gap log(1 + e^-delta)
        head = HeadConfig(wq=Matrix([[1.0]]), wk=Matrix([[1.0]]), wv=np.ones(1))
        for tail, count in ((np.expm1(1.01 * _SCREEN_GAP), 0), (DEGENERATE_ENTROPY_NATS / 40, 1)):
            degenerate = one_replicate(head, np.ones((1, 1)),
                                       make_data([[0.0], [np.log(tail)]]))[1][0]
            assert degenerate == count

    #: entropies as multiples of the threshold: far off, inside the bounds'
    #: 1e-3 margin, and within the rounding of a gap formed beside a row max of 599
    BOUND_RATIOS = (0.5, 0.9, 0.99, 0.9995, 1 - 1e-5, 1 - 1e-6, 1 - 3e-7, 1 - 1e-7,
                    1 + 1e-7, 1 + 3e-7, 1 + 1e-6, 1 + 1e-5, 1.0005, 1.01, 1.1, 1.3, 1.9)

    @staticmethod
    def row_entropy(logits):
        """Entropy in nats of softmax(logits) as log Z - sum_i p_i a_i, a = logits
        - max, with log Z = log1p of the mass beside one largest logit: no term
        cancels, so it holds its digits where the entropy is near 1e-6."""
        a = np.delete(logits - logits.max(), np.argmax(logits))
        e = np.exp(a)
        return np.log1p(e.sum()) - (e @ a) / (1.0 + e.sum())

    def bound_rows(self, top, n, supports):
        """Key rows of n 1-D keys, one per support m in ``supports``, tail shape
        and ratio in BOUND_RATIOS: keys [:m] hold the max ``top`` and m - 1 keys
        at top - gap - c, c 0 (a uniform tail, where the upper bound is exact)
        or 0 then 5s (one key carrying the tail), gap solved for the entropy
        ratio * 1e-6; keys [m:] sit 2000 below, where exp gives 0.  The max is
        first in even rows and last of the support in odd ones."""
        rows = []
        for m in supports:
            for c in (np.zeros(m - 1), np.r_[0.0, np.full(m - 2, 5.0)]):
                mass, tilt = np.exp(-c).sum(), (c * np.exp(-c)).sum()
                for ratio in self.BOUND_RATIOS:
                    lo, hi = 0.0, 200.0
                    for _ in range(200):   # the entropy falls as the gap grows
                        gap = (lo + hi) / 2
                        t = np.exp(-gap) * mass
                        h = np.log1p(t) + np.exp(-gap) * (gap * mass + tilt) / (1.0 + t)
                        lo, hi = (gap, hi) if h > ratio * DEGENERATE_ENTROPY_NATS else (lo, gap)
                    support = np.r_[top, top - gap - c]
                    if len(rows) % 2:
                        support = support[::-1]
                    rows.append(np.r_[support, np.full(n - m, top - 2000.0)])
        return np.array(rows)

    @pytest.mark.parametrize("sizes", [None, [2, 10, 250, 4000]], ids=["one-size", "prefixes"])
    @pytest.mark.parametrize("top", [0.0, -80.0, 599.0, 601.0, 3e9])
    def test_entropy_bounds_count_rows_straddling_the_threshold(self, top, sizes):
        # h_b(d) <= entropy <= h_b(d) + d log(n - 1) decides a screened row only
        # 1e-3 clear of the threshold; the counts must be those of each row's own
        # entropy, on rows within 1e-7 of it and at n from 2 to 4000
        head = HeadConfig(wq=Matrix([[1.0]]), wk=Matrix([[1.0]]), wv=np.ones(1))
        calls = ([(m, None, [m]) for m in (2, 10, 250, 4000)] if sizes is None
                 else [(4000, sizes, (2, 10, 250, 4000))])
        ratios = []
        for n, call_sizes, supports in calls:
            keys = self.bound_rows(top, n, supports)
            datasets = [make_data(row[:, None]) for row in keys]
            projected = kernel_operands([head], np.ones((1, 1)), n, len(keys))(datasets)[0]
            counts = attend_many(head, np.ones((1, 1)), datasets[0], call_sizes,
                                 projected=projected)[1]
            for j, m in enumerate(call_sizes or [n]):
                entropy = np.array([self.row_entropy(row[:m]) for row in keys])
                np.testing.assert_array_equal(counts[:, j], entropy < DEGENERATE_ENTROPY_NATS)
                ratios.append(entropy / DEGENERATE_ENTROPY_NATS)
        ratios = np.concatenate(ratios)
        # both sides of the threshold, inside the margin and close to it, but
        # never so close that the kernel's exact sum could round across it
        near = np.abs(ratios - 1.0)
        assert np.count_nonzero((ratios < 1.0) & (near < 1e-6)) >= 8
        assert np.count_nonzero((ratios > 1.0) & (near < 1e-6)) >= 8
        assert near.min() > 1e-8

    def test_attend_weights_are_a_distribution(self):
        rng = np.random.default_rng(8)
        for trial in range(200):
            p = int(rng.integers(1, 6))
            head = make_head(p, int(rng.integers(1, 5)), seed=trial,
                             query_gain=10.0 ** rng.uniform(0.0, 2.0))
            data = make_data(rng.standard_normal((int(rng.integers(1, 200)), p)))
            weights = attend(head, rng.standard_normal(p), data).weights
            assert np.all(weights >= 0.0)
            assert abs(weights.sum() - 1.0) <= 1e-15

    def test_constant_values_give_exactly_one(self):
        # every value is 1 (wv reads coordinate 0, fixed at 1, which no logit
        # reads), so e.v and s are the same sum; one product gives both, bit for bit
        rng = np.random.default_rng(41)
        count = 0
        for trial in range(200):
            p = int(rng.integers(2, 6))
            d_k = int(rng.integers(1, 4))
            gain = 10.0 ** rng.uniform(0.0, 2.0)
            wq = np.vstack([np.zeros(d_k), gain * rng.standard_normal((p - 1, d_k))])
            wk = np.vstack([np.zeros(d_k), rng.standard_normal((p - 1, d_k))])
            head = HeadConfig(wq=Matrix(wq), wk=Matrix(wk), wv=np.eye(p)[0])
            n = int(rng.integers(1, 300))
            xs = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
            sizes = np.unique(rng.integers(1, n + 1, size=3))
            estimates, _ = one_replicate(head, rng.standard_normal((16, p)), make_data(xs), sizes)
            assert np.all(estimates == 1.0), (trial, estimates[estimates != 1.0])
            count += estimates.size
        assert count > 5000

    def test_rank_one_row_max_from_the_key_ends(self):
        # d_k = 1: a row's max logit is q times the largest key where q >= 0 and
        # the smallest where q < 0; the key extremes sit at the first and last
        # rows, and logits reach past +-600 within a segment and across segments
        rng = np.random.default_rng(43)
        head = HeadConfig(wq=Matrix([[1.0], [0.0], [0.0]]), wk=Matrix([[1.0], [0.0], [0.0]]),
                          wv=np.array([0.0, 1.0, -2.0]))
        signs = np.array([1.0, -1.0, 0.0, 1.0, -1.0, 0.0, 1.0, -1.0])
        entropies = []
        for trial in range(120):
            n = int(rng.integers(2, 80))
            keys = rng.standard_normal(n) + (3.0 * rng.standard_normal() if trial % 2 else 0.0)
            top, bottom = (0, n - 1) if trial % 4 < 2 else (n - 1, 0)
            keys[top], keys[bottom] = keys.max() + 0.5, keys.min() - 0.5
            xs = np.column_stack([keys, rng.standard_normal((n, 2))])
            gains = 10.0 ** rng.uniform(0.0, 2.7, size=signs.size)
            queries = np.column_stack([signs * gains, rng.standard_normal((signs.size, 2))])
            sizes = np.unique(np.append(rng.integers(1, n + 1, size=2), n))
            estimates, degenerate = one_replicate(head, queries, make_data(xs), sizes)
            for j, m in enumerate(sizes):
                entropy = full_entropy(head, queries, xs[:m])
                assert degenerate[j] == np.count_nonzero(entropy < DEGENERATE_ENTROPY_NATS)
                entropies.append(entropy)
                for i, q in enumerate(queries[:, 0]):
                    logits = q * xs[:m, 0]
                    if abs(logits.max()) > 600.0:   # past the oracle's raw exp range
                        logits = logits - logits.max()
                    expected = nw_reference(logits, xs[:m] @ head.wv)
                    assert estimates[j, i] == pytest.approx(expected, rel=1e-12, abs=1e-15)
        entropy = np.concatenate(entropies)
        assert np.count_nonzero(entropy < DEGENERATE_ENTROPY_NATS) > 100
        assert np.count_nonzero(entropy > 1.0) > 100


class TestBandwidthConcentration:
    def test_entropy_nonincreasing_in_dk_on_replicated_1d_family(self):
        # replicate one 1-D projection across d_k columns: logits scale as
        # sqrt(d_k) * (x * x_i), so concentration grows with d_k
        rng = np.random.default_rng(12)
        xs = rng.standard_normal((40, 1))
        data = make_data(xs)
        x = np.array([1.3])
        entropies = []
        for d_k in (1, 2, 4, 8, 16):
            w = Matrix(np.ones((1, d_k)))
            head = HeadConfig(wq=w, wk=w, wv=np.array([1.0]))
            out = attend(head, x, data)
            entropies.append(float(-(out.weights * np.log(out.weights)).sum()))
        assert all(entropies[i] >= entropies[i + 1] - 1e-12 for i in range(len(entropies) - 1))


class TestNWReference:
    def test_equal_logits_give_mean(self):
        values = np.array([1.0, 2.0, 6.0])
        assert nw_reference(np.zeros(3), values) == pytest.approx(values.mean())

    def test_dominant_logit(self):
        est = nw_reference(np.array([50.0, 0.0]), np.array([3.0, -5.0]))
        assert abs(est - 3.0) <= 1e-18 + 1e-15 * abs(est)

    def test_underflow_raises(self):
        with pytest.raises(DegenerateKernel):
            nw_reference(np.array([-800.0, -900.0]), np.array([1.0, 2.0]))

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatch):
            nw_reference(np.zeros(3), np.zeros(2))


class TestNWIdentity:
    def test_attend_equals_nw_reference_1000_random_instances(self):
        rng = np.random.default_rng(20250808)
        for trial in range(1000):
            p = int(rng.integers(1, 6))
            d_k = int(rng.integers(1, 5))
            n = int(rng.integers(1, 30))
            wq = rng.standard_normal((p, d_k))
            wk = rng.standard_normal((p, d_k))
            wv = rng.standard_normal(p)
            head = HeadConfig(wq=Matrix(wq), wk=Matrix(wk), wv=wv)
            xs = rng.standard_normal((n, p))
            x = rng.standard_normal(p)
            out = attend(head, x, make_data(xs))
            logits = (wq.T @ x) @ (xs @ wk).T / np.sqrt(d_k)
            expected = nw_reference(logits, xs @ wv)
            assert out.estimate == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_identity_on_sampled_task_data(self):
        task = make_task("quadratic", 4, 1.0, "gaussian")
        data = sample_dataset(task, 100, seed=5)
        head = make_head(4, 2, seed=9)
        x = np.full(4, 0.25)
        out = attend(head, x, data)
        logits = (head.wq.T @ x) @ (data.xs @ head.wk).T / np.sqrt(2)
        assert out.estimate == pytest.approx(nw_reference(logits, data.xs @ head.wv), rel=1e-12)

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import mha_nw_lab as lab
from mha_nw_lab import arch_search, decomposition
from mha_nw_lab.arch_search import enumerate_allocations, scaling_trend
from mha_nw_lab.errors import EmptySweep, ShapeMismatch, UnsupportedFamily
from mha_nw_lab.synthetic import RegressionTask, derive_seed, sample_dataset

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def divisor_oracle(D):
    """Brute-force divisor loop, independent of the library path."""
    out = []
    for d_k in range(1, D + 1):
        for H in range(1, D + 1):
            if H * d_k == D:
                out.append((H, d_k))
    return out


class TestEnumerateAllocations:
    def test_d8(self):
        assert enumerate_allocations(8) == [(8, 1), (4, 2), (2, 4), (1, 8)]

    def test_prime(self):
        assert enumerate_allocations(7) == [(7, 1), (1, 7)]

    def test_d12_against_oracle(self):
        got = enumerate_allocations(12)
        assert len(got) == 6
        assert got == divisor_oracle(12)

    def test_budget_exact(self):
        for D in (1, 6, 16, 30):
            for H, d_k in enumerate_allocations(D):
                assert H * d_k == D

    def test_invalid_budget(self):
        with pytest.raises(ShapeMismatch):
            enumerate_allocations(0)


def zero_mean_task():
    """A radial task of amplitude 0: its mean, and so its skeleton, is 0."""
    return RegressionTask(family="radial", p=8, sigma=0.0, input_law="gaussian",
                          param_seed=0, heteroscedastic=False,
                          params={"amplitude": 0.0, "scale": 1.5})


def one_sweep(task, D, n, R, Q, seed, query_gain=9.0):
    """The budget sweep at the one sample size n."""
    return arch_search._sweeps(task, D, [n], R, Q, seed, query_gain)[n]


@pytest.fixture(scope="module")
def sine_task():
    return lab.make_task("sine_mixture", 8, 1.0, "gaussian")


class TestSweepArchitectures:
    def test_rows_cover_divisors(self, sine_task):
        sweep = one_sweep(sine_task, 8, n=150, R=30, Q=16, seed=3)
        assert [(r.H, r.d_k) for r in sweep.rows] == [(8, 1), (4, 2), (2, 4), (1, 8)]

    def test_rows_reproduce_identity(self, sine_task):
        sweep = one_sweep(sine_task, 8, n=150, R=30, Q=16, seed=3)
        for row in sweep.rows:
            decomposed = row.bias_sq + row.var_term + row.cov_term
            assert decomposed == pytest.approx(row.mse, rel=1e-10)

    def test_determinism(self, sine_task):
        a = one_sweep(sine_task, 8, n=120, R=20, Q=8, seed=5)
        b = one_sweep(sine_task, 8, n=120, R=20, Q=8, seed=5)
        assert [(r.H, r.d_k, r.mse, r.stderr) for r in a.rows] == \
               [(r.H, r.d_k, r.mse, r.stderr) for r in b.rows]
        assert (a.argmin_H, a.argmin_dk) == (b.argmin_H, b.argmin_dk)

    def test_budget_exceeding_dimension_is_empty(self, sine_task, monkeypatch):
        # every allocation spends D key dimensions, so D > p is rejected
        # before a single divisor of D is tried
        def unreachable(D):
            raise AssertionError("enumerate_allocations called")

        monkeypatch.setattr(arch_search, "enumerate_allocations", unreachable)
        with pytest.raises(EmptySweep, match=f"D = {10**12}: .* p = 8"):
            one_sweep(sine_task, 10**12, n=100, R=10, Q=8, seed=1)
        with pytest.raises(EmptySweep, match="D = 16"):
            one_sweep(sine_task, 16, n=100, R=10, Q=8, seed=1)

    def test_zero_skeleton_task_raises_before_any_draw(self, monkeypatch):
        # mean identically zero: no value direction, so the sweep is refused
        # before the frame or any dataset is drawn
        draws = []
        monkeypatch.setattr(arch_search, "qr_orthonormalize", lambda *a: draws.append(a))
        monkeypatch.setattr(decomposition, "sample_dataset", lambda *a: draws.append(a))
        with pytest.raises(UnsupportedFamily, match=r"\(radial under the gaussian law\)"):
            one_sweep(zero_mean_task(), 8, n=60, R=10, Q=8, seed=2)
        assert not draws

    def test_noiseless_smooth_task_bias_dominated(self):
        # moderate kernel gain plus large n makes the variance term
        # negligible; the sweep is then pure bias comparison and the argmin
        # lands at the largest feasible d_k
        task = lab.make_task("sine_mixture", 8, 0.0, "gaussian")
        sweep = one_sweep(task, 8, n=3000, R=40, Q=24, seed=7, query_gain=2.0)
        for row in sweep.rows:
            assert row.var_term <= 0.05 * row.bias_sq
        assert sweep.argmin_dk == 8

    def test_full_size_sweep_has_an_interior_argmin(self):
        # full-size configuration: >= 4 allocations and an interior optimum
        task = lab.make_task("sine_mixture", 16, 1.0, "gaussian")
        sweep = one_sweep(task, 16, n=1000, R=60, Q=48, seed=1, query_gain=9.0)
        assert sweep.argmin_dk not in (1, 16)


class TestScalingTrend:
    def test_needs_three_points(self, sine_task):
        with pytest.raises(ShapeMismatch):
            scaling_trend(sine_task, 8, [100], R=10, Q=8, seed=1)
        with pytest.raises(ShapeMismatch):
            scaling_trend(sine_task, 8, [100, 200], R=10, Q=8, seed=1)

    def test_grid_must_ascend(self, sine_task):
        with pytest.raises(ShapeMismatch):
            scaling_trend(sine_task, 8, [400, 200, 100], R=10, Q=8, seed=1)

    @pytest.mark.parametrize("law", ["gaussian", "uniform"])
    @pytest.mark.parametrize("family", ["quadratic", "radial"])
    def test_zero_skeleton_task_raises_before_any_draw(self, monkeypatch, family, law):
        draws = []
        monkeypatch.setattr(arch_search, "qr_orthonormalize", lambda *a: draws.append(a))
        monkeypatch.setattr(decomposition, "sample_dataset", lambda *a: draws.append(a))
        task = lab.make_task(family, 8, 0.0, law)
        with pytest.raises(UnsupportedFamily, match=r"task\.family and task\.input_law .* "
                                                    rf"\({family} under the {law} law\)"):
            scaling_trend(task, 8, [50, 100, 200], R=8, Q=8, seed=2)
        assert not draws

    def test_one_engine_call_draws_once_per_replicate_at_the_largest_n(self, sine_task,
                                                                       monkeypatch):
        # one worker: draws made in a forked worker are not seen by this process
        monkeypatch.setenv("MHA_NW_LAB_THREADS", "1")
        calls, draws = [], []
        engine = decomposition._head_tensor

        def counting_engine(*args):
            calls.append(args)
            return engine(*args)

        def counting_draw(task, n, seed):
            draws.append((n, seed))
            return sample_dataset(task, n, seed)

        monkeypatch.setattr(decomposition, "_head_tensor", counting_engine)
        monkeypatch.setattr(decomposition, "sample_dataset", counting_draw)
        scaling_trend(sine_task, 8, [50, 100, 200], R=6, Q=8, seed=4)
        assert len(calls) == 1
        assert sorted(draws) == sorted((200, derive_seed(4, "data", r)) for r in range(6))

    def test_trend_equals_one_sweep_per_size(self, sine_task):
        trend = scaling_trend(sine_task, 8, [50, 100, 200], R=6, Q=8, seed=4)
        # the smallest n is the first column segment of every head's pass, so it
        # is bit-equal; a larger n merges segments and moves in the last bits
        assert trend.sweeps[50] == one_sweep(sine_task, 8, 50, R=6, Q=8, seed=4)
        for n in (100, 200):
            got = trend.sweeps[n]
            want = one_sweep(sine_task, 8, n, R=6, Q=8, seed=4)
            assert (got.argmin_H, got.argmin_dk, got.flat) == (
                want.argmin_H, want.argmin_dk, want.flat)
            np.testing.assert_allclose([dataclasses.astuple(r) for r in got.rows],
                                       [dataclasses.astuple(r) for r in want.rows],
                                       rtol=1e-12, atol=1e-15)

    def test_worker_counts_give_bit_identical_trends(self, sine_task, monkeypatch):
        # B = 2 at n = 200: three batches, so 2 and 4 workers fork
        monkeypatch.setattr(decomposition, "BATCH_BYTES", 2 * 8 * 200 * 8)
        trends = []
        for workers in ("1", "2", "4"):
            monkeypatch.setenv("MHA_NW_LAB_THREADS", workers)
            trends.append(scaling_trend(sine_task, 8, [50, 100, 200], R=6, Q=8, seed=4))
        assert trends[0] == trends[1] == trends[2]

    def test_log_slope_is_the_centred_closed_form(self, sine_task, monkeypatch):
        # a d_k* that does not move reads exactly 0, not least-squares rounding;
        # a moving one agrees with least squares
        for dks in ((4, 4, 4), (2, 2, 2, 2), (1, 2, 2, 4), (2, 8, 4)):
            n_grid = [250, 1000, 4000, 16000][:len(dks)]
            monkeypatch.setattr(arch_search, "_sweeps", lambda task, D, ns, *rest: {
                n: SimpleNamespace(argmin_dk=dk, argmin_H=16 // dk, flat=False)
                for n, dk in zip(ns, dks)})
            trend = scaling_trend(sine_task, 16, n_grid, R=2, Q=1, seed=0)
            if len(set(dks)) == 1:
                assert trend.log_slope == 0.0
                continue
            design = np.stack([np.ones(len(n_grid)), np.log(n_grid)], axis=1)
            want = np.linalg.lstsq(design, np.array(dks, dtype=float), rcond=None)[0][1]
            assert trend.log_slope == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_directional_run(self, sine_task):
        trend = scaling_trend(sine_task, 8, [100, 300, 900], R=40, Q=24, seed=9,
                              query_gain=9.0)
        ns = [row[0] for row in trend.rows]
        dks = [row[1] for row in trend.rows]
        assert trend.nondecreasing == all(a <= b for a, b in zip(dks, dks[1:]))
        assert trend.sublinear == (dks[-1] / dks[0] < ns[-1] / ns[0])
        assert all(1 <= dk <= 8 for dk in dks)
        assert len(trend.sweeps) == 3

    @pytest.mark.parametrize("n_grid, dks, nondecreasing, sublinear", [
        ([100, 200, 300], (1, 8, 4), False, False),   # d_k* falls, after a superlinear rise
        ([100, 300, 900], (8, 4, 2), False, True),
        ([100, 200, 400], (1, 2, 4), True, False),    # linear in n is not sublinear
    ], ids=["falls-superlinear", "falls", "linear"])
    def test_verdicts_on_set_argmins(self, sine_task, monkeypatch, n_grid, dks,
                                     nondecreasing, sublinear):
        monkeypatch.setattr(arch_search, "_sweeps", lambda task, D, ns, *rest: {
            n: SimpleNamespace(argmin_dk=dk, argmin_H=8 // dk, flat=False)
            for n, dk in zip(ns, dks)})
        trend = scaling_trend(sine_task, 8, n_grid, R=2, Q=1, seed=0)
        assert (trend.nondecreasing, trend.sublinear) == (nondecreasing, sublinear)


class TestSummarise:
    @pytest.mark.parametrize("order", [1, -1], ids=["ascending-dk", "descending-dk"])
    def test_exact_ties_go_to_the_larger_H_and_read_flat(self, order):
        # every allocation with the same report: an exact tie at each row
        points = [(tuple(SimpleNamespace(d_k=d_k) for _ in range(H)), None)
                  for H, d_k in enumerate_allocations(8)][::order]
        report = SimpleNamespace(mse_direct=0.25, stderr={"mse_direct": 0.01},
                                 ensemble_bias_sq=0.2, variance_term=0.05, covariance_term=0.0)
        sweep = arch_search._summarise(points, [report] * len(points))
        assert {row.mse for row in sweep.rows} == {0.25}
        assert (sweep.argmin_H, sweep.argmin_dk) == (8, 1)
        assert sweep.flat

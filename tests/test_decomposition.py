import dataclasses
import os
import signal
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import mha_nw_lab as lab
from mha_nw_lab import decomposition
from mha_nw_lab.decomposition import (
    DEGENERATE_ENTROPY_NATS,
    ExperimentPlan,
    FamilySpec,
    _decompose_tensor,
    _head_tensor,
    hdi_sweep,
    mc_decompose,
    spearman,
    weighting_compare,
)
from mha_nw_lab.diversity import make_projection_family
from mha_nw_lab.errors import LabError, NeedsTwoHeads, ReplicateFailure, ShapeMismatch
from mha_nw_lab.mha import make_weights
from mha_nw_lab.nw_attention import HeadConfig, attend, attend_many
from mha_nw_lab.synthetic import RegressionTask, derive_seed, sample_dataset, sample_queries
from mha_nw_lab.tensor_core import Matrix

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def bootstrap_stderr(values: np.ndarray, seed: int, resamples: int = 200) -> float:
    """Bootstrap stderr of the mean of replicate-level statistics, an oracle
    for the influence-function standard errors on small runs."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    rng = np.random.default_rng(int(seed))
    idx = rng.integers(0, values.shape[0], size=(resamples, values.shape[0]))
    return float(values[idx].mean(axis=1).std(ddof=1))


def quick_plan(task, p=8, d_k=2, H=4, mix=1.0, n=300, R=120, Q=32, master=7,
               gain=4.0, weights=None, noise_scales=None):
    spec = FamilySpec(p=p, d_k=d_k, H=H, mix=mix, query_gain=gain,
                      noise_scales=noise_scales)
    return ExperimentPlan(
        task=task, projection=spec,
        weights=make_weights("uniform", H) if weights is None else weights,
        n=n, R=R, Q=Q, master_seed=master,
    )


@pytest.fixture(scope="module")
def quad_task():
    return lab.make_task("quadratic", 8, 1.0, "gaussian")


@pytest.fixture(scope="module")
def orth_report(quad_task):
    plan = quick_plan(quad_task, mix=1.0, n=300, R=150, Q=32, master=11)
    return plan, mc_decompose(plan)


class TestPlanValidation:
    def test_needs_two_replicates(self, quad_task):
        with pytest.raises(ShapeMismatch):
            quick_plan(quad_task, R=1)

    def test_dimension_agreement(self):
        task = lab.make_task("quadratic", 6, 1.0, "gaussian")
        with pytest.raises(ShapeMismatch):
            quick_plan(task, p=8)

    def test_weight_count(self, quad_task):
        with pytest.raises(ShapeMismatch):
            quick_plan(quad_task, weights=make_weights("uniform", 3))

    @pytest.mark.parametrize("weights", [
        np.array([0.0, 0.25, 0.25, 0.5]),     # not positive
        np.array([-0.25, 0.5, 0.25, 0.5]),
        np.array([np.nan, 0.25, 0.25, 0.5]),  # not finite
        np.array([0.1, 0.1, 0.1, 0.1]),       # not summing to one
    ])
    def test_bad_weight_vector(self, quad_task, weights):
        with pytest.raises(ShapeMismatch):
            quick_plan(quad_task, weights=weights)

    def test_holds_a_read_only_copy(self, quad_task):
        weights = np.full(4, 0.25)
        plan = quick_plan(quad_task, weights=weights)
        weights[0] = 0.7
        np.testing.assert_array_equal(plan.weights, np.full(4, 0.25))
        assert not plan.weights.flags.writeable


class TestDecompositionIdentity:
    def test_identity_residual_is_float_noise(self, orth_report):
        _, report = orth_report
        assert report.identity_residual <= 1e-12 * max(1.0, report.mse_direct)
        assert report.identity_residual <= 4.0 * report.stderr["identity_residual"]

    def test_decomposed_equals_direct(self, orth_report):
        _, report = orth_report
        decomposed = report.ensemble_bias_sq + report.variance_term + report.covariance_term
        assert decomposed == pytest.approx(report.mse_direct, rel=1e-12)

    def test_cov_diagonal_equals_per_head_var(self, orth_report):
        _, report = orth_report
        np.testing.assert_array_equal(np.diag(report.cross_cov), report.per_head_var)

    def test_uniform_variance_term_is_mean_over_H_squared(self, orth_report):
        plan, report = orth_report
        H = plan.projection.H
        expected = report.per_head_var.sum() / H**2
        assert report.variance_term == pytest.approx(expected, rel=1e-12)

    def test_cov_matrix_psd_up_to_noise(self, orth_report):
        _, report = orth_report
        eigs = np.linalg.eigvalsh(report.cross_cov)
        assert eigs.min() >= -4.0 * report.cov_stderr.max()

    def test_mse_replicates_average_to_direct(self, orth_report):
        _, report = orth_report
        assert report.mse_replicates.mean() == pytest.approx(report.mse_direct, rel=1e-14)


class TestAgainstBruteForce:
    def test_statistics_match_loop_oracle(self, quad_task):
        """Recompute every statistic with plain loops: each term from its
        per-query form (the module docstring's) and each stderr from its
        per-replicate statistic, for three weight vectors reduced together."""
        plan = quick_plan(quad_task, n=80, R=25, Q=6, master=55)
        proj = plan.resolve_projection()
        queries, [(E, degenerate)] = _head_tensor(quad_task, [(plan.n, proj)], plan.R,
                                                  plan.Q, plan.master_seed)
        m_q = quad_task.mean(queries)
        R, H, Q = E.shape
        alpha_sets = [make_weights("uniform", H),
                      make_weights("geometric", H, rho=0.5),
                      make_weights("custom", H, custom=np.array([0.1, 0.2, 0.3, 0.4]))]
        reports = _decompose_tensor(E, degenerate, m_q, alpha_sets)

        def stderr(t):
            mean = sum(t) / len(t)
            return np.sqrt(sum((x - mean) ** 2 for x in t) / (len(t) - 1) / len(t))

        Ebar = [[sum(E[r, h, q] for r in range(R)) / R for q in range(Q)] for h in range(H)]
        # S[h][g][q]: per-query sample covariance, R - 1 denominator
        S = [[[sum((E[r, h, q] - Ebar[h][q]) * (E[r, g, q] - Ebar[g][q]) for r in range(R))
               / (R - 1) for q in range(Q)] for g in range(H)] for h in range(H)]
        # pair[r][h][g]: replicate r's pair statistic, whose mean is the covariance
        pair = [[[sum((E[r, h, q] - Ebar[h][q]) * (E[r, g, q] - Ebar[g][q]) for q in range(Q))
                  / Q * R / (R - 1) for g in range(H)] for h in range(H)] for r in range(R)]
        cov = [[sum(S[h][g]) / Q for g in range(H)] for h in range(H)]
        cov_se = [[stderr([pair[r][h][g] for r in range(R)]) for g in range(H)] for h in range(H)]
        head_bias = [[sum(E[r, h, q] - m_q[q] for q in range(Q)) / Q for r in range(R)]
                     for h in range(H)]
        head_mse = [[sum((E[r, h, q] - m_q[q]) ** 2 for q in range(Q)) / Q for r in range(R)]
                    for h in range(H)]
        for report in reports:
            np.testing.assert_allclose(report.cross_cov, cov, rtol=1e-10)
            np.testing.assert_allclose(report.per_head_var, np.diag(cov), rtol=1e-10)
            np.testing.assert_allclose(report.cov_stderr, cov_se, rtol=1e-9)
            for h, (bias, mse) in enumerate(zip(head_bias, head_mse)):
                assert report.per_head_bias[h] == pytest.approx(sum(bias) / R, rel=1e-9, abs=1e-12)
                assert report.per_head_mse[h] == pytest.approx(sum(mse) / R, rel=1e-12)
                assert report.stderr["per_head_bias"][h] == pytest.approx(stderr(bias), rel=1e-9)
                assert report.stderr["per_head_mse"][h] == pytest.approx(stderr(mse), rel=1e-9)

        for alphas, report in zip(alpha_sets, reports):
            Y = [[sum(alphas[h] * E[r, h, q] for h in range(H)) for q in range(Q)]
                 for r in range(R)]
            Ybar = [sum(Y[r][q] for r in range(R)) / R for q in range(Q)]
            S2Y = [sum(alphas[h] * alphas[g] * S[h][g][q] for h in range(H) for g in range(H))
                   for q in range(Q)]
            var_q = [sum(alphas[h] ** 2 * S[h][h][q] for h in range(H)) for q in range(Q)]
            cov_q = [sum(alphas[h] * alphas[g] * S[h][g][q]
                         for h in range(H) for g in range(H) if g != h) for q in range(Q)]
            bias_q = [(Ybar[q] - m_q[q]) ** 2 - S2Y[q] / R for q in range(Q)]
            mse = [sum((Y[r][q] - m_q[q]) ** 2 for q in range(Q)) / Q for r in range(R)]
            assert report.ensemble_bias_sq == pytest.approx(sum(bias_q) / Q, rel=1e-10)
            assert report.variance_term == pytest.approx(sum(var_q) / Q, rel=1e-10)
            assert report.covariance_term == pytest.approx(sum(cov_q) / Q, rel=1e-9, abs=1e-12)
            assert report.mse_direct == pytest.approx(sum(mse) / R, rel=1e-12)

            t_var = [sum(alphas[h] ** 2 * pair[r][h][h] for h in range(H)) for r in range(R)]
            t_cov = [sum(alphas[h] * alphas[g] * pair[r][h][g]
                         for h in range(H) for g in range(H) if g != h) for r in range(R)]
            t_b2 = [2.0 * sum((Y[r][q] - Ybar[q]) * (Ybar[q] - m_q[q]) for q in range(Q)) / Q
                    for r in range(R)]
            for name, t in (("mse_direct", mse), ("variance_term", t_var),
                            ("covariance_term", t_cov), ("ensemble_bias_sq", t_b2)):
                assert report.stderr[name] == pytest.approx(stderr(t), rel=1e-9), name


@pytest.fixture(scope="module")
def identical_report(quad_task):
    plan = quick_plan(quad_task, mix=0.0, n=300, R=100, Q=24, master=13)
    return plan, mc_decompose(plan)


class TestIdenticalHeads:
    def test_cross_cov_equals_variance_exactly(self, identical_report):
        _, report = identical_report
        H = 4
        for h in range(H):
            for h2 in range(H):
                assert report.cross_cov[h, h2] == report.per_head_var[h]

    def test_variance_gain_collapses(self, identical_report):
        # perfectly correlated heads: var_term + cov_term == single-head var
        _, report = identical_report
        total = report.variance_term + report.covariance_term
        assert total == pytest.approx(report.per_head_var[0], rel=1e-10)


class TestOrthogonalCovariance:
    def test_all_pairs_within_4_stderr(self, orth_report):
        _, report = orth_report
        H = 4
        for h in range(H):
            for h2 in range(h + 1, H):
                assert abs(report.cross_cov[h, h2]) <= 4.0 * report.cov_stderr[h, h2]


class TestNoiselessLinear:
    def test_variance_negligible_mse_is_bias(self):
        task = lab.make_task("linear", 4, 0.0, "gaussian")
        plan = quick_plan(task, p=4, d_k=2, H=1, n=500, R=200, Q=32, master=7,
                          weights=make_weights("uniform", 1))
        report = mc_decompose(plan)
        assert report.covariance_term == 0.0
        assert report.ensemble_bias_sq >= 0.85 * report.mse_direct
        assert report.variance_term <= 0.15 * report.mse_direct


class TestDeterminism:
    def test_same_plan_same_report(self, quad_task):
        plan = quick_plan(quad_task, n=100, R=40, Q=8, master=99)
        a = mc_decompose(plan)
        b = mc_decompose(plan)
        assert a.mse_direct == b.mse_direct
        np.testing.assert_array_equal(a.cross_cov, b.cross_cov)
        np.testing.assert_array_equal(a.mse_replicates, b.mse_replicates)

    def test_thread_counts_do_not_change_results(self, quad_task, monkeypatch):
        plan = quick_plan(quad_task, n=100, R=40, Q=8, master=98)
        monkeypatch.setenv("MHA_NW_LAB_THREADS", "1")
        a = mc_decompose(plan)
        for workers in ("2", "4"):
            monkeypatch.setenv("MHA_NW_LAB_THREADS", workers)
            b = mc_decompose(plan)
            assert a.mse_direct == b.mse_direct
            np.testing.assert_array_equal(a.cross_cov, b.cross_cov)
            np.testing.assert_array_equal(a.mse_replicates, b.mse_replicates)


class TestWorkerCount:
    @pytest.mark.parametrize("threads", [None, "0"])
    def test_auto_counts_the_cpus_the_process_may_use(self, monkeypatch, threads):
        if threads is None:
            monkeypatch.delenv("MHA_NW_LAB_THREADS", raising=False)
        else:
            monkeypatch.setenv("MHA_NW_LAB_THREADS", threads)
        # e.g. under taskset -c 0 on a 2-CPU host: one usable CPU, not two
        monkeypatch.setattr(decomposition.os, "cpu_count", lambda: 2)
        for usable, want in (({0}, 1), (set(range(32)), 8)):
            monkeypatch.setattr(decomposition.os, "sched_getaffinity", lambda pid: usable,
                                raising=False)
            assert decomposition.worker_count() == want
        # a platform without affinity falls back to the CPU count, same cap
        monkeypatch.delattr(decomposition.os, "sched_getaffinity")
        for cpus, want in ((3, 3), (32, 8), (None, 1)):
            monkeypatch.setattr(decomposition.os, "cpu_count", lambda: cpus)
            assert decomposition.worker_count() == want


class TestStderrMachinery:
    def test_influence_vs_bootstrap(self, orth_report):
        _, report = orth_report
        boot = bootstrap_stderr(report.mse_replicates, seed=3)
        assert boot == pytest.approx(report.stderr["mse_direct"], rel=0.35)

    def test_residual_stderr_is_quadrature_sum(self, orth_report):
        _, report = orth_report
        expected = np.sqrt(
            report.stderr["mse_direct"]**2 + report.stderr["variance_term"]**2
            + report.stderr["covariance_term"]**2 + report.stderr["ensemble_bias_sq"]**2
        )
        assert report.stderr["identity_residual"] == pytest.approx(expected, rel=1e-12)


class TestReplicateEngine:
    @staticmethod
    def head_sets(task):
        """Identical heads (mix 0), distinct heads, and sharp heads with degenerate rows."""
        return [
            make_projection_family(8, 2, 4, mix=mix, seed=5, query_gain=gain)
            for mix, gain in ((0.0, 4.0), (0.5, 4.0), (1.0, 60.0))
        ]

    @staticmethod
    def counting(monkeypatch, name, fn, owner=decomposition):
        # one worker: calls made in a forked worker are not seen by this process
        monkeypatch.setenv("MHA_NW_LAB_THREADS", "1")
        calls = []

        def wrapper(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
        return calls

    def test_joint_call_equals_one_call_per_set(self, quad_task):
        sets = [(60, heads) for heads in self.head_sets(quad_task)]
        queries, joint = _head_tensor(quad_task, sets, 6, 8, 21)
        assert joint[2][1].sum() > 0   # the sharp set has degenerate counts to compare
        for head_set, (E, degenerate) in zip(sets, joint):
            queries1, [(E1, degenerate1)] = _head_tensor(quad_task, [head_set], 6, 8, 21)
            np.testing.assert_array_equal(E, E1)
            np.testing.assert_array_equal(queries, queries1)
            np.testing.assert_array_equal(degenerate, degenerate1)

    def test_joint_call_over_sizes_equals_one_call_per_size(self, quad_task):
        sizes = (60, 90, 120)
        sets = [(n, heads) for n in sizes for heads in self.head_sets(quad_task)]
        queries, joint = _head_tensor(quad_task, sets, 6, 8, 21)
        assert all(joint[s][1].sum() > 0 for s in (2, 5, 8))   # the sharp sets
        by_size = {n: [t for (m, _), t in zip(sets, joint) if m == n] for n in sizes}
        for n in sizes:
            queries1, per_size = _head_tensor(
                quad_task, [(m, heads) for m, heads in sets if m == n], 6, 8, 21)
            np.testing.assert_array_equal(queries, queries1)
            for (E, degenerate), (E1, degenerate1) in zip(by_size[n], per_size):
                np.testing.assert_array_equal(degenerate, degenerate1)
                if n == sizes[0]:   # the first column segment is the one-n pass itself
                    np.testing.assert_array_equal(E, E1)
                else:               # later prefixes merge segments: last bits only
                    np.testing.assert_allclose(E, E1, rtol=1e-12, atol=1e-15)

    def test_same_size_grid_is_bit_exact_across_head_sets(self, quad_task):
        sizes = (60, 90, 120)
        sets = [(n, heads) for n in sizes for heads in self.head_sets(quad_task)]
        _, joint = _head_tensor(quad_task, sets, 6, 8, 21)
        for i, heads in enumerate(self.head_sets(quad_task)):
            _, alone = _head_tensor(quad_task, [(n, heads) for n in sizes], 6, 8, 21)
            for (E, degenerate), (E1, degenerate1) in zip(joint[i::3], alone):
                np.testing.assert_array_equal(E, E1)
                np.testing.assert_array_equal(degenerate, degenerate1)

    def test_each_dataset_is_drawn_once_per_call(self, quad_task, monkeypatch):
        draws = self.counting(monkeypatch, "sample_dataset", sample_dataset)
        _head_tensor(quad_task, [(60, heads) for heads in self.head_sets(quad_task)],
                     6, 8, 21)
        assert len(draws) == 6
        assert len({seed for _, _, seed in draws}) == 6

    def test_each_replicate_draws_once_at_the_largest_size(self, quad_task, monkeypatch):
        draws = self.counting(monkeypatch, "sample_dataset", sample_dataset)
        heads = self.head_sets(quad_task)[1]
        _head_tensor(quad_task, [(60, heads), (90, heads), (60, heads[:2])], 6, 8, 21)
        assert sorted((n, seed) for _, n, seed in draws) == sorted(
            (90, derive_seed(21, "data", r)) for r in range(6))

    def test_the_mean_is_evaluated_only_at_the_queries(self, quad_task, monkeypatch):
        # heads read no responses, so no replicate evaluates m or draws noise
        means = self.counting(monkeypatch, "mean", RegressionTask.mean, RegressionTask)
        noise = self.counting(monkeypatch, "noise_sd", RegressionTask.noise_sd, RegressionTask)
        plan = quick_plan(quad_task, n=60, R=6, Q=8, master=21)
        mc_decompose(plan)
        assert noise == []
        [(task, points)] = means
        assert task is quad_task
        np.testing.assert_array_equal(points, sample_queries(quad_task, 8, derive_seed(21, "query")))

    def test_identical_heads_run_once_per_replicate(self, quad_task, monkeypatch):
        heads = self.head_sets(quad_task)[0]
        evals = self.counting(monkeypatch, "attend_many", attend_many)
        _, [(E, _)] = _head_tensor(quad_task, [(60, heads)], 6, 8, 21)
        assert len(evals) == 6
        for h in range(1, 4):
            np.testing.assert_array_equal(E[:, h], E[:, 0])

    def test_estimates_equal_single_query_attend(self, quad_task):
        heads = self.head_sets(quad_task)[1]
        queries, [(E, _)] = _head_tensor(quad_task, [(60, heads)], 3, 4, 21)
        for r in range(3):
            data = sample_dataset(quad_task, 60, derive_seed(21, "data", r))
            single = [[attend(head, x, data).estimate for x in queries] for head in heads]
            np.testing.assert_allclose(E[r], single, rtol=1e-12, atol=1e-15)

    def test_reports_follow_the_sets_in_input_order(self, quad_task, monkeypatch):
        identical, distinct, sharp = self.head_sets(quad_task)
        uniform = make_weights("uniform", 4)
        three = [uniform, make_weights("fibonacci", 4),
                 make_weights("geometric", 4, rho=0.5)]
        sets = [(90, distinct, three), (60, identical, [uniform]), (60, sharp, [three[2]]),
                (90, identical, three[1:2])]
        reductions = self.counting(monkeypatch, "_decompose_tensor", _decompose_tensor)
        with pytest.warns(RuntimeWarning, match="degenerate") as record:
            joint = decomposition._reports(quad_task, sets, 6, 8, 21)
        assert [len(alpha_sets) for *_, alpha_sets in reductions] == [3, 1, 1, 1]
        assert len(record) == 1
        assert "in head set 3 of 4 (6 replicates) at n=60, H=4" in str(record[0].message)
        alone = [report for head_set in sets
                 for report in decomposition._reports(quad_task, [head_set], 6, 8, 21)]
        assert len(joint) == len(alone) == 6
        for got, want in zip(joint[:5], alone[:5]):
            for field in dataclasses.fields(got):
                np.testing.assert_equal(getattr(got, field.name), getattr(want, field.name))
        # the identical heads run at n = 60 and 90 in one pass, so the n = 90
        # set merges two segments where its lone call has one: last bits move
        got, want = joint[5], alone[5]
        assert got.degenerate_weights == want.degenerate_weights
        for field in dataclasses.fields(got):
            if field.name == "stderr":
                for key, value in got.stderr.items():
                    assert value == pytest.approx(want.stderr[key], rel=1e-12, abs=1e-15)
            else:
                np.testing.assert_allclose(getattr(got, field.name), getattr(want, field.name),
                                           rtol=1e-12, atol=1e-15)

    @staticmethod
    def overflowing(head):
        """``head`` with a value vector at the float ceiling, so that its
        estimates overflow from replicate 0 on."""
        return HeadConfig(wq=head.wq, wk=head.wk, wv=np.full(head.wv.shape, 1e308))

    @staticmethod
    def uniform_sets(sets):
        return [(n, heads, [make_weights("uniform", len(heads))]) for n, heads in sets]

    def test_failure_names_the_head_inside_its_set(self, quad_task):
        distinct = self.head_sets(quad_task)[1]
        bad = self.overflowing(distinct[1])
        with pytest.raises(ReplicateFailure) as excinfo:
            decomposition._reports(quad_task, self.uniform_sets(
                [(50, distinct), (50, (distinct[0], bad))]), 4, 4, 1)
        assert excinfo.value.replicate == 0
        assert excinfo.value.head == 1
        assert 0 <= excinfo.value.query < 4

    def test_failure_at_one_replicate_names_the_first_set(self, quad_task):
        # both sets fail at replicate 0, the first at head 1 and the second at
        # head 0: ordering by (replicate, head, query) alone would name head 0
        distinct = self.head_sets(quad_task)[1]
        bad = self.overflowing(distinct[1])
        with pytest.raises(ReplicateFailure) as excinfo:
            decomposition._reports(quad_task, self.uniform_sets(
                [(50, (distinct[0], bad)), (50, (bad, distinct[0]))]), 4, 4, 1)
        assert (excinfo.value.replicate, excinfo.value.head) == (0, 1)

    def test_failure_at_a_lower_replicate_names_a_later_set(self, quad_task, monkeypatch):
        # every replicate draws at n = 60: a NaN input at index 55 reaches
        # only the second set (n = 60), at replicate 1; one at index 7 reaches
        # both sets, at replicate 3
        nan_at = {derive_seed(21, "data", 1): 55, derive_seed(21, "data", 3): 7}

        def draw(task, n, seed):
            data = sample_dataset(task, n, seed)
            if seed in nan_at:
                xs = data.xs.copy()
                xs[nan_at[seed]] = np.nan
                data = dataclasses.replace(data, xs=xs)
            return data

        monkeypatch.setattr(decomposition, "sample_dataset", draw)
        heads = self.head_sets(quad_task)[1]
        with pytest.raises(ReplicateFailure,
                           match="non-finite head estimate at replicate 1, head 0, query 0"):
            decomposition._reports(quad_task, self.uniform_sets([(50, heads), (60, heads)]),
                                   6, 8, 21)

    def test_a_failing_run_issues_no_warning(self):
        # the first set's sharp heads have degenerate rows, the second overflows
        task = lab.make_task("quadratic", 4, 1.0, "gaussian")
        sharp = make_projection_family(4, 1, 2, mix=1.0, seed=3, query_gain=200.0)
        with pytest.warns(RuntimeWarning, match="degenerate"):
            decomposition._reports(task, self.uniform_sets([(50, sharp)]), 10, 8, 3)
        sets = self.uniform_sets([(50, sharp), (50, tuple(map(self.overflowing, sharp)))])
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            with pytest.raises(ReplicateFailure):
                decomposition._reports(task, sets, 10, 8, 3)
        assert record == []

    @pytest.mark.skipif(not os.path.isfile("/proc/self/status"), reason="reads VmHWM in /proc")
    def test_the_caller_holds_one_whole_set_at_a_time(self, package_env):
        # K = 12 copies of one 3.3 MB set run as one set's compute (the heads
        # are deduplicated); at 2 workers the caller maps its own half of every
        # copy and one whole copy at a time, about 7 tensors, where holding
        # every copy whole would be about 12.  The peak is VmHWM, that of the
        # process image: ru_maxrss also counts the RSS of the pytest process
        # that spawned it, which can exceed the K = 1 peak and hide the growth
        script = (
            "import mha_nw_lab as lab\n"
            "from mha_nw_lab.decomposition import _reports\n"
            "from mha_nw_lab.diversity import make_projection_family\n"
            "from mha_nw_lab.mha import make_weights\n"
            "task = lab.make_task('quadratic', 8, 1.0, 'gaussian')\n"
            "heads = make_projection_family(8, 2, 4, mix=1.0, seed=5)\n"
            "one = (20, heads, [make_weights('uniform', 4)])\n"
            "peaks = []\n"
            "for K in (1, 12):\n"
            "    _reports(task, [one] * K, 200, 512, 21)\n"
            "    peaks += [int(line.split()[1]) for line in open('/proc/self/status')\n"
            "              if line.startswith('VmHWM:')]\n"
            "print(peaks[1] - peaks[0])\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=package_env(MHA_NW_LAB_THREADS="2"))
        assert proc.returncode == 0, proc.stderr
        tensor_kb = 200 * 4 * 512 * 8 / 1024
        assert int(proc.stdout) < 8 * tensor_kb


class TestSharedProjection:
    """The engine projects each replicate's inputs once for all heads; every
    head's estimates and degenerate counts are those of its own attend_many
    call, which projects them itself."""

    @staticmethod
    def heads(kind):
        rng = np.random.default_rng(9)
        frame = np.linalg.qr(rng.standard_normal((8, 8)))[0]
        if kind == "frame-slices":   # sweep-arch's shape: allocations of one frame
            cols = [[0], [1], [2], [3], [0, 1], [2, 3], [0, 1, 2, 3]]
        else:                        # columns reused in another order, or new with old
            cols = [[0, 1, 2, 3], [3, 1], [2, 0, 1], [5, 4], [4], [1, 2]]
        wvs = rng.standard_normal((len(cols), 8)) if kind == "distinct-wv" else [frame[:, 0]] * 7
        gains = [6.0, 12.0, 30.0, 60.0]
        return tuple(HeadConfig(wq=Matrix(gains[h % 4] * frame[:, c]), wk=Matrix(frame[:, c]), wv=wv)
                     for h, (c, wv) in enumerate(zip(cols, wvs)))

    @pytest.mark.parametrize("kind", ["frame-slices", "reordered", "distinct-wv"])
    def test_engine_equals_per_head_calls(self, quad_task, kind, monkeypatch):
        heads = self.heads(kind)
        sets = [(40, heads), (70, heads[::2]), (70, heads[1:2])]
        keys = []

        def kernel(*args, projected):
            keys.append(projected[1])
            return attend_many(*args, projected=projected)

        monkeypatch.setattr(decomposition, "attend_many", kernel)
        monkeypatch.setenv("MHA_NW_LAB_THREADS", "1")
        queries, tensors = _head_tensor(quad_task, sets, 4, 8, 21)
        if kind == "frame-slices":   # every head's keys are a view of one projection
            assert all(np.shares_memory(k, keys[-1]) for k in keys[-len(heads):])
        degenerate = [np.zeros(len(hs), int) for _, hs in sets]
        for r in range(4):
            data = sample_dataset(quad_task, 70, derive_seed(21, "data", r))
            for head in heads:
                held = [(s, n, [x is head for x in hs].index(True))
                        for s, (n, hs) in enumerate(sets) if any(x is head for x in hs)]
                sizes = sorted({n for _, n, _ in held})
                est, counts = attend_many(head, queries, data, sizes)
                for s, n, h in held:
                    np.testing.assert_allclose(tensors[s][0][r, h], est[sizes.index(n)],
                                               rtol=1e-12, atol=1e-15)
                    degenerate[s][h] += counts[sizes.index(n)]
        assert sum(d.sum() for d in degenerate) > 0
        for (_, got), want in zip(tensors, degenerate):
            np.testing.assert_array_equal(got, want)


class TestReplicateFailure:
    def test_overflowing_values_name_the_indices(self, quad_task):
        from mha_nw_lab.errors import ReplicateFailure

        # a value vector at the float ceiling overflows the weighted sum
        base = make_projection_family(8, 2, 2, mix=1.0, seed=3, query_gain=4.0)
        heads = tuple(
            HeadConfig(wq=h.wq, wk=h.wk, wv=np.full(8, 1e308)) for h in base
        )
        sets = [(50, heads, [make_weights("uniform", 2)])]
        with pytest.raises(ReplicateFailure) as excinfo:
            decomposition._reports(quad_task, sets, R=4, Q=4, master_seed=1)
        err = excinfo.value
        assert err.replicate == 0
        assert 0 <= err.head < 2 and 0 <= err.query < 4


class TestWorkerProcesses:
    """Replicate blocks after the first run in forked children: their failures
    raise in the caller as the serial loop raises them, and no child outlives
    the call."""

    @staticmethod
    def heads(task):
        return TestReplicateEngine.head_sets(task)[1]

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def in_children(monkeypatch, action):
        """Run ``action`` before every draw made in a forked worker."""
        caller = os.getpid()

        def draw(task, n, seed):
            if os.getpid() != caller:
                action()
            return sample_dataset(task, n, seed)

        monkeypatch.setattr(decomposition, "sample_dataset", draw)

    @pytest.mark.parametrize("workers", ["1", "2", "3", "4"])
    def test_nonfinite_estimate_in_a_child_names_the_lowest_replicate(
            self, quad_task, monkeypatch, workers):
        # R = 6: replicates 3 and 5 lie in children's blocks at every worker
        # count above 1, and in different children at 3 and 4 workers
        bad = {derive_seed(21, "data", r) for r in (3, 5)}

        def draw(task, n, seed):
            data = sample_dataset(task, n, seed)
            if seed in bad:
                xs = data.xs.copy()
                xs[7] = np.nan
                data = dataclasses.replace(data, xs=xs)
            return data

        monkeypatch.setattr(decomposition, "sample_dataset", draw)
        monkeypatch.setenv("MHA_NW_LAB_THREADS", workers)
        with pytest.raises(ReplicateFailure,
                           match="non-finite head estimate at replicate 3, head 0, query 0"
                           ) as excinfo:
            decomposition._reports(quad_task, TestReplicateEngine.uniform_sets(
                [(60, self.heads(quad_task))]), 6, 8, 21)
        err = excinfo.value
        assert (err.replicate, err.head, err.query) == (3, 0, 0)
        self.assert_no_child_left()

    def test_a_child_killed_by_a_signal_raises_lab_error(self, quad_task, monkeypatch):
        self.in_children(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        monkeypatch.setenv("MHA_NW_LAB_THREADS", "2")
        with pytest.raises(LabError,
                           match=r"replicates 3 to 5 was killed by signal 9 \(Killed\)"):
            _head_tensor(quad_task, [(60, self.heads(quad_task))], 6, 8, 21)
        self.assert_no_child_left()

    def test_an_error_in_a_child_raises_lab_error_with_its_traceback(self, quad_task,
                                                                     monkeypatch, capfd):
        def fail():
            raise MemoryError("out of memory in a worker")

        self.in_children(monkeypatch, fail)
        monkeypatch.setenv("MHA_NW_LAB_THREADS", "2")
        with pytest.raises(LabError, match="replicates 3 to 5 exited with code 1"):
            _head_tensor(quad_task, [(60, self.heads(quad_task))], 6, 8, 21)
        assert "MemoryError: out of memory in a worker" in capfd.readouterr().err
        self.assert_no_child_left()

    @pytest.mark.parametrize("error", [KeyboardInterrupt, MemoryError])
    def test_a_failing_caller_kills_its_children(self, quad_task, monkeypatch, error):
        caller = os.getpid()

        def draw(task, n, seed):
            if os.getpid() != caller:
                time.sleep(60)
            raise error

        monkeypatch.setattr(decomposition, "sample_dataset", draw)
        monkeypatch.setenv("MHA_NW_LAB_THREADS", "4")
        start = time.monotonic()
        with pytest.raises(error):
            _head_tensor(quad_task, [(60, self.heads(quad_task))], 6, 8, 21)
        assert time.monotonic() - start < 30
        self.assert_no_child_left()

    @staticmethod
    def running(pid: int) -> bool:
        """Whether ``pid`` exists and is not a zombie waiting for its reaper."""
        try:
            with open(f"/proc/{pid}/stat") as stat:
                return stat.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
        except FileNotFoundError:
            return False

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states in /proc")
    @pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL], ids=["SIGTERM", "SIGKILL"])
    def test_children_of_a_killed_caller_leave_within_a_replicate(self, tmp_path, sig,
                                                                  package_env):
        # the caller runs replicates 0-19 and its child 20-39, 0.2 s each; the
        # child writes its pid before each one.  Neither signal runs the
        # caller's cleanup, so the child leaves on its own parent check
        pids = tmp_path / "pids"
        script = (
            "import os, time\n"
            "from mha_nw_lab.decomposition import _run_in_blocks\n"
            "caller = os.getpid()\n"
            "def run(block):\n"
            "    for r in block:\n"
            "        if os.getpid() != caller:\n"
            f"            with open({str(pids)!r}, 'a') as f:\n"
            "                f.write(f'{os.getpid()}\\n')\n"
            "        time.sleep(0.2)\n"
            "_run_in_blocks(run, 40)\n")
        caller = subprocess.Popen([sys.executable, "-c", script],
                                  env=package_env(MHA_NW_LAB_THREADS="2"))
        try:
            deadline = time.monotonic() + 10
            while not (pids.exists() and pids.read_text().endswith("\n")):
                assert time.monotonic() < deadline and caller.poll() is None
                time.sleep(0.01)
        finally:
            caller.send_signal(sig)
            assert caller.wait() == -sig
        children = {int(line) for line in pids.read_text().split()}
        assert len(children) == 1 and caller.pid not in children
        killed = time.monotonic()
        while any(map(self.running, children)) and time.monotonic() - killed < 1.0:
            time.sleep(0.01)
        assert not any(map(self.running, children))

    def test_serial_while_another_thread_runs(self, quad_task, monkeypatch):
        monkeypatch.setattr(decomposition.threading, "active_count", lambda: 2)
        self.in_children(monkeypatch, lambda: os._exit(9))
        monkeypatch.setenv("MHA_NW_LAB_THREADS", "4")
        _, [(E, _)] = _head_tensor(quad_task, [(60, self.heads(quad_task))], 6, 8, 21)
        monkeypatch.setenv("MHA_NW_LAB_THREADS", "1")
        _, [(E1, _)] = _head_tensor(quad_task, [(60, self.heads(quad_task))], 6, 8, 21)
        np.testing.assert_array_equal(E, E1)


class TestDegenerateScreen:
    def test_sharp_kernel_counts_degenerates(self):
        task = lab.make_task("quadratic", 4, 1.0, "gaussian")
        plan = quick_plan(task, p=4, d_k=1, H=2, n=50, R=10, Q=8, master=3, gain=200.0)
        with pytest.warns(RuntimeWarning, match="degenerate"):
            report = mc_decompose(plan)
        assert report.degenerate_weights > 0
        assert DEGENERATE_ENTROPY_NATS == 1e-6

    def test_degenerate_warning_names_point_and_heads(self):
        task = lab.make_task("quadratic", 4, 1.0, "gaussian")
        plan = quick_plan(task, p=4, d_k=1, H=2, n=50, R=10, Q=8, master=3, gain=200.0)
        with pytest.warns(RuntimeWarning) as record:
            report = mc_decompose(plan)
        message = str(record[0].message)
        assert message.startswith(f"{report.degenerate_weights} softmax weight vectors")
        assert "at n=50, H=2, d_k=1; per head [" in message
        assert "nats) in head set 1 of 1 (10 replicates) at n=50" in message
        per_head = [int(c) for c in message.split("per head [")[1].rstrip("]").split(",")]
        assert len(per_head) == 2 and sum(per_head) == report.degenerate_weights

    def test_warning_names_the_first_caller_outside_the_package(self):
        # not the library line that issues it, which moves with every edit
        task = lab.make_task("quadratic", 4, 1.0, "gaussian")
        plan = quick_plan(task, p=4, d_k=1, H=2, n=50, R=10, Q=8, master=3, gain=200.0)
        with pytest.warns(RuntimeWarning, match="degenerate") as record:
            mc_decompose(plan)
        assert [w.filename for w in record] == [__file__]


class TestHdiSweep:
    def test_monotone_and_paired_endpoint(self, quad_task):
        plan = quick_plan(quad_task, n=400, R=150, Q=48, master=21)
        result = hdi_sweep(plan, [0.0, 0.35, 0.7, 1.0])
        assert result.spearman <= -0.8
        z = result.endpoint_diff / result.endpoint_diff_stderr
        assert z >= 4.0

    def test_common_random_numbers_deterministic(self, quad_task):
        plan = quick_plan(quad_task, n=100, R=30, Q=8, master=22)
        a = hdi_sweep(plan, [0.0, 1.0])
        b = hdi_sweep(plan, [0.0, 1.0])
        assert a.rows == b.rows

    def test_rejects_single_head(self, quad_task):
        plan = quick_plan(quad_task, H=1, d_k=2, n=50, R=10, Q=4, master=1,
                          weights=make_weights("uniform", 1))
        with pytest.raises(NeedsTwoHeads):
            hdi_sweep(plan, [0.0, 1.0])

    def test_mix_grid_validation(self, quad_task):
        plan = quick_plan(quad_task, n=50, R=10, Q=4, master=1)
        with pytest.raises(ShapeMismatch):
            hdi_sweep(plan, [0.0, 1.5])

    @pytest.mark.parametrize("mix_grid", [[0.0, 0.5, 0.5, 1.0], [0.0, 0.5], [0.2, 1.0]])
    def test_mix_grid_needs_distinct_mixes_and_both_endpoints(self, quad_task, mix_grid):
        plan = quick_plan(quad_task, n=50, R=10, Q=4, master=1)
        with pytest.raises(ShapeMismatch, match="mix_grid"):
            hdi_sweep(plan, mix_grid)


@pytest.fixture(scope="module")
def radial_task():
    return lab.make_task("radial", 12, 1.0, "gaussian")


class TestWeightingCompare:
    def test_heterogeneous_geometric_wins(self, radial_task):
        plan = quick_plan(radial_task, p=12, mix=1.0, n=400, R=200, Q=48,
                          master=31, noise_scales=(0.0, 1.0, 2.0, 3.0))
        result = weighting_compare(plan, [0.4, 0.6, 0.8])
        assert result.variance_spread > 0
        np.testing.assert_array_equal(result.head_order, np.arange(4))
        assert result.geometric_beats_uniform
        assert result.best_margin_sigmas >= 2.0

    def test_identical_heads_never_beaten(self, radial_task):
        plan = quick_plan(radial_task, p=12, mix=0.0, n=300, R=120, Q=32, master=32)
        result = weighting_compare(plan, [0.4, 0.6, 0.8, 1.0])
        assert not result.geometric_beats_uniform
        assert result.best_scheme == "uniform"
        for name, rho, mse, se, diff, diff_se in result.rows:
            assert abs(diff) <= max(se, 1e-10)

    def test_geometric_rho_one_row_equals_uniform_row(self, radial_task):
        plan = quick_plan(radial_task, p=12, mix=1.0, n=200, R=60, Q=16, master=33)
        result = weighting_compare(plan, [0.5, 1.0])
        by_name = {(r[0], r[1]): r for r in result.rows}
        uniform = by_name[("uniform", None)]
        geo_one = by_name[("geometric", 1.0)]
        assert geo_one[2] == uniform[2]
        assert geo_one[4] == 0.0

    def test_one_head_set_per_engine_call(self, radial_task, monkeypatch):
        # the pilot, then one ordered-heads tuple shared by every scheme and
        # reduced once for all of them
        calls = TestReplicateEngine.counting(monkeypatch, "_head_tensor", _head_tensor)
        reductions = TestReplicateEngine.counting(monkeypatch, "_decompose_tensor",
                                                  _decompose_tensor)
        plan = quick_plan(radial_task, p=12, mix=1.0, n=60, R=10, Q=4, master=34)
        result = weighting_compare(plan, [0.5, 0.8, 1.0])
        assert [len(head_sets) for _, head_sets, *_ in calls] == [1, 1]
        assert [R for *_, R, _, _ in calls] == [5, 10]
        assert [len(alpha_sets) for *_, alpha_sets in reductions] == [1, 5]
        assert len(result.rows) == 5

    def test_sharp_kernel_warns_about_degenerate_rows(self):
        task = lab.make_task("quadratic", 4, 1.0, "gaussian")
        plan = quick_plan(task, p=4, d_k=1, H=2, n=50, R=10, Q=8, master=3, gain=200.0)
        with pytest.warns(RuntimeWarning, match="degenerate") as record:
            weighting_compare(plan, [0.5])
        assert len(record) == 2   # the pilot and the main run

    def test_rho_grid_validation(self, radial_task):
        plan = quick_plan(radial_task, p=12, n=50, R=10, Q=4, master=1)
        with pytest.raises(ShapeMismatch):
            weighting_compare(plan, [0.5, 1.2])

    def test_rho_grid_needs_a_rho_below_1(self, radial_task):
        # geometric weights at rho = 1 are uniform: every row would be the uniform row
        plan = quick_plan(radial_task, p=12, n=50, R=10, Q=4, master=1)
        with pytest.raises(ShapeMismatch, match=r"rho_grid needs a rho < 1, got \[1.0, 1.0\]"):
            weighting_compare(plan, [1.0, 1.0])

    def test_rejects_single_head(self, radial_task):
        # one head has one weight vector, [1], so no scheme can differ from uniform
        plan = quick_plan(radial_task, p=12, H=1, d_k=2, n=50, R=10, Q=4, master=1,
                          weights=make_weights("uniform", 1))
        with pytest.raises(NeedsTwoHeads, match="weighting_compare needs H >= 2 heads, got 1"):
            weighting_compare(plan, [0.5, 1.0])


class TestSpearman:
    def test_perfect_monotone(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
        assert spearman([1, 2, 3, 4], [5, 4, 3, 2]) == pytest.approx(-1.0)

    def test_ties_average(self):
        rho = spearman([1.0, 1.0, 2.0], [3.0, 3.0, 5.0])
        assert rho == pytest.approx(1.0)

    def test_constant_vector_is_nan(self):
        assert np.isnan(spearman([1.0, 1.0], [2.0, 3.0]))

    def test_tied_ranks_match_a_loop_over_the_ties(self):
        def ranks(a):   # 1-based positions in sorted order, each tie given its mean
            r = np.empty(len(a))
            r[np.argsort(a, kind="stable")] = np.arange(1.0, len(a) + 1)
            for value in np.unique(a):
                r[a == value] = r[a == value].mean()
            return r

        rng = np.random.default_rng(5)
        for _ in range(20):
            x, y = rng.integers(0, 6, size=(2, 15)).astype(float)
            rx, ry = ranks(x) - ranks(x).mean(), ranks(y) - ranks(y).mean()
            want = (rx * ry).sum() / np.sqrt((rx * rx).sum() * (ry * ry).sum())
            assert spearman(x, y) == want

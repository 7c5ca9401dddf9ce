import numpy as np
import pytest

from mha_nw_lab.errors import ShapeMismatch, UnsupportedFamily
from mha_nw_lab.synthetic import (
    FAMILIES,
    INPUT_LAWS,
    Dataset,
    RegressionTask,
    derive_seed,
    make_task,
    sample_dataset,
    sample_labels,
    sample_queries,
)


class TestMakeTask:
    def test_unknown_family(self):
        with pytest.raises(UnsupportedFamily):
            make_task("cubic", 2, 1.0, "uniform")

    def test_unknown_law(self):
        with pytest.raises(UnsupportedFamily):
            make_task("linear", 2, 1.0, "cauchy")

    def test_linear_noise_free(self):
        task = make_task("linear", 2, 0.0, "uniform")
        beta = task.params["beta"]
        x = np.array([[0.3, -0.7]])
        assert task.mean(x)[0] == pytest.approx(float(x[0] @ beta))
        data = sample_labels(task, sample_dataset(task, 20, seed=1))
        np.testing.assert_array_equal(data.eps, np.zeros(20))
        np.testing.assert_allclose(data.ys, task.mean(data.xs), atol=0)

    def test_quadratic_form_is_symmetric(self):
        a = make_task("quadratic", 3, 1.0, "gaussian").params["A"]
        np.testing.assert_array_equal(a, a.T)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_mean_matches_its_formula_point_by_point(self, family):
        task = make_task(family, 3, 1.0, "gaussian")
        formula = {
            "linear": lambda x: x @ task.params["beta"],
            "quadratic": lambda x: x @ task.params["A"] @ x,
            "sine_mixture": lambda x: sum(np.sin(w @ x) for w in task.params["omega"]),
            "radial": lambda x: task.params["amplitude"]
            * np.exp(-0.5 * (x @ x) / task.params["scale"] ** 2),
        }[family]
        xs = np.random.default_rng(31).standard_normal((100, 3))
        batch = task.mean(xs)
        assert batch.shape == (100,)
        for x, m in zip(xs, batch):
            assert m == pytest.approx(formula(x), rel=1e-12, abs=1e-12)
            assert task.mean(x) == pytest.approx([m], rel=1e-12, abs=1e-12)
        with pytest.raises(ShapeMismatch):
            task.mean(np.zeros((2, 4)))

    def test_heteroscedastic_profile(self):
        task = make_task("linear", 2, 0.5, "gaussian", heteroscedastic=True)
        x = np.array([[1.0, 1.0]])
        assert task.noise_sd(x)[0] == pytest.approx(0.5 * (1 + 2.0 / 2))


class TestSampling:
    def test_draw_is_inputs_only(self):
        task = make_task("quadratic", 3, 1.0, "gaussian")
        data = sample_dataset(task, 10, seed=5)
        assert data.ys is None and data.eps is None
        labelled = sample_labels(task, data)
        assert labelled.xs.tobytes() == data.xs.tobytes() and labelled.seed == 5

    def test_noiseless_dataset(self):
        task = make_task("radial", 3, 0.0, "uniform")
        data = sample_labels(task, sample_dataset(task, 10, seed=5))
        np.testing.assert_allclose(data.ys, task.mean(data.xs))

    def test_same_seed_identical_bytes(self):
        task = make_task("quadratic", 3, 1.0, "gaussian")
        a = sample_labels(task, sample_dataset(task, 100, seed=12))
        b = sample_labels(task, sample_dataset(task, 100, seed=12))
        assert a.xs.tobytes() == b.xs.tobytes()
        assert a.ys.tobytes() == b.ys.tobytes()
        assert a.eps.tobytes() == b.eps.tobytes()

    @pytest.mark.parametrize("law", ["uniform", "gaussian"])
    def test_smaller_draw_is_a_prefix_of_a_larger_one(self, law):
        # the replicate engine draws once at the largest n and reads each
        # smaller n as the first n input points (heads read no responses)
        task = make_task("quadratic", 3, 1.0, law)
        for n, N in ((1, 2), (7, 50), (250, 1000), (1000, 4000)):
            for seed in (0, 12345, derive_seed(9, "data", 3)):
                small, large = sample_dataset(task, n, seed), sample_dataset(task, N, seed)
                np.testing.assert_array_equal(small.xs, large.xs[:n])

    @pytest.mark.parametrize("law", ["uniform", "gaussian"])
    def test_labels_at_n_are_a_prefix_of_labels_at_a_larger_n(self, law):
        # the noise has its own stream, so it does not start where the inputs end
        task = make_task("quadratic", 3, 1.0, law, heteroscedastic=True)
        for n, N in ((1, 2), (7, 50), (250, 1000)):
            for seed in (0, 12345, derive_seed(9, "data", 3)):
                small = sample_labels(task, sample_dataset(task, n, seed))
                large = sample_labels(task, sample_dataset(task, N, seed))
                np.testing.assert_array_equal(small.eps, large.eps[:n])
                np.testing.assert_array_equal(small.ys, large.ys[:n])

    def test_residual_variance_chi_square_interval(self):
        # 99% chi-square band for n = 10^4, sigma = 1 is [0.94, 1.06]
        task = make_task("linear", 2, 1.0, "gaussian")
        data = sample_labels(task, sample_dataset(task, 10_000, seed=2024))
        resid_var = np.var(data.ys - task.mean(data.xs), ddof=1)
        assert 0.94 <= resid_var <= 1.06

    def test_eps_mean_within_4_sigma(self):
        task = make_task("linear", 2, 1.0, "gaussian")
        for seed in range(5):
            data = sample_labels(task, sample_dataset(task, 2000, seed=seed))
            assert abs(data.eps.mean()) <= 4.0 / np.sqrt(2000)

    def test_labels_are_shape_checked_only_when_given(self):
        xs = np.zeros((3, 2))
        assert Dataset(xs=xs).ys is None
        Dataset(xs=xs, ys=np.zeros(3), eps=np.zeros(3), seed=0, task_id="t")
        for labels in ({"ys": np.zeros(2)}, {"eps": np.zeros((3, 1))}):
            with pytest.raises(ShapeMismatch, match="shapes disagree"):
                Dataset(xs=xs, **labels)

    def test_n_must_be_positive(self):
        task = make_task("linear", 2, 1.0, "gaussian")
        with pytest.raises(ShapeMismatch):
            sample_dataset(task, 0, seed=1)

    def test_single_query_finite(self):
        task = make_task("linear", 3, 1.0, "gaussian")
        q = sample_queries(task, 1, seed=4)
        assert q.shape == (1, 3) and np.all(np.isfinite(q))

    def test_uniform_support(self):
        task = make_task("linear", 4, 1.0, "uniform")
        q = sample_queries(task, 500, seed=4)
        assert q.min() >= -1.0 and q.max() <= 1.0

    def test_gaussian_clt_interval(self):
        task = make_task("linear", 3, 1.0, "gaussian")
        q = sample_queries(task, 100_000, seed=8)
        assert np.abs(q.mean(axis=0)).max() <= 0.02

    def test_query_dataset_seed_domains_differ(self):
        master = 123
        assert derive_seed(master, "data", 0) != derive_seed(master, "query")
        assert derive_seed(master, "data", 0) != derive_seed(master, "data", 1)

    def test_derive_seed_stable(self):
        # frozen value: the derivation must never change between releases
        assert derive_seed(0, "data", 0) == 8331676968939925828
        assert derive_seed(0, "query") == 9002186843994803915
        assert derive_seed(1, "x") != derive_seed(2, "x")


class TestSkeleton:
    def test_linear_gaussian_skeleton_is_beta(self):
        task = make_task("linear", 3, 1.0, "gaussian")
        np.testing.assert_allclose(task.linear_skeleton(), task.params["beta"])

    @pytest.mark.parametrize("law", INPUT_LAWS)
    def test_even_families_have_zero_skeleton(self, law):
        for family in ("quadratic", "radial"):
            task = make_task(family, 3, 1.0, law)
            np.testing.assert_array_equal(task.linear_skeleton(), np.zeros(3))

    def test_sine_gaussian_skeleton_matches_mc(self):
        task = make_task("sine_mixture", 3, 1.0, "gaussian")
        rng = np.random.default_rng(17)
        xs = rng.standard_normal((400_000, 3))
        mc = (xs * task.mean(xs)[:, None]).mean(axis=0)
        np.testing.assert_allclose(task.linear_skeleton(), mc, atol=5e-3)

    @pytest.mark.parametrize("family", ["linear", "sine_mixture"])
    @pytest.mark.parametrize("p", [3, 8])
    def test_uniform_closed_form_matches_mc(self, family, p):
        task = make_task(family, p, 1.0, "uniform")
        rng = np.random.default_rng(23)
        xs = rng.uniform(-1.0, 1.0, (1_000_000, p))
        terms = xs * task.mean(xs)[:, None]
        stderr = terms.std(axis=0, ddof=1) / np.sqrt(len(xs))
        assert np.all(np.abs(task.linear_skeleton() - terms.mean(axis=0)) <= 4.0 * stderr)

    def test_uniform_sine_skeleton_limits(self):
        # a = 0 takes the limits 0 (own coordinate) and 1 (the others'
        # factor); at a = pi, (sin a - a cos a)/a^2 = 1/pi and sin(a)/a = 0;
        # at a = 1e-9 the quotient cancels to 0 in floats, the series gives a/3
        omega = np.array([[0.0, np.pi, 1.0], [1e-9, 0.0, 0.0]])
        task = RegressionTask(family="sine_mixture", p=3, sigma=0.0, input_law="uniform",
                              param_seed=0, heteroscedastic=False, params={"omega": omega})
        np.testing.assert_allclose(task.linear_skeleton(),
                                   [1e-9 / 3.0, np.sin(1.0) / np.pi, 0.0], atol=1e-15)

    def test_uniform_skeleton_deterministic(self):
        task = make_task("sine_mixture", 3, 1.0, "uniform")
        np.testing.assert_array_equal(task.linear_skeleton(), task.linear_skeleton())


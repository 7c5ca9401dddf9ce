"""The BVC terms against their large-n closed forms at a small query gain.

Under the gaussian law x ~ N(0, I_p), head h weighs data point x_i by
e^{a_h . x_i}, with a_h = wk_h wq_h^T x_q / sqrt(d_k).  Gaussian tilting
(E e^{c.x} = e^{|c|^2 / 2}, and x under the weight e^{c.x} is N(c, I)) and
the delta method for the ratio estimator give, with v = wv . x:

    E m_h         ~ wv_h . a_h (1 - e^{|a_h|^2} / n)
    Cov(m_h, m_g) ~ (e^{a_h . a_g} / n) [wv_h . wv_g + (wv_h . a_g)(wv_g . a_h)]

up to O(1/n^2) terms, averaged over the run's queries.  The remainders are
small only while e^{|a|^2} << n, so each run first asserts the regime
(max |a|^2 <= MAX_TILT, n >= MIN_N).  Each estimate must then lie within
SIGMA of its own reported standard errors; the tolerance and the regime
were fixed before any run.  The two mixes of a family share replicates, and
the z-scores of one config share them too, so none is independent.
"""

import numpy as np
import pytest

import mha_nw_lab as lab
from mha_nw_lab.decomposition import ExperimentPlan, FamilySpec, mc_decompose
from mha_nw_lab.mha import make_weights
from mha_nw_lab.synthetic import derive_seed, sample_queries

SIGMA = 4.0
MAX_TILT, MIN_N = 1.5, 1000
GAIN, H, N, R, Q = 0.5, 4, 1000, 400, 32

#: (family, p, d_k); at mix 1 both fill p with H orthogonal key blocks
TASKS = {"quadratic": (8, 2), "sine_mixture": (16, 4)}
CONFIGS = [(family, mix) for family in sorted(TASKS) for mix in (0.0, 1.0)]


@pytest.fixture(scope="module", params=CONFIGS, ids=lambda c: f"{c[0]}-mix-{c[1]:g}")
def run(request):
    family, mix = request.param
    p, d_k = TASKS[family]
    plan = ExperimentPlan(task=lab.make_task(family, p, 0.0, "gaussian"),
                          projection=FamilySpec(p=p, d_k=d_k, H=H, mix=mix, query_gain=GAIN),
                          weights=make_weights("geometric", H, rho=0.5),
                          n=N, R=R, Q=Q, master_seed=20261020)
    heads = plan.resolve_projection()
    queries = sample_queries(plan.task, Q, derive_seed(plan.master_seed, "query"))
    # a[q, h] = a_h(x_q), as one row per query and head
    a = np.stack([(queries @ h.wq) @ h.wk.T / np.sqrt(d_k) for h in heads], axis=1)
    wv = np.array([h.wv for h in heads])
    va = np.einsum("hp,qgp->qhg", wv, a)                  # va[q, h, g] = wv_h . a_g
    tilt = np.einsum("qhp,qgp->qhg", a, a)                 # tilt[q, h, g] = a_h . a_g
    own = np.diagonal(va, axis1=1, axis2=2)                # wv_h . a_h
    means = own * (1.0 - np.exp(np.diagonal(tilt, axis1=1, axis2=2)) / N)
    cov = np.exp(tilt) / N * (wv @ wv.T + va * va.transpose(0, 2, 1))
    population = {"tilt": tilt, "mean": means, "true": plan.task.mean(queries),
                  "cov": cov.mean(axis=0)}
    return plan, population, mc_decompose(plan)


def z_scores(estimate, population, stderr):
    return np.abs(np.asarray(estimate) - population) / np.asarray(stderr)


def test_inside_the_regime(run):
    plan, population, report = run
    assert np.diagonal(population["tilt"], axis1=1, axis2=2).max() <= MAX_TILT
    assert plan.n >= MIN_N
    assert report.degenerate_weights == 0


def test_per_head_bias(run):
    _, population, report = run
    bias = (population["mean"] - population["true"][:, None]).mean(axis=0)
    assert z_scores(report.per_head_bias, bias, report.stderr["per_head_bias"]).max() <= SIGMA


def test_cross_cov(run):
    _, population, report = run
    assert z_scores(report.cross_cov, population["cov"], report.cov_stderr).max() <= SIGMA


def test_variance_and_covariance_terms(run):
    plan, population, report = run
    alphas, C = plan.weights, population["cov"]
    variance = float(np.sum(alphas**2 * np.diag(C)))
    covariance = float(alphas @ C @ alphas) - variance
    assert z_scores(report.variance_term, variance,
                    report.stderr["variance_term"]) <= SIGMA
    assert z_scores(report.covariance_term, covariance,
                    report.stderr["covariance_term"]) <= SIGMA


def test_ensemble_bias_sq(run):
    plan, population, report = run
    bias_sq = float(((population["mean"] @ plan.weights - population["true"])**2).mean())
    assert z_scores(report.ensemble_bias_sq, bias_sq,
                    report.stderr["ensemble_bias_sq"]) <= SIGMA

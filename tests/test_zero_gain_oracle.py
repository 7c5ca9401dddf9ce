"""The BVC terms against their population values, in the one regime where
these are exact.

At query gain 0 every head's query projection is zero, so every softmax
weight is 1/n and head h estimates wv_h . xbar at every query.  Under the
gaussian law x ~ N(0, I_p) that gives, for any n:

    E m_h = 0,    Cov(m_h, m_g) = wv_h . wv_g / n = C[h, g].

So per_head_bias is -mean_q m(x_q) at the run's queries, cross_cov is C,
variance_term is sum_h alpha_h^2 C[h, h], and covariance_term is
alpha^T C alpha less that.  Each estimate must lie within SIGMA of its own
reported standard errors; the tolerance was fixed before any run.  The two
configs share replicates, so their z-scores are not independent.
"""

import numpy as np
import pytest

import mha_nw_lab as lab
from mha_nw_lab.decomposition import ExperimentPlan, FamilySpec, mc_decompose
from mha_nw_lab.mha import make_weights
from mha_nw_lab.synthetic import derive_seed, sample_queries

SIGMA = 4.0
P, D_K, H, N, R, Q = 12, 2, 4, 40, 400, 16

#: identical heads, and orthogonal heads of unequal value noise (so C is not
#: a constant matrix): p = H * d_k + H leaves one spare direction per head
PROJECTIONS = {
    "mix-0": FamilySpec(p=P, d_k=D_K, H=H, mix=0.0, query_gain=0.0),
    "mix-1-noisy": FamilySpec(p=P, d_k=D_K, H=H, mix=1.0, query_gain=0.0,
                              noise_scales=(0.0, 1.0, 2.0, 3.0)),
}


@pytest.fixture(scope="module", params=sorted(PROJECTIONS))
def run(request):
    task = lab.make_task("quadratic", P, 0.0, "gaussian")
    plan = ExperimentPlan(task=task, projection=PROJECTIONS[request.param],
                          weights=make_weights("geometric", H, rho=0.5),
                          n=N, R=R, Q=Q, master_seed=20261020)
    W = np.array([head.wv for head in plan.resolve_projection()])
    return plan, W @ W.T / N, mc_decompose(plan)


def z_scores(estimate, population, stderr):
    return np.abs(np.asarray(estimate) - population) / np.asarray(stderr)


def test_cross_cov(run):
    _, C, report = run
    assert z_scores(report.cross_cov, C, report.cov_stderr).max() <= SIGMA


def test_per_head_bias(run):
    plan, _, report = run
    queries = sample_queries(plan.task, Q, derive_seed(plan.master_seed, "query"))
    population = np.full(H, -plan.task.mean(queries).mean())
    z = z_scores(report.per_head_bias, population, report.stderr["per_head_bias"])
    assert z.max() <= SIGMA


def test_variance_and_covariance_terms(run):
    plan, C, report = run
    alphas = plan.weights
    variance = float(np.sum(alphas**2 * np.diag(C)))
    covariance = float(alphas @ C @ alphas) - variance
    assert z_scores(report.variance_term, variance,
                    report.stderr["variance_term"]) <= SIGMA
    assert z_scores(report.covariance_term, covariance,
                    report.stderr["covariance_term"]) <= SIGMA


def test_no_softmax_row_is_sharp(run):
    # uniform weights have the largest entropy there is: the screen finds nothing
    assert run[2].degenerate_weights == 0

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from fimnar.basis import binary, continuous, parse_formula
from fimnar.dataio import Dataset
from fimnar.expfam import Component, Family, OutcomeSpec
from fimnar.fiem import FitResult, em_fit, estimate_mu_y, fractional_weights
from fimnar.respondent import RespondentFit, fit_glm
from fimnar.response import ResponseSpec
from fimnar.sim import generate, scenario_s1, scenario_s3
from fimnar.variance import (
    SingularInformationError,
    _mu_y_grad_beta,
    mu_y_variance,
    respondent_score_gamma,
    variance_estimate,
    wald_interval,
)

KINDS = {"x": continuous()}
B1X = parse_formula("1 + x", KINDS)
B1XX = parse_formula("1 + x + x^2", KINDS)


def fitted_s1(seed, n=600, kappa2=1.0):
    scn = scenario_s1(kappa2, n=n)
    data = generate(scn, seed)
    gf = fit_glm(data.y_observed, data.respondent_columns(), Family.NORMAL, B1XX)
    fit = em_fit(data, gf, scn.response.h_basis)
    return scn, data, gf, fit


def complete_dataset(seed, n=300):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    y = 0.5 * x + rng.normal(size=n)
    data = Dataset(
        columns={"x": x}, y=y, delta=np.ones(n, dtype=int), kinds=dict(KINDS)
    )
    return data


# ---------------------------------------------------------------------------
# complete-data reduction
# ---------------------------------------------------------------------------


def test_complete_data_reduction_matches_textbook_logistic_sandwich():
    data = complete_dataset(0)
    gf = fit_glm(data.y_observed, data.respondent_columns(), Family.NORMAL, B1X)
    phi = ResponseSpec(B1X, (0.4, -0.2), 0.3)
    weights = fractional_weights(phi, gf.spec, data)
    fit = FitResult(phi, gf, weights, None, 1, 0.0, True)
    sigma, parts = variance_estimate(fit, gf, data)

    # independent textbook computation at the same parameters
    n = data.n
    z = np.column_stack([np.ones(n), data.columns["x"], data.y])
    p = expit(z @ phi.phi)
    bread = z.T @ (z * (p * (1 - p))[:, None]) / n
    scores = z * (1.0 - p)[:, None]
    opg = scores.T @ scores / n
    inv = np.linalg.inv(bread)
    textbook = inv @ opg @ inv.T / n
    assert np.allclose(sigma, textbook, rtol=1e-8)


def test_complete_data_mu_variance_is_sample_variance_over_n():
    data = complete_dataset(1)
    gf = fit_glm(data.y_observed, data.respondent_columns(), Family.NORMAL, B1X)
    phi = ResponseSpec(B1X, (0.4, -0.2), 0.3)
    weights = fractional_weights(phi, gf.spec, data)
    fit = FitResult(phi, gf, weights, None, 1, 0.0, True)
    _, parts = variance_estimate(fit, gf, data)
    got = mu_y_variance(fit, gf, data, parts)
    assert got == pytest.approx(float(np.var(data.y)) / data.n, rel=1e-12)


# ---------------------------------------------------------------------------
# structure of the estimate
# ---------------------------------------------------------------------------


def test_covariance_is_symmetric_psd():
    _, data, gf, fit = fitted_s1(51)
    sigma, _ = variance_estimate(fit, gf, data)
    assert np.allclose(sigma, sigma.T, atol=1e-10)
    eigvals = np.linalg.eigvalsh(sigma)
    assert np.all(eigvals >= 0.0)


def test_invariance_to_respondent_reordering():
    scn, data, gf, fit = fitted_s1(52, n=400)
    sigma, _ = variance_estimate(fit, gf, data)
    mu_var = mu_y_variance(fit, gf, data, variance_estimate(fit, gf, data)[1])

    # permute the respondent block (donors change order, nothing else)
    rng = np.random.default_rng(0)
    resp_idx = np.nonzero(data.delta == 1)[0]
    perm = rng.permutation(resp_idx)
    order = np.arange(data.n)
    order[resp_idx] = perm
    shuffled = Dataset(
        columns={"x": data.columns["x"][order]},
        y=data.y[order],
        delta=data.delta[order],
        kinds=dict(KINDS),
    )
    weights2 = fractional_weights(fit.phi_hat, gf.spec, shuffled)
    fit2 = FitResult(fit.phi_hat, gf, weights2, None, 1, 0.0, True)
    sigma2, parts2 = variance_estimate(fit2, gf, shuffled)
    assert np.max(np.abs(sigma2 - sigma)) <= 1e-12
    mu_var2 = mu_y_variance(fit2, gf, shuffled, parts2)
    assert abs(mu_var2 - mu_var) <= 1e-12


_, _GRAD_DATA, _GRAD_GF, _GRAD_FIT = fitted_s1(53, n=300)


@given(st.floats(-2.0, 2.0))
@settings(max_examples=25, deadline=None)
def test_closed_form_mu_gradient_in_beta_matches_finite_differences(beta):
    phi = _GRAD_FIT.phi_hat.with_phi(np.append(_GRAD_FIT.phi[:-1], beta))

    def mu_at(b):
        p = phi.with_phi(np.append(phi.phi[:-1], b))
        w = fractional_weights(p, _GRAD_GF.spec, _GRAD_DATA)
        return estimate_mu_y(FitResult(p, _GRAD_GF, w, None, 1, 0.0, True), _GRAD_DATA)

    step = 1e-5
    fd = (mu_at(beta + step) - mu_at(beta - step)) / (2 * step)
    weights = fractional_weights(phi, _GRAD_GF.spec, _GRAD_DATA)
    got = _mu_y_grad_beta(weights, _GRAD_DATA.n)
    assert got == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_analytic_gamma_scores_match_finite_differences():
    # dual-route guard: closed forms vs central differences of log density
    rng = np.random.default_rng(3)
    x = rng.normal(size=40)
    cols = {"x": x}
    y = rng.normal(size=40)
    from fimnar.variance import _score_gamma_fd

    normal = OutcomeSpec(Family.NORMAL, (Component(B1X, (0.2, 0.7), 0.8),))
    assert np.allclose(
        respondent_score_gamma(normal, y, cols),
        _score_gamma_fd(normal, y, cols, outer=False),
        atol=1e-5,
    )
    yb = (rng.random(40) < 0.5).astype(float)
    bern = OutcomeSpec(Family.BERNOULLI, (Component(B1X, (0.1, -0.6)),))
    assert np.allclose(
        respondent_score_gamma(bern, yb, cols),
        _score_gamma_fd(bern, yb, cols, outer=False),
        atol=1e-5,
    )


def test_respondent_scores_average_to_zero_at_mle():
    # the respondent information uses the gamma-score at the MLE, where
    # the score must sum to (numerically) zero
    _, data, gf, fit = fitted_s1(53, n=800)
    s1 = respondent_score_gamma(gf.spec, data.y_observed, data.respondent_columns())
    assert np.max(np.abs(s1.mean(axis=0))) < 1e-6


def test_singular_information_detected():
    # binary covariate makes x^2 == x, so the outcome-model scores are
    # collinear and the respondent information is singular
    kinds = {"x": binary()}
    bq = parse_formula("1 + x + x^2", kinds)
    rng = np.random.default_rng(5)
    n = 120
    x = (rng.random(n) < 0.5).astype(float)
    y = np.where(rng.random(n) < 0.8, 0.3 + x + rng.normal(size=n), np.nan)
    delta = (~np.isnan(y)).astype(int)
    data = Dataset(columns={"x": x}, y=y, delta=delta, kinds=kinds)
    gamma = OutcomeSpec(Family.NORMAL, (Component(bq, (0.3, 0.5, 0.5), 1.0),))
    gf = RespondentFit(gamma, -100.0, 208.0, 4, 1, True)
    phi = ResponseSpec(parse_formula("1 + x", kinds), (0.5, 0.2), 0.1)
    weights = fractional_weights(phi, gamma, data)
    fit = FitResult(phi, gf, weights, None, 1, 0.0, True)
    with pytest.raises(SingularInformationError):
        variance_estimate(fit, gf, data)


def test_variance_refuses_parametric_weights():
    scn, data, gf, _ = fitted_s1(54, n=300)
    fit = em_fit(
        data,
        gf,
        scn.response.h_basis,
        engine="parametric",
        m_draws=200,
        rng=np.random.default_rng(1),
    )
    with pytest.raises(Exception, match="donor"):
        variance_estimate(fit, gf, data)


def test_mixture_variance_runs_with_fd_scores():
    scn = scenario_s3(500)
    data = generate(scn, 7)
    from fimnar.respondent import fit_normal_mixture

    gf = fit_normal_mixture(
        data.y_observed,
        data.respondent_columns(),
        scn.fit_plan.bases,
        rng=np.random.default_rng(2),
    )
    fit = em_fit(data, gf, scn.response.h_basis)
    sigma, parts = variance_estimate(fit, gf, data)
    assert sigma.shape == (3, 3)
    assert np.all(np.isfinite(sigma))
    mu_var = mu_y_variance(fit, gf, data, parts)
    assert mu_var > 0


def test_wald_interval_brackets_estimate():
    lo, hi = wald_interval(1.0, 0.04)
    assert lo == pytest.approx(1.0 - 1.959963984540054 * 0.2)
    assert hi == pytest.approx(1.0 + 1.959963984540054 * 0.2)

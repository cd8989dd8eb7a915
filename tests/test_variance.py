from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from fimnar.basis import binary, continuous, parse_formula
from fimnar.dataio import Dataset
from fimnar.expfam import (
    Component,
    Family,
    OutcomeSpec,
    flatten_params,
    unflatten_params,
)
from fimnar.fiem import (
    FitResult,
    em_fit,
    estimate_mu_y,
    fractional_weights,
)
from fimnar.respondent import FitError, RespondentFit, fit_glm
from fimnar.response import ResponseSpec
from fimnar.sim import (
    _fit_respondent,
    built_in_scenario,
    generate,
    scenario_s1,
    scenario_s3,
)
from fimnar.variance import (
    SingularInformationError,
    _assemble,
    _mu_y_grad_beta,
    _mu_y_grad_gamma,
    mu_y_variance,
    respondent_score_gamma,
    variance_estimate,
    wald_interval,
)

from oracles import (
    _donor_log_base,
    _score_gamma_fd,
    _weights_from_base,
    score_sums,
    walked_missing_pieces,
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
    fit = FitResult(phi, weights, 0.0)
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
    fit = FitResult(phi, weights, 0.0)
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
    fit2 = FitResult(fit.phi_hat, weights2, 0.0)
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
        return estimate_mu_y(FitResult(p, w, 0.0), _GRAD_DATA)

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
    gf = RespondentFit(gamma, -100.0, 1, True)
    phi = ResponseSpec(parse_formula("1 + x", kinds), (0.5, 0.2), 0.1)
    weights = fractional_weights(phi, gamma, data)
    fit = FitResult(phi, weights, 0.0)
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
        [comp.basis for comp in scn.respondent.components],
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


# ---------------------------------------------------------------------------
# weighted outcome-score sums against the paths they replaced
# ---------------------------------------------------------------------------


def reference_score_outer(gamma, y_donors, columns):
    """(q, n0, nd) scores of every donor value under every row's model."""
    comp = gamma.components[0]
    if gamma.k == 1 and gamma.family in (Family.NORMAL, Family.BERNOULLI):
        design = comp.basis.design(columns)
        eta = design @ np.asarray(comp.coef)
        if gamma.family is Family.BERNOULLI:
            resid = y_donors[None, :] - expit(eta)[:, None]
            return np.stack([resid * design[:, [j]] for j in range(design.shape[1])])
        sigma2 = float(comp.dispersion)
        resid = y_donors[None, :] - eta[:, None]
        out = [resid / sigma2 * design[:, [j]] for j in range(design.shape[1])]
        out.append((resid**2 - sigma2) / (2.0 * sigma2**2))
        return np.stack(out)
    return _score_gamma_fd(gamma, y_donors, columns, outer=True)


def reference_variances(fit, gf, data):
    """(sigma, Var(mu), e_cross, d mu/d gamma) by the previous code's paths.

    ``e_cross`` is the d x q loop over the materialized score tensor and
    d mu/d gamma central differences through a rebuilt donor base.
    """
    phi, gamma, n = fit.phi_hat, gf.spec, data.n
    w = fit.weights.w
    y_d = np.broadcast_to(data.y_observed[None, :], w.shape)
    resp_cols = data.respondent_columns()
    z_resp = phi.design(resp_cols, data.y_observed)
    s_resp = z_resp * (1.0 - expit(z_resp @ phi.phi))[:, None]
    s1_resp = respondent_score_gamma(gamma, data.y_observed, resp_cols)
    i11 = s1_resp.T @ s1_resp / n

    b_miss = phi.h_basis.design(data.missing_columns())
    pi = expit((b_miss @ np.asarray(phi.alpha))[:, None] + phi.beta * y_d)
    d = b_miss.shape[1] + 1
    s0bar = np.zeros((w.shape[0], d))
    s0bar[:, :-1] = -(w * pi).sum(axis=1)[:, None] * b_miss
    s0bar[:, -1] = -(w * pi * y_d).sum(axis=1)
    z0bar = np.column_stack([b_miss, (w * y_d).sum(axis=1)])
    bread = s0bar.T @ z0bar / n

    s1_outer = reference_score_outer(gamma, data.y_observed, data.missing_columns())
    e_cross = np.zeros((d, s1_resp.shape[1]))
    for k in range(s1_resp.shape[1]):
        for ell in range(d - 1):
            s_ell = -pi * b_miss[:, ell][:, None]
            e_cross[ell, k] = np.sum(w * (s_ell - s0bar[:, ell][:, None]) * s1_outer[k])
        s_y = -pi * y_d
        e_cross[d - 1, k] = np.sum(w * (s_y - s0bar[:, -1][:, None]) * s1_outer[k])
    e_cross /= n
    j_resp = s_resp + s1_resp @ np.linalg.solve(i11, e_cross.T)
    middle = (j_resp.T @ j_resp + s0bar.T @ s0bar) / n
    inv = np.linalg.inv(bread)
    sigma = inv @ middle @ inv.T / n

    def mu_at(theta):
        base = _donor_log_base(unflatten_params(gamma, theta), data)
        w_t = _weights_from_base(phi.beta, data.y_observed, base)
        return (np.sum(data.y_observed) + np.sum(w_t * y_d)) / n

    theta = flatten_params(gamma)
    grad_gamma = np.zeros(theta.size)
    for k in range(theta.size):
        step = np.zeros(theta.size)
        step[k] = 1e-5 * (1.0 + abs(theta[k]))
        grad_gamma[k] = (mu_at(theta + step) - mu_at(theta - step)) / (2 * step[k])

    ybar = (w * y_d).sum(axis=1)
    mu_hat = (np.sum(data.y_observed) + np.sum(ybar)) / n
    grad_phi = np.zeros(d)
    grad_phi[-1] = -np.sum((w * y_d**2).sum(axis=1) - ybar**2) / n
    a_g = np.linalg.solve(bread.T, grad_phi)
    mask = data.respondent_mask
    psi = np.empty(n)
    psi[mask] = data.y_observed - mu_hat - j_resp @ a_g
    psi[mask] += s1_resp @ np.linalg.solve(i11, grad_gamma)
    psi[~mask] = ybar - mu_hat - s0bar @ a_g
    return sigma, np.sum(psi**2) / n**2, e_cross, grad_gamma


def election_fit():
    from pathlib import Path

    from fimnar.config import load_config
    from fimnar.dataio import ingest

    repo = Path(__file__).resolve().parents[1]
    config = load_config(repo / "data" / "election_like.json")
    data = ingest(repo / "data" / "election_like.csv", config.schema)
    (basis,) = config.candidates[0].bases
    gf = fit_glm(data.y_observed, data.respondent_columns(), Family.BERNOULLI, basis)
    return data, gf, em_fit(data, gf, config.h_basis)


def scenario_fit(name, seed, n=500):
    scn = built_in_scenario(name, n=n)
    rng = np.random.default_rng(seed)
    data = generate(scn, rng)
    gf = _fit_respondent(scn, data, rng, 4)
    return data, gf, em_fit(data, gf, scn.response.h_basis)


def rel_err(got, ref):
    return np.max(np.abs(np.asarray(got) - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("case", [("s1", 31), ("s2", 32), ("s3", 33), "election"])
def test_variance_matches_previous_code(case):
    data, gf, fit = election_fit() if case == "election" else scenario_fit(*case)
    ref_sigma, ref_mu_var, ref_e, ref_grad = reference_variances(fit, gf, data)
    sigma, parts = variance_estimate(fit, gf, data)
    assert rel_err(parts.e_cross, ref_e) <= 1e-12
    assert rel_err(_mu_y_grad_gamma(gf.spec, fit.weights, data, parts), ref_grad) <= 1e-6
    assert rel_err(sigma, ref_sigma) <= 1e-10
    assert rel_err(mu_y_variance(fit, gf, data, parts), ref_mu_var) <= 1e-8


@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from([Family.NORMAL, Family.BERNOULLI]),
    units=st.integers(1, 6),
    donors=st.integers(1, 7),
    coef=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    sigma2=st.floats(0.2, 3.0),
    offset=st.floats(-30.0, 30.0),
)
@settings(max_examples=60, deadline=None)
def test_closed_form_score_sums_match_finite_differences(
    seed, family, units, donors, coef, sigma2, offset
):
    rng = np.random.default_rng(seed)
    cols = {"x": rng.normal(size=units)}
    if family is Family.NORMAL:
        comp = Component(B1X, (offset + coef[0], coef[1]), sigma2)
        gamma = OutcomeSpec(family, (comp,))
        y = offset + rng.normal(size=donors)
    else:
        gamma = OutcomeSpec(family, (Component(B1X, coef),))
        y = (rng.random(donors) < 0.5).astype(float)
    weights = [rng.normal(size=(units, donors)) for _ in range(2)]
    got = score_sums(gamma, y, cols, weights)
    fd = _score_gamma_fd(gamma, y, cols, outer=True)
    for v, sums in zip(weights, got):
        ref = np.einsum("kij,ij->ik", fd, v)
        scale = np.einsum("kij,ij->ik", np.abs(fd), np.abs(v))
        assert np.all(np.abs(sums - ref) <= 1e-6 * (1.0 + scale))


def _drawn_spec(family, rng, coef, dispersion, weight, offset):
    """A spec of ``family`` (mixture: two normal components) and 7 donor values."""
    if family == "mixture":
        comps = (
            Component(B1X, (offset + coef[0], coef[1]), dispersion),
            Component(B1XX, (offset - coef[1], coef[0], 0.5 * coef[1]), 2 * dispersion),
        )
        gamma = OutcomeSpec(Family.NORMAL, comps, (weight, 1.0 - weight))
        return gamma, offset + rng.normal(scale=2.0, size=7)
    small = (0.5 * coef[0], 0.5 * coef[1])
    if family is Family.POISSON:
        gamma = OutcomeSpec(family, (Component(B1X, small),))
        return gamma, rng.poisson(2.0, 7).astype(float)
    gamma = OutcomeSpec(family, (Component(B1X, small, 1.0 / dispersion),))
    return gamma, rng.gamma(2.0, 0.5, size=7) + 0.05


@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(["mixture", Family.POISSON, Family.GAMMA]),
    units=st.integers(1, 6),
    donors=st.integers(1, 7),
    coef=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    dispersion=st.floats(0.2, 3.0),
    weight=st.floats(0.1, 0.9),
    offset=st.floats(-30.0, 30.0),
)
@settings(max_examples=60, deadline=None)
def test_mixture_poisson_gamma_score_sums_match_finite_differences(
    seed, family, units, donors, coef, dispersion, weight, offset
):
    rng = np.random.default_rng(seed)
    cols = {"x": rng.normal(size=units)}
    gamma, y = _drawn_spec(family, rng, coef, dispersion, weight, offset)
    y = y[:donors]
    weights = [rng.normal(size=(units, donors)) for _ in range(2)]
    got = score_sums(gamma, y, cols, weights)
    fd = _score_gamma_fd(gamma, y, cols, outer=True)
    for v, sums in zip(weights, got):
        ref = np.einsum("kij,ij->ik", fd, v)
        scale = np.einsum("kij,ij->ik", np.abs(fd), np.abs(v))
        assert np.all(np.abs(sums - ref) <= 1e-6 * (1.0 + scale))
    # one donor per unit: the respondents' scores
    y_units = rng.choice(y, size=units)
    got = respondent_score_gamma(gamma, y_units, cols)
    fd = _score_gamma_fd(gamma, y_units, cols, outer=False)
    assert np.all(np.abs(got - fd) <= 1e-6 * (1.0 + np.abs(fd)))


def test_s3_variances_match_the_finite_difference_path(monkeypatch):
    import fimnar.variance as variance

    data, gf, fit = scenario_fit("s3", 33)
    sigma, parts = variance_estimate(fit, gf, data)
    mu_var = mu_y_variance(fit, gf, data, parts)

    def fd_sums(gamma, y_donors, columns, weights):
        fd = _score_gamma_fd(gamma, y_donors, columns, outer=True)
        return [np.einsum("kij,ij->ik", fd, v) for v in weights]

    # the package reads a mixture's score sums from the solve's root sums;
    # here a walk of its own reduces them from finite differences instead
    monkeypatch.setattr(variance, "_missing_pieces", partial(walked_missing_pieces, score_sums=fd_sums))
    monkeypatch.setattr(
        variance,
        "respondent_score_gamma",
        lambda gamma, y, columns: _score_gamma_fd(gamma, y, columns, outer=False),
    )
    fd_sigma, fd_parts = variance_estimate(fit, gf, data)
    assert rel_err(sigma, fd_sigma) <= 1e-6
    assert rel_err(mu_var, mu_y_variance(fit, gf, data, fd_parts)) <= 1e-6


# ---------------------------------------------------------------------------
# the positive-semidefinite check
# ---------------------------------------------------------------------------


def test_psd_check_scales_with_the_covariance():
    # as on a degenerate s1 fit at kappa2 = 0.1, whose covariance has a
    # diagonal up to 4.6e13: rounding leaves a smallest eigenvalue of
    # either sign, here -2.14e-5, which an absolute -1e-8 rejected
    middle = np.diag([4.6e13, 1.0, -2.14e-5])
    sigma = _assemble(np.eye(3), middle, 1)
    assert np.array_equal(sigma, np.diag([4.6e13, 1.0, 0.0]))


def test_psd_check_rejects_a_small_indefinite_covariance():
    with pytest.raises(FitError, match="negative eigenvalue"):
        _assemble(np.eye(2), np.diag([1.0, -1e-6]), 1)

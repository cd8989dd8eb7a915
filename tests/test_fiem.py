import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

import fimnar.fiem as fiem
from fimnar.basis import continuous, parse_formula
from fimnar.dataio import Dataset
from fimnar.expfam import Component, Family, OutcomeSpec, tilt
from fimnar.fiem import (
    FiControls,
    FractionalWeights,
    _parametric_pool,
    _score_and_jacobian,
    _score_arrays,
    em_fit,
    estimate_mu_y,
    fractional_weights,
    mean_score,
    score_jacobian,
    solve_mean_score,
)
from fimnar.respondent import FitError, fit_glm
from fimnar.response import ResponseSpec
from fimnar.sim import _fit_respondent, built_in_scenario, generate, scenario_s1

from oracles import StoredGrid, tiled_parametric_pool

KINDS = {"x": continuous()}
B1X = parse_formula("1 + x", KINDS)
B1XX = parse_formula("1 + x + x^2", KINDS)


def make_dataset(x, y_obs, n_missing, x_missing=None):
    """Respondents with observed y followed by missing rows."""
    x_obs = np.asarray(x, dtype=float)
    x_mis = np.asarray(
        x_missing if x_missing is not None else np.zeros(n_missing), dtype=float
    )
    x_all = np.concatenate([x_obs, x_mis])
    y = np.concatenate([np.asarray(y_obs, dtype=float), np.full(n_missing, np.nan)])
    delta = np.concatenate(
        [np.ones(x_obs.size, dtype=int), np.zeros(n_missing, dtype=int)]
    )
    return Dataset(columns={"x": x_all}, y=y, delta=delta, kinds=dict(KINDS))


def normal_gamma(coef=(0.0, 0.4), var=0.5, basis=B1X):
    return OutcomeSpec(Family.NORMAL, (Component(basis, coef, var),))


def phi_spec(alpha=(0.68, 0.19), beta=0.24):
    return ResponseSpec(B1X, alpha, beta)


# ---------------------------------------------------------------------------
# fractional weights
# ---------------------------------------------------------------------------


def test_weights_rows_sum_to_one():
    rng = np.random.default_rng(0)
    data = make_dataset(
        rng.normal(size=80), rng.normal(size=80), 25, rng.normal(size=25)
    )
    w = fractional_weights(phi_spec(), normal_gamma(), data)
    assert w.w.shape == (25, 80)
    assert np.max(np.abs(w.w.sum(axis=1) - 1.0)) < 1e-12
    assert np.all(w.w >= 0)


def test_single_donor_gets_weight_one():
    data = make_dataset([0.3], [1.2], 4, [0.0, 1.0, -2.0, 0.5])
    for beta in (-1.0, 0.0, 2.5):
        w = fractional_weights(phi_spec(beta=beta), normal_gamma(), data)
        assert np.allclose(w.w, 1.0)


def test_weights_at_zero_beta_drop_the_odds_factor():
    rng = np.random.default_rng(1)
    x_obs = rng.normal(size=40)
    y_obs = rng.normal(size=40)
    x_mis = rng.normal(size=10)
    data = make_dataset(x_obs, y_obs, 10, x_mis)
    gamma = normal_gamma((0.2, 0.7), 0.8)
    w = fractional_weights(phi_spec(beta=0.0), gamma, data)
    # direct formula: w_ij proportional to f(y_j|x_i) / sum_l f(y_j|x_l)
    sigma = math.sqrt(0.8)

    def f(y, x):
        return math.exp(-((y - 0.2 - 0.7 * x) ** 2) / (2 * 0.8)) / (
            sigma * math.sqrt(2 * math.pi)
        )

    for i in range(10):
        raw = np.array(
            [f(y_obs[j], x_mis[i]) / sum(f(y_obs[j], xl) for xl in x_obs) for j in range(40)]
        )
        assert np.allclose(w.w[i], raw / raw.sum(), atol=1e-12)


def test_two_donor_weights_match_manual_computation():
    # two respondents, one missing unit; everything hand-computable
    x_obs = np.array([0.0, 1.0])
    y_obs = np.array([0.5, -0.5])
    data = make_dataset(x_obs, y_obs, 1, [0.25])
    gamma = normal_gamma((0.0, 1.0), 1.0)
    phi = phi_spec(alpha=(0.2, -0.3), beta=0.7)

    def normal_pdf(y, mu):
        return math.exp(-((y - mu) ** 2) / 2.0) / math.sqrt(2 * math.pi)

    x_i = 0.25
    raw = []
    for j in range(2):
        odds = math.exp(-(0.2 - 0.3 * x_i + 0.7 * y_obs[j]))
        f_ij = normal_pdf(y_obs[j], x_i)
        c_j = normal_pdf(y_obs[j], 0.0) + normal_pdf(y_obs[j], 1.0)
        raw.append(odds * f_ij / c_j)
    manual = np.array(raw) / sum(raw)
    got = fractional_weights(phi, gamma, data).w[0]
    assert np.allclose(got, manual, atol=1e-12)


def test_weight_recomputation_is_idempotent():
    rng = np.random.default_rng(2)
    data = make_dataset(
        rng.normal(size=60), rng.normal(size=60), 20, rng.normal(size=20)
    )
    w1 = fractional_weights(phi_spec(), normal_gamma(), data)
    w2 = fractional_weights(phi_spec(), normal_gamma(), data)
    assert np.max(np.abs(w1.w - w2.w)) <= 1e-15


def test_all_zero_density_row_raises():
    # respondents' model centered absurdly far away underflows to -inf;
    # the overflow on the way there is the mechanism under test
    data = make_dataset([0.0, 0.1], [0.5, 0.7], 1, [0.0])
    bad_gamma = normal_gamma((1e200, 0.0), 1.0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        with pytest.raises(FitError, match="zero density"):
            fractional_weights(phi_spec(), bad_gamma, data)


# ---------------------------------------------------------------------------
# mean score
# ---------------------------------------------------------------------------


def test_mean_score_without_missing_is_plain_logistic_score():
    rng = np.random.default_rng(3)
    x = rng.normal(size=50)
    y = rng.normal(size=50)
    data = make_dataset(x, y, 0)
    phi = phi_spec(alpha=(0.1, -0.4), beta=0.6)
    w = fractional_weights(phi, normal_gamma(), data)
    got = mean_score(phi, w, data)
    # independent computation: all indicators are one
    lp = 0.1 - 0.4 * x + 0.6 * y
    resid = 1.0 - 1.0 / (1.0 + np.exp(-lp))
    design = np.column_stack([np.ones(50), x, y])
    assert np.allclose(got, design.T @ resid, atol=1e-12)


def test_mean_score_single_donor_substitution():
    # one respondent donor: the missing part equals plain scores at y0
    x_obs = np.array([0.4])
    y0 = 1.7
    x_mis = np.array([-0.3, 0.8, 0.0])
    data = make_dataset(x_obs, [y0], 3, x_mis)
    phi = phi_spec(alpha=(0.3, 0.5), beta=-0.2)
    w = fractional_weights(phi, normal_gamma(), data)
    got = mean_score(phi, w, data)
    resp_lp = 0.3 + 0.5 * 0.4 - 0.2 * y0
    resp_part = (1.0 - 1.0 / (1.0 + math.exp(-resp_lp))) * np.array([1.0, 0.4, y0])
    mis_lp = 0.3 + 0.5 * x_mis - 0.2 * y0
    mis_pi = 1.0 / (1.0 + np.exp(-mis_lp))
    mis_design = np.column_stack([np.ones(3), x_mis, np.full(3, y0)])
    expected = resp_part + mis_design.T @ (0.0 - mis_pi)
    assert np.allclose(got, expected, atol=1e-12)


def test_mean_score_near_zero_at_truth_monte_carlo():
    # large generated dataset, scored at the true parameters with weights
    # from the true models; n is capped by the quadratic donor-pool memory
    scn = scenario_s1(1.0, n=5000)
    data = generate(scn, 12345)
    w = fractional_weights(scn.response, scn.respondent, data)
    score = mean_score(scn.response, w, data)
    # per-unit contributions for a standard-error scale
    resp_cols = data.respondent_columns()
    z = scn.response.design(resp_cols, data.y_observed)
    p = scn.response.propensity(resp_cols, data.y_observed)
    contrib_resp = z * (1 - p)[:, None]
    mis_cols = data.missing_columns()
    b = scn.response.h_basis.design(mis_cols)
    h = b @ np.asarray(scn.response.alpha)
    pi = 1 / (1 + np.exp(-(h[:, None] + scn.response.beta * data.y_observed[None, :])))
    wp = w.w * pi
    contrib_mis = np.column_stack(
        [-wp.sum(axis=1)[:, None] * b, -(wp @ data.y_observed)]
    )
    contrib = np.vstack([contrib_resp, contrib_mis])
    se = np.sqrt(contrib.shape[0]) * contrib.std(axis=0, ddof=1)
    assert np.all(np.abs(score) < 4.0 * se)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(4)
    data = make_dataset(
        rng.normal(size=40), rng.normal(size=40), 15, rng.normal(size=15)
    )
    gamma = normal_gamma()
    phi = phi_spec(alpha=(0.2, -0.1), beta=0.3)
    w = fractional_weights(phi, gamma, data)
    jac = score_jacobian(phi, w, data)
    vec = phi.phi
    fd = np.zeros_like(jac)
    for j in range(vec.size):
        step = 1e-6 * (1.0 + abs(vec[j]))
        up = phi.with_phi(vec + step * np.eye(vec.size)[j])
        dn = phi.with_phi(vec - step * np.eye(vec.size)[j])
        fd[:, j] = (mean_score(up, w, data) - mean_score(dn, w, data)) / (2 * step)
    assert np.linalg.norm(fd - jac) / np.linalg.norm(jac) < 1e-4


# ---------------------------------------------------------------------------
# M-step solver
# ---------------------------------------------------------------------------


def test_m_step_drives_score_to_zero():
    rng = np.random.default_rng(5)
    scn = scenario_s1(1.0, n=400)
    data = generate(scn, rng)
    gamma = OutcomeSpec(Family.NORMAL, (Component(B1XX, (0.0, 0.4, 1.0), 0.5),))
    phi0 = phi_spec(alpha=(0.0, 0.0), beta=0.0)
    w = fractional_weights(phi0, gamma, data)
    solution = solve_mean_score(phi0, w, data)
    assert np.max(np.abs(mean_score(solution, w, data))) <= 1e-8


def test_m_step_agrees_with_independent_root_finder():
    rng = np.random.default_rng(6)
    scn = scenario_s1(1.0, n=300)
    data = generate(scn, rng)
    gamma = OutcomeSpec(Family.NORMAL, (Component(B1XX, (0.0, 0.4, 1.0), 0.5),))
    phi0 = phi_spec(alpha=(0.0, 0.0), beta=0.0)
    w = fractional_weights(phi0, gamma, data)
    ours = solve_mean_score(phi0, w, data)
    sp = optimize.root(
        lambda v: mean_score(phi0.with_phi(v), w, data), phi0.phi, tol=1e-12
    )
    assert sp.success
    assert np.allclose(ours.phi, sp.x, atol=1e-7)


# ---------------------------------------------------------------------------
# EM driver
# ---------------------------------------------------------------------------


def test_em_recovers_truth_on_large_sample():
    scn = scenario_s1(1.0, n=4000)
    data = generate(scn, 2024)
    gf = fit_glm(data.y_observed, data.respondent_columns(), Family.NORMAL, B1XX)
    fit = em_fit(data, gf, scn.response.h_basis)
    assert np.all(np.abs(fit.phi - np.array([0.68, 0.19, 0.24])) < 0.2)
    assert fit.mean_score_norm <= 1e-8


def test_em_final_weights_are_e_step_fixed_point():
    scn = scenario_s1(1.0, n=600)
    data = generate(scn, 77)
    gf = fit_glm(data.y_observed, data.respondent_columns(), Family.NORMAL, B1XX)
    fit = em_fit(data, gf, scn.response.h_basis)
    again = fractional_weights(fit.phi_hat, gf.spec, data)
    assert np.max(np.abs(again.w - fit.weights.w)) <= 1e-15


def test_em_iteration_cap_raises():
    scn = scenario_s1(1.0, n=400)
    data = generate(scn, 99)
    gf = fit_glm(data.y_observed, data.respondent_columns(), Family.NORMAL, B1XX)
    with pytest.raises(FitError, match="EM did not converge"):
        em_fit(data, gf, scn.response.h_basis, controls=FiControls(max_em_iter=2))


def test_em_mar_null_beta_within_four_se_of_zero():
    # data generated with beta = 0: the estimator averaged over replicates
    # must not manufacture nonresponse bias
    base = scenario_s1(1.0, n=800)
    from dataclasses import replace as dc_replace

    scn = dc_replace(base, response=ResponseSpec(B1X, (0.68, 0.19), 0.0))
    betas = []
    for r in range(30):
        data = generate(scn, 5000 + r)
        gf = fit_glm(data.y_observed, data.respondent_columns(), Family.NORMAL, B1XX)
        fit = em_fit(data, gf, scn.response.h_basis, controls=FiControls(max_em_iter=2000))
        betas.append(fit.phi_hat.beta)
    betas = np.asarray(betas)
    se = betas.std(ddof=1) / math.sqrt(betas.size)
    assert abs(betas.mean()) < 4.0 * se


def test_parametric_engine_cross_checks_donor_engine():
    scn = scenario_s1(1.0, n=2000)
    data = generate(scn, 31)
    gf = fit_glm(data.y_observed, data.respondent_columns(), Family.NORMAL, B1XX)
    donor = em_fit(data, gf, scn.response.h_basis)
    par = em_fit(
        data,
        gf,
        scn.response.h_basis,
        engine="parametric",
        m_draws=2000,
        rng=np.random.default_rng(8),
    )
    assert np.all(np.abs(par.phi - donor.phi) < 0.1)


@pytest.mark.parametrize("engine", ["donor", "parametric"])
def test_zero_variance_respondents_model_is_a_fit_error(engine):
    # fit_glm returns variance 0 where the complete cases lie on a line;
    # em_fit used to die dividing by it
    x = np.linspace(-2.0, 2.0, 6)
    data = make_dataset(x, 2.0 + 3.0 * x, 3, x_missing=[0.1, 0.5, 0.9])
    gf = fit_glm(data.y_observed, data.respondent_columns(), Family.NORMAL, B1X)
    assert gf.spec.components[0].dispersion == 0.0
    with pytest.raises(FitError, match="zero variance"):
        em_fit(data, gf, B1X, engine=engine)


def test_unknown_engine_rejected():
    scn = scenario_s1(1.0, n=300)
    data = generate(scn, 13)
    gf = fit_glm(data.y_observed, data.respondent_columns(), Family.NORMAL, B1XX)
    with pytest.raises(ValueError, match="unknown imputation engine"):
        em_fit(data, gf, scn.response.h_basis, engine="bootstrap")


# ---------------------------------------------------------------------------
# the parametric pool against the tiled per-row draws it replaced
# ---------------------------------------------------------------------------


def pool_case(name):
    if name == "election":
        data, gf, _ = election_case()
        return data, gf.spec
    s3 = built_in_scenario("s3").respondent
    x = np.random.default_rng(71).normal(size=90)
    data = make_dataset(x[:40], np.ones(40), 50, x_missing=x[40:])
    specs = {
        "normal": normal_gamma(),
        "bernoulli": OutcomeSpec(Family.BERNOULLI, (Component(B1X, (0.3, -1.2)),)),
        "poisson": OutcomeSpec(Family.POISSON, (Component(B1X, (0.5, 0.4)),)),
        "gamma": OutcomeSpec(Family.GAMMA, (Component(B1X, (-0.2, 0.3), 2.5),)),
        "s3": s3,
        "s3-tilted": tilt(s3, 0.8),
        # a component no draw picks draws nothing and takes nothing from rng
        "unpicked": OutcomeSpec(
            Family.NORMAL,
            s3.components + (Component(B1X, (3.0, 1.0), 0.5),),
            weights=(0.35, 0.65 - 1e-12, 1e-12),
        ),
    }
    return data, specs[name]


@pytest.mark.parametrize("m_draws", [1, 37, 200])
@pytest.mark.parametrize(
    "name",
    ["normal", "bernoulli", "poisson", "gamma", "s3", "s3-tilted", "unpicked", "election"],
)
def test_parametric_pool_matches_tiled_draws(name, m_draws):
    data, spec = pool_case(name)
    rng, ref_rng = np.random.default_rng(m_draws), np.random.default_rng(m_draws)
    got = _parametric_pool(spec, data, m_draws, rng)
    ref = tiled_parametric_pool(spec, data, m_draws, ref_rng)
    assert got.shape == (data.n_missing, m_draws)
    assert np.array_equal(got, ref)
    assert rng.random() == ref_rng.random()


def test_parametric_pool_memory_grows_with_the_pool_not_the_design():
    # sample holds at most about five pool-sized arrays at once: a
    # mixture's picks, a row mask and the uniforms, a component's repeated
    # parameter and the output (here a one-component Bernoulli holds three
    # and a byte mask).  Repeating the covariates per draw would build the
    # 17-column design per draw, over 17 pool sizes.
    data, gf, _ = election_case()
    m_draws = 500
    pool_bytes = data.n_missing * m_draws * 8
    tracemalloc.start()
    try:
        _parametric_pool(gf.spec, data, m_draws, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * pool_bytes


# ---------------------------------------------------------------------------
# outcome-mean estimate
# ---------------------------------------------------------------------------


def test_mu_y_without_missing_is_sample_mean():
    rng = np.random.default_rng(14)
    y = rng.normal(size=70)
    data = make_dataset(rng.normal(size=70), y, 0)
    scnfit = fit_glm(data.y_observed, data.respondent_columns(), Family.NORMAL, B1X)
    w = fractional_weights(phi_spec(), scnfit.spec, data)
    from fimnar.fiem import FitResult

    res = FitResult(phi_spec(), w, 0.0)
    assert estimate_mu_y(res, data) == pytest.approx(float(y.mean()), abs=1e-12)


def test_mu_y_single_donor_substitution():
    x_obs = np.array([0.0])
    y0 = 2.5
    data = make_dataset(x_obs, [y0], 3, [0.1, -0.2, 0.4])
    gamma = normal_gamma((0.0, 0.0), 1.0)
    w = fractional_weights(phi_spec(), gamma, data)
    from fimnar.fiem import FitResult

    res = FitResult(phi_spec(), w, 0.0)
    # every missing unit is imputed by the single donor value
    assert estimate_mu_y(res, data) == pytest.approx((y0 + 3 * y0) / 4.0, abs=1e-12)


# ---------------------------------------------------------------------------
# differential checks against a reference EM
# ---------------------------------------------------------------------------


def reference_em(phi, weights_at, data, tol=1e-9, max_iter=20000):
    """Textbook EM: E-step weights, then the fixed-weight M-step solve."""
    for _ in range(max_iter):
        new = solve_mean_score(phi, weights_at(phi), data)
        if np.max(np.abs(new.phi - phi.phi)) <= tol:
            return new
        phi = new
    raise AssertionError("reference EM did not converge")


def parametric_weights_at(pool, gamma, data):
    """Pool weights proportional to the full nonresponse odds, h included."""

    def weights_at(phi):
        logw = -(phi.h(data.missing_columns())[:, None] + phi.beta * pool)
        kernel = StoredGrid(logw, 0.0, pool)
        return FractionalWeights(data.n_missing, kernel, fiem._kept_sums(phi, kernel, gamma, data))

    return weights_at


def election_case():
    from pathlib import Path

    from fimnar.config import load_config
    from fimnar.dataio import ingest

    repo = Path(__file__).resolve().parents[1]
    config = load_config(repo / "data" / "election_like.json")
    data = ingest(repo / "data" / "election_like.csv", config.schema)
    (basis,) = config.candidates[0].bases
    gf = fit_glm(data.y_observed, data.respondent_columns(), Family.BERNOULLI, basis)
    return data, gf, config.h_basis


def scenario_case(name, n, seed):
    scn = built_in_scenario(name, n=n)
    rng = np.random.default_rng(seed)
    data = generate(scn, rng)
    return data, _fit_respondent(scn, data, rng, 4), scn.response.h_basis


@pytest.mark.parametrize(
    "case",
    [("s1", 800, 1), ("s2", 800, 2), ("s3", 500, 3), "parametric", "election"],
    ids=["s1", "s2", "s3", "parametric", "election"],
)
def test_em_fit_matches_reference_em(case):
    engine = {}
    if case == "election":
        data, gf, h_basis = election_case()
    elif case == "parametric":
        data, gf, h_basis = scenario_case("s1", 800, 4)
        engine = dict(engine="parametric", m_draws=100)
    else:
        data, gf, h_basis = scenario_case(*case)
    fit = em_fit(data, gf, h_basis, rng=np.random.default_rng(5), **engine)
    if engine:
        pool = _parametric_pool(gf.spec, data, 100, np.random.default_rng(5))
        weights_at = parametric_weights_at(pool, gf.spec, data)
    else:
        def weights_at(phi):
            return fractional_weights(phi, gf.spec, data)
    ref = reference_em(fit.phi_hat.with_phi(np.zeros(fit.phi.size)), weights_at, data)
    assert fit.em_iterations <= 20
    assert np.max(np.abs(fit.phi - ref.phi)) <= 1e-6


def test_em_takes_over_where_newton_stalls():
    # a weakly identified replicate (s1, kappa2 = 0.1, n = 500) on which
    # damped Newton from the ignorable start stalls at a non-root minimum
    # of the score norm, while EM reaches the root near beta = 4.5
    scn = built_in_scenario("s1", n=500, kappa2=0.1)
    rng = np.random.default_rng(np.random.SeedSequence(20240800).spawn(47)[46])
    data = generate(scn, rng)
    gf = _fit_respondent(scn, data, rng, 10)
    fit = em_fit(data, gf, scn.response.h_basis, controls=FiControls(max_em_iter=2000))
    assert fit.em_iterations > fiem.MAX_NEWTON_STEPS

    def weights_at(phi):
        return fractional_weights(phi, gf.spec, data)

    ref = reference_em(fit.phi_hat.with_phi(np.zeros(3)), weights_at, data)
    assert fit.mean_score_norm <= 1e-8
    assert np.max(np.abs(fit.phi - ref.phi)) <= 1e-6


def stalled_replicate():
    """The weakly identified replicate on which Newton stalls and EM takes over."""
    scn = built_in_scenario("s1", n=500, kappa2=0.1)
    rng = np.random.default_rng(np.random.SeedSequence(20240800).spawn(47)[46])
    data = generate(scn, rng)
    return data, _fit_respondent(scn, data, rng, 10), scn.response.h_basis


def same_sums(weights, ref, tol):
    """Whether the weights' ``_KernelSums`` and unit moments agree with those of
    the sums ``ref`` within ``tol`` relative, column by column."""
    got, again = weights.sums, FractionalWeights(weights.n_missing, weights.kernel, ref)
    assert np.array_equal(got.phi, ref.phi) and got.shift == ref.shift
    assert (got.c is None) == (ref.c is None)
    assert (got.parts is None) == (ref.parts is None)
    pairs = [(got.w, ref.w), (got.wp, ref.wp), (weights.ybar, again.ybar),
             (weights.spread, again.spread)]
    if ref.c is not None:
        pairs.append((got.c, ref.c))
    if ref.parts is not None:  # per component, the sums of w r_k and of w r_k pi
        shape = (-1,) + ref.parts.shape[2:]
        pairs.extend(zip(got.parts.reshape(shape), ref.parts.reshape(shape)))
    return all(
        np.all(np.max(np.abs(a - b), axis=0) <= tol * np.max(np.abs(b), axis=0)) for a, b in pairs
    )


@pytest.mark.parametrize("case", ["s1", "s3", "election", "parametric", "em-fallback"])
def test_em_fit_takes_the_unit_moments_from_its_last_evaluation(monkeypatch, case):
    # the unit moments and the sums the variance reads (c included, for
    # one component) come from the solve's last evaluation, at the root
    options = {}
    if case == "election":
        data, gf, h_basis = election_case()
    elif case == "parametric":
        data, gf, h_basis = scenario_case("s1", 800, 4)
        options = dict(engine="parametric", m_draws=100)
    elif case == "em-fallback":
        data, gf, h_basis = stalled_replicate()
        options = dict(controls=FiControls(max_em_iter=2000))
    else:
        data, gf, h_basis = scenario_case(case, 500, 6)

    def separate_pass(*args):
        raise AssertionError("em_fit ran a separate walk for the kernel sums")

    with monkeypatch.context() as patch:
        patch.setattr(fiem, "_kept_sums", separate_pass)
        fit = em_fit(data, gf, h_basis, **options)
    if case == "em-fallback":
        assert fit.em_iterations > fiem.MAX_NEWTON_STEPS
    w = fit.weights
    assert np.array_equal(w.sums.phi, fit.phi)
    assert (w.sums.c is None) == (case == "parametric")
    assert (w.sums.parts is None) == (case != "s3")
    assert same_sums(w, fiem._kept_sums(fit.phi_hat, w.kernel, gf.spec, data), 1e-13)


def test_em_fit_checks_where_its_last_evaluation_was(monkeypatch):
    # a solver whose last evaluation is not at the point it returns: the
    # fit must take the kernel sums from a walk of their own at the root
    newton = fiem._newton

    def one_more_evaluation(x, system, *args):
        x, path, converged = newton(x, system, *args)
        system(x + 0.1)
        return x, path, converged

    monkeypatch.setattr(fiem, "_newton", one_more_evaluation)
    data, gf, h_basis = scenario_case("s1", 500, 6)
    fit = em_fit(data, gf, h_basis)
    w = fit.weights
    assert same_sums(w, fiem._kept_sums(fit.phi_hat, w.kernel, gf.spec, data), 0.0)


def test_evaluation_leaves_a_weight_array_as_it_was():
    # the EM fallback passes its iteration's weights as one array, which
    # the kernel's passes reduce but must not overwrite
    data, gf, h_basis = scenario_case("s1", 500, 6)
    phi = fiem._initial_phi(h_basis, data)
    weights = fractional_weights(phi, gf.spec, data)
    w = weights.kernel[:]
    kept = w.copy()
    for moving in (True, False):
        _score_and_jacobian(phi, _score_arrays(phi, data), w, weights.values, moving)
    assert np.array_equal(w, kept)


@pytest.mark.parametrize("engine", ["donor", "parametric"])
def test_full_jacobian_matches_finite_differences_of_moving_weights(engine):
    rng = np.random.default_rng(15)
    data = make_dataset(
        rng.normal(size=40), rng.normal(size=40), 15, rng.normal(size=15)
    )
    gamma = normal_gamma()
    if engine == "donor":
        def weights_at(phi):
            return fractional_weights(phi, gamma, data)
    else:
        weights_at = parametric_weights_at(rng.normal(size=(15, 30)), gamma, data)
    phi = phi_spec(alpha=(0.2, -0.1), beta=0.3)
    w = weights_at(phi)
    donor_y = data.y_observed if engine == "donor" else w.values  # the columns of w.w
    jac = _score_and_jacobian(phi, _score_arrays(phi, data), w.w, donor_y, True)[1]
    vec = phi.phi
    fd = np.zeros_like(jac)
    for j in range(vec.size):
        step = 1e-5 * (1.0 + abs(vec[j]))
        up = phi.with_phi(vec + step * np.eye(vec.size)[j])
        dn = phi.with_phi(vec - step * np.eye(vec.size)[j])
        fd[:, j] = (
            mean_score(up, weights_at(up), data) - mean_score(dn, weights_at(dn), data)
        ) / (2 * step)
    assert np.linalg.norm(fd - jac) / np.linalg.norm(jac) <= 1e-6
    # the beta column is what the weights' movement adds
    assert np.linalg.norm(jac[:, -1] - score_jacobian(phi, w, data)[:, -1]) > 1e-3


# ---------------------------------------------------------------------------
# invariances
# ---------------------------------------------------------------------------

_PROPERTY_DATA = make_dataset(
    np.linspace(-1.5, 1.5, 30), np.sin(np.arange(30.0)), 12, np.linspace(-1, 1, 12)
)


@given(
    alpha=st.tuples(*[st.floats(-20, 20)] * 2),
    beta=st.floats(-3, 3),
)
@settings(max_examples=50, deadline=None)
def test_weights_do_not_depend_on_alpha(alpha, beta):
    def weights(a):
        return fractional_weights(phi_spec(a, beta), normal_gamma(), _PROPERTY_DATA)

    w0, w1 = weights((0.0, 0.0)), weights(alpha)
    assert np.max(np.abs(w1.w - w0.w)) <= 1e-12


_ORDER_SCENARIO = scenario_s1(1.0, n=300)
_ORDER_DATA = generate(_ORDER_SCENARIO, 41)


@given(st.permutations(range(_ORDER_DATA.n)))
@settings(max_examples=10, deadline=None)
def test_em_fit_does_not_depend_on_row_order(order):
    def fit(data):
        gf = fit_glm(data.y_observed, data.respondent_columns(), Family.NORMAL, B1XX)
        return em_fit(data, gf, _ORDER_SCENARIO.response.h_basis).phi

    order = np.asarray(order)
    shuffled = Dataset(
        columns={"x": _ORDER_DATA.columns["x"][order]},
        y=_ORDER_DATA.y[order],
        delta=_ORDER_DATA.delta[order],
        kinds=dict(KINDS),
    )
    assert np.max(np.abs(fit(shuffled) - fit(_ORDER_DATA))) <= 1e-8


@pytest.mark.parametrize("score, met", [(1e-15, True), (1e-3, False)])
def test_fallback_failure_says_whether_the_score_met_tol_score(monkeypatch, score, met):
    # as on a weakly identified replicate (s1, kappa2 = 0.1, seed 1016), both
    # Newton solves stop unconverged with a large last step
    def stalled(x, system, max_steps, tol, step_tol=math.inf):
        return x, [(0, 0.0, 1.0), (1, 22.1, score)], False

    monkeypatch.setattr(fiem, "_newton", stalled)
    monkeypatch.setattr(fiem, "_em", lambda phi, arrays, kernel, controls: (phi, []))
    scn = scenario_s1(1.0, n=200)
    rng = np.random.default_rng(3)
    data = generate(scn, rng)
    gf = _fit_respondent(scn, data, rng, 1)
    with pytest.raises(FitError, match="Newton from EM's phi did not converge") as info:
        em_fit(data, gf, scn.response.h_basis)
    message = str(info.value)
    assert "last step 22.1" in message
    assert ("the score met tol_score, only the step did not settle" in message) is met

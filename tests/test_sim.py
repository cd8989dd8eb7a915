import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, stats

from fimnar.basis import continuous, parse_formula
from fimnar.expfam import (
    Component,
    Family,
    OutcomeSpec,
    density,
    mean,
    sample,
    tilt,
)
import fimnar.sim as sim
from fimnar.fiem import FiControls
from fimnar.response import ResponseSpec
from fimnar.sim import (
    McRunError,
    Scenario,
    built_in_scenario,
    cc_mu_y,
    generate,
    run_mc,
    scenario_s1,
    scenario_s2,
    scenario_s3,
    true_mu_y,
)

KINDS = {"x": continuous()}


def test_builtin_scenario_lookup():
    assert built_in_scenario("s1", n=100, kappa2=0.5).knob == 0.5
    assert built_in_scenario("S2").name == "s2"
    assert built_in_scenario("s3").respondent.k == 2
    with pytest.raises(ValueError):
        built_in_scenario("s9")


def test_generate_shapes_and_missingness():
    scn = scenario_s1(1.0, n=400)
    data = generate(scn, 5)
    assert data.n == 400
    assert np.all(np.isnan(data.y[data.delta == 0]))
    assert not np.any(np.isnan(data.y[data.delta == 1]))


@pytest.mark.parametrize(
    "scn, expected",
    [
        (scenario_s1(1.0, 10**6), 0.704),
        (scenario_s2(10**6), 0.697),
        (scenario_s3(10**6), 0.697),
    ],
)
def test_response_rate_near_seventy_percent(scn, expected):
    data = generate(scn, 99)
    rate = float(np.mean(data.delta))
    assert rate == pytest.approx(expected, abs=0.01)
    assert 0.67 <= rate <= 0.73


def test_mar_variant_makes_missing_outcomes_exchangeable():
    # with beta = 0 and a flat response surface the outcome law is
    # identical across response groups; with covariate-driven response
    # only the conditional laws match, so the marginal comparison needs
    # the flat variant
    base = scenario_s1(1.0, n=100_000)
    scn = replace(base, response=ResponseSpec(base.response.h_basis, (0.68, 0.0), 0.0))
    data, y_full = generate(scn, 17, return_full_y=True)
    stat, _ = stats.ks_2samp(y_full[data.delta == 1], y_full[data.delta == 0])
    n1 = int(np.sum(data.delta == 1))
    n0 = data.n - n1
    critical_1pct = 1.63 * math.sqrt((n1 + n0) / (n1 * n0))
    assert stat < critical_1pct


def test_mar_variant_conditional_laws_match_in_x_window():
    # beta = 0 with covariate-driven response: conditionally on x the
    # two groups draw from the same density
    base = scenario_s1(1.0, n=200_000)
    scn = replace(base, response=ResponseSpec(base.response.h_basis, (0.68, 0.19), 0.0))
    data, y_full = generate(scn, 18, return_full_y=True)
    window = np.abs(data.columns["x"]) < 0.1
    a = y_full[window & (data.delta == 1)]
    b = y_full[window & (data.delta == 0)]
    stat, _ = stats.ks_2samp(a, b)
    critical_1pct = 1.63 * math.sqrt((a.size + b.size) / (a.size * b.size))
    assert stat < critical_1pct


def test_conditional_mean_of_respondents_near_intercept():
    scn = scenario_s1(1.0, n=100_000)
    data = generate(scn, 23)
    x = data.columns["x"]
    window = (np.abs(x) < 0.05) & (data.delta == 1)
    m = int(window.sum())
    # E[y | respondent, x ~ 0] = kappa_0 + O(window width), kappa_0 = 0
    se = math.sqrt(0.5) / math.sqrt(m)
    assert abs(float(data.y[window].mean())) < 4 * se + 0.003


def test_generated_joint_satisfies_bayes_identity():
    # p1(x) f1(y|x) / pi(x,y) must equal the mixture p1 f1 + (1-p1) f0
    scn = scenario_s3(100)
    tilted = tilt(scn.respondent, scn.response.beta)
    for x in (-1.2, 0.0, 0.8):
        cols = {"x": np.array([x])}
        p1 = float(scn.response_probability(cols)[0])
        for y in (-2.0, 0.3, 1.5):
            f1 = float(density(scn.respondent, [y], cols)[0])
            f0 = float(density(tilted, [y], cols)[0])
            pi = float(scn.response.propensity(cols, [y])[0])
            lhs = p1 * f1 / pi
            rhs = p1 * f1 + (1 - p1) * f0
            assert lhs == pytest.approx(rhs, rel=1e-9)
        # and the implied unconditional density integrates to one
        total, _ = integrate.quad(
            lambda yy: float(density(scn.respondent, [yy], cols)[0])
            * p1
            / float(scn.response.propensity(cols, [yy])[0]),
            -np.inf,
            np.inf,
            limit=200,
        )
        assert total == pytest.approx(1.0, abs=1e-7)


def test_complete_data_logistic_recovers_response_truth():
    # fitting the indicator on (x, full y) recovers the generating
    # mechanism: an independent check of the joint-law construction
    scn = scenario_s2(200_000)
    data, y_full = generate(scn, 31, return_full_y=True)
    from fimnar.respondent import fit_glm

    x = data.columns["x"]
    design_cols = {"x": x, "yf": y_full}
    kinds = {"x": continuous(), "yf": continuous()}
    basis = parse_formula("1 + x + yf", kinds)
    fit = fit_glm(data.delta.astype(float), design_cols, Family.BERNOULLI, basis)
    got = np.asarray(fit.spec.components[0].coef)
    assert np.allclose(got, [0.7, 0.39, 0.39], atol=0.05)


# ---------------------------------------------------------------------------
# the truth functional
# ---------------------------------------------------------------------------


def test_true_mu_y_reduces_to_respondent_mean_under_mar():
    base = scenario_s1(1.0, n=100)
    scn = replace(base, response=ResponseSpec(base.response.h_basis, (0.68, 0.19), 0.0))
    # independent: E[m1(x)] by direct quadrature
    oracle, _ = integrate.quad(
        lambda x: stats.norm.pdf(x) * (0.4 * x + x * x), -np.inf, np.inf
    )
    assert true_mu_y(scn) == pytest.approx(oracle, abs=1e-9)


def test_true_mu_y_odd_symmetry():
    kinds = dict(KINDS)
    respondent = OutcomeSpec(
        Family.NORMAL, (Component(parse_formula("x", kinds), (1.0,), 0.7),)
    )
    response = ResponseSpec(parse_formula("1 + x^2", kinds), (0.5, 0.3), 0.0)
    scn = Scenario(
        name="odd",
        n=100,
        respondent=respondent,
        response=response,
    )
    assert true_mu_y(scn) == pytest.approx(0.0, abs=1e-9)


def quad_true_mu_y(scn):
    """The truth as computed before the trapezoid rule: adaptive quadrature."""
    tilted = tilt(scn.respondent, scn.response.beta)

    def integrand(x):
        columns = {"x": np.array([x])}
        p1 = float(scn.response_probability(columns)[0])
        m1 = float(mean(scn.respondent, columns)[0])
        m0 = float(mean(tilted, columns)[0])
        return stats.norm.pdf(x) * (p1 * m1 + (1.0 - p1) * m0)

    value, err = integrate.quad(integrand, -np.inf, np.inf, epsabs=1e-9, limit=400)
    assert err <= 1e-7
    return value


@pytest.mark.parametrize(
    "name, kappa2",
    [("s1", 0.1), ("s1", 0.5), ("s1", 1.0), ("s1", 2.0), ("s2", 1.0), ("s3", 1.0)],
)
def test_true_mu_y_matches_adaptive_quadrature(name, kappa2):
    scn = built_in_scenario(name, kappa2=kappa2)
    assert abs(true_mu_y(scn) - quad_true_mu_y(scn)) <= 1e-12


def test_true_mu_y_raises_when_the_step_halving_test_fails(monkeypatch):
    monkeypatch.setattr(sim, "TRUTH_STEP", 1.0)
    with pytest.raises(RuntimeError, match="did not converge"):
        true_mu_y(scenario_s1(1.0))


def test_true_mu_y_matches_simulation_oracle():
    scn = scenario_s1(1.0, n=100)
    target = true_mu_y(scn)
    # stream ten million generated outcomes without building datasets
    total, total_sq, count = 0.0, 0.0, 0
    tilted = tilt(scn.respondent, scn.response.beta)
    rng = np.random.default_rng(2718)
    for _ in range(10):
        x = rng.normal(size=1_000_000)
        cols = {"x": x}
        p1 = scn.response_probability(cols)
        resp = rng.random(x.size) < p1
        y = np.empty(x.size)
        y[resp] = sample(scn.respondent, {"x": x[resp]}, rng)
        y[~resp] = sample(tilted, {"x": x[~resp]}, rng)
        total += float(y.sum())
        total_sq += float((y**2).sum())
        count += x.size
    mc_mean = total / count
    mc_se = math.sqrt((total_sq / count - mc_mean**2) / count)
    assert abs(mc_mean - target) < 4 * mc_se


def test_scenario_validation_rejects_divergent_normalizer():
    kinds = dict(KINDS)
    gamma_out = OutcomeSpec(
        Family.GAMMA, (Component(parse_formula("1", kinds), (0.0,), 2.0),)
    )
    response = ResponseSpec(parse_formula("1 + x", kinds), (0.5, 0.1), -3.0)
    scn = Scenario(
        name="divergent",
        n=50,
        respondent=gamma_out,
        response=response,
    )
    with pytest.raises(Exception):
        generate(scn, 1)


# ---------------------------------------------------------------------------
# the Monte Carlo driver
# ---------------------------------------------------------------------------


def test_single_replicate_smoke():
    scn = scenario_s1(1.0, n=300)
    summary = run_mc(scn, b=1, seed=7)
    cc = summary.row("mu_y", "CC")
    assert cc.n_replicates == 1
    assert cc.rmse == pytest.approx(abs(cc.bias), rel=1e-12)
    fi = summary.row("mu_y", "FI")
    assert fi.n_replicates == 1


def test_run_mc_is_reproducible():
    scn = scenario_s1(1.0, n=250)
    a = run_mc(scn, b=4, seed=123)
    b = run_mc(scn, b=4, seed=123)
    assert a.rows == b.rows


def test_run_mc_is_the_same_for_any_worker_count():
    # two worker processes, no more: the pool path must reproduce the serial run
    scn = scenario_s2(n=200)
    serial = run_mc(scn, b=6, seed=11, workers=1)
    pooled = run_mc(scn, b=6, seed=11, workers=2)
    assert pooled.rows == serial.rows
    assert pooled.replicates == serial.replicates


def test_run_mc_seed_changes_results():
    scn = scenario_s1(1.0, n=250)
    a = run_mc(scn, b=4, seed=123)
    b = run_mc(scn, b=4, seed=124)
    assert a.rows != b.rows


def test_cc_only_run():
    scn = scenario_s1(1.0, n=300)
    summary = run_mc(scn, b=3, seed=5, estimators=("CC",))
    assert [r.method for r in summary.rows] == ["CC"]


def test_bias_ordering_cc_vs_fi():
    scn = scenario_s1(1.0, n=500)
    summary = run_mc(scn, b=60, seed=31)
    cc = summary.row("mu_y", "CC")
    fi = summary.row("mu_y", "FI")
    assert abs(fi.bias) < abs(cc.bias)
    # the complete-case bias should be near the documented 0.167
    assert cc.bias == pytest.approx(0.167, abs=0.04)


def test_failure_limit_enforced():
    scn = scenario_s1(1.0, n=300)
    with pytest.raises(McRunError):
        run_mc(scn, b=4, seed=1, controls=FiControls(max_em_iter=1))


def test_cc_interval_is_t_based():
    rng = np.random.default_rng(44)
    from fimnar.dataio import Dataset

    y = rng.normal(size=50)
    data = Dataset(
        columns={"x": rng.normal(size=50)},
        y=y,
        delta=np.ones(50, dtype=int),
        kinds=dict(KINDS),
    )
    est, lo, hi = cc_mu_y(data)
    se = y.std(ddof=1) / math.sqrt(50)
    t = stats.t.ppf(0.975, 49)
    assert est == pytest.approx(y.mean())
    assert lo == pytest.approx(est - t * se)
    assert hi == pytest.approx(est + t * se)


@pytest.mark.parametrize("n", [2, 3, 6, 50, 1001])
def test_cc_interval_matches_scipy_stats_t(n):
    from fimnar.dataio import Dataset

    y = np.random.default_rng(n).normal(size=n)
    data = Dataset(
        columns={"x": np.zeros(n)}, y=y, delta=np.ones(n, dtype=int), kinds=dict(KINDS)
    )
    est, lo, hi = cc_mu_y(data)
    half = stats.t.ppf(0.975, n - 1) * y.std(ddof=1) / math.sqrt(n)
    assert lo == pytest.approx(est - half, rel=1e-15, abs=0)
    assert hi == pytest.approx(est + half, rel=1e-15, abs=0)


def test_cc_interval_with_one_respondent_is_nan_without_warnings():
    from fimnar.dataio import Dataset

    data = Dataset(
        columns={"x": np.zeros(3)},
        y=np.array([1.5, np.nan, np.nan]),
        delta=np.array([1, 0, 0]),
        kinds=dict(KINDS),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est, lo, hi = cc_mu_y(data)
    assert est == 1.5
    assert math.isnan(lo) and math.isnan(hi)


def test_summary_row_invariants():
    scn = scenario_s1(1.0, n=300)
    summary = run_mc(scn, b=8, seed=77)
    for row in summary.rows:
        assert row.rmse**2 >= row.bias**2 - 1e-12
        assert 0.0 <= row.coverage <= 1.0
        assert row.n_replicates + row.failures >= 8 or row.method == "CC"

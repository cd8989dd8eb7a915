import math

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import gammaln

from fimnar.basis import continuous, parse_formula
from fimnar.expfam import (
    Component,
    Family,
    OutcomeSpec,
    SupportError,
    TiltDomainError,
    _log_c,
    density,
    flatten_params,
    log_density,
    log_odds_normalizer,
    mean,
    n_free_params,
    sample,
    tilt,
    unflatten_params,
)
from fimnar.sim import built_in_scenario

from oracles import sample_per_row

KINDS = {"x": continuous()}
B1 = parse_formula("1", KINDS)
B1X = parse_formula("1 + x", KINDS)
B1XX = parse_formula("1 + x + x^2", KINDS)


def normal_spec(coef, var, basis=None):
    return OutcomeSpec(Family.NORMAL, (Component(basis or B1X, coef, var),))


def bernoulli_spec(coef, basis=None):
    return OutcomeSpec(Family.BERNOULLI, (Component(basis or B1X, coef),))


def gamma_spec(coef, shape, basis=None):
    return OutcomeSpec(Family.GAMMA, (Component(basis or B1X, coef, shape),))


def poisson_spec(coef, basis=None):
    return OutcomeSpec(Family.POISSON, (Component(basis or B1X, coef),))


def s3_mixture():
    # two normal components with distinct mean structures, shared variance 0.5
    return OutcomeSpec(
        Family.NORMAL,
        (
            Component(B1X, (1.0, -1.4), 0.5),
            Component(B1XX, (-1.5, -0.5, 1.0), 0.5),
        ),
        weights=(0.35, 0.65),
    )


def cols(*xs):
    return {"x": np.asarray(xs, dtype=float)}


def d1(spec, y, x):
    return float(density(spec, np.array([y]), cols(x))[0])


# a small but diverse family/parameter grid reused by the oracle checks
def param_grid():
    grid = []
    for intercept in (-0.5, 0.3):
        for slope in (0.0, 0.8):
            grid.append(normal_spec((intercept, slope), 0.5))
            grid.append(normal_spec((intercept, slope), 2.0))
            grid.append(bernoulli_spec((intercept, slope)))
            grid.append(poisson_spec((intercept, slope)))
            grid.append(gamma_spec((intercept, slope), 2.5))
    grid.append(s3_mixture())
    return grid


def oracle_logpdf(spec, y, x):
    """Independent density oracle built on scipy.stats distributions."""
    design = np.array([1.0, x, x * x])
    out = []
    for w, comp in zip(spec.weights, spec.components):
        d = design[: len(comp.coef)]
        eta = float(np.dot(comp.coef, d))
        if spec.family is Family.NORMAL:
            lp = stats.norm.logpdf(y, eta, math.sqrt(comp.dispersion))
        elif spec.family is Family.BERNOULLI:
            p = 1.0 / (1.0 + math.exp(-eta))
            lp = math.log(p if y == 1.0 else 1.0 - p)
        elif spec.family is Family.POISSON:
            lp = stats.poisson.logpmf(int(y), math.exp(eta))
        else:
            mu = math.exp(eta)
            lp = stats.gamma.logpdf(y, comp.dispersion, scale=mu / comp.dispersion)
        out.append(math.log(w) + lp)
    return float(np.logaddexp.reduce(out))


def oracle_normalizer(spec, beta, x):
    """Independent E[exp(-beta*Y)|x]: quadrature or summation in log space."""
    if spec.family is Family.BERNOULLI:
        return sum(
            np.exp(oracle_logpdf(spec, y, x) - beta * y) for y in (0.0, 1.0)
        )
    if spec.family is Family.POISSON:
        return sum(
            np.exp(oracle_logpdf(spec, float(y), x) - beta * y) for y in range(400)
        )
    lo, hi = (1e-12, np.inf) if spec.family is Family.GAMMA else (-np.inf, np.inf)
    val, _ = integrate.quad(
        lambda y: np.exp(oracle_logpdf(spec, y, x) - beta * y), lo, hi, limit=400
    )
    return val


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------


def test_standard_normal_mode():
    spec = normal_spec((0.0, 0.0), 1.0)
    assert d1(spec, 0.0, 0.0) == pytest.approx(0.3989423, abs=5e-8)


def test_bernoulli_even_odds():
    spec = bernoulli_spec((0.0, 0.0))
    assert d1(spec, 1.0, 0.0) == pytest.approx(0.5, abs=1e-15)


def test_mixture_density_matches_two_normal_evaluations():
    # oracle: 0.35*N(0; 1, 0.5) + 0.65*N(0; -1.5, 0.5) via scipy.stats
    oracle = 0.35 * stats.norm.pdf(0.0, 1.0, math.sqrt(0.5)) + 0.65 * stats.norm.pdf(
        0.0, -1.5, math.sqrt(0.5)
    )
    assert oracle == pytest.approx(0.11129615604628362, rel=1e-14)
    assert d1(s3_mixture(), 0.0, 0.0) == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize(
    "spec_fn, bad_y",
    [
        (lambda: bernoulli_spec((0.0, 0.0)), 0.5),
        (lambda: gamma_spec((0.0, 0.0), 2.0), -1.0),
        (lambda: gamma_spec((0.0, 0.0), 2.0), 0.0),
        (lambda: poisson_spec((0.0, 0.0)), 1.5),
        (lambda: poisson_spec((0.0, 0.0)), -1.0),
        (lambda: normal_spec((0.0, 0.0), 1.0), np.inf),
    ],
)
def test_density_rejects_unsupported_outcomes(spec_fn, bad_y):
    with pytest.raises(SupportError):
        density(spec_fn(), np.array([bad_y]), cols(0.0))


@pytest.mark.parametrize("spec", param_grid())
@pytest.mark.parametrize("x", [-1.0, 0.5])
def test_density_normalizes_to_one(spec, x):
    if spec.family is Family.BERNOULLI:
        total = d1(spec, 0.0, x) + d1(spec, 1.0, x)
    elif spec.family is Family.POISSON:
        total = sum(d1(spec, float(y), x) for y in range(200))
    elif spec.family is Family.GAMMA:
        total, _ = integrate.quad(lambda y: d1(spec, y, x), 1e-12, np.inf, limit=200)
    else:
        total, _ = integrate.quad(lambda y: d1(spec, y, x), -np.inf, np.inf, limit=200)
    assert total == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# tilting
# ---------------------------------------------------------------------------


def test_normal_tilt_shifts_mean_by_beta_variance():
    # quadrature oracle fixes the mapping: the normalized tilted density
    # of N(0,1) at beta=0.24 is N(-0.24, 1)
    spec = normal_spec((0.0, 0.0), 1.0)
    beta = 0.24
    norm_const = oracle_normalizer(spec, beta, 0.0)
    # analytic cross-check of the oracle itself: E exp(-0.24 Y) = exp(0.24^2/2)
    assert norm_const == pytest.approx(1.0292187301433552, rel=1e-9)
    tilted = tilt(spec, beta)
    for y in (-1.0, 0.0, 0.7):
        oracle = d1(spec, y, 0.0) * math.exp(-beta * y) / norm_const
        assert d1(tilted, y, 0.0) == pytest.approx(oracle, rel=1e-10)
        assert d1(tilted, y, 0.0) == pytest.approx(
            stats.norm.pdf(y, -0.24, 1.0), rel=1e-12
        )
    assert mean(tilted, cols(0.0))[0] == pytest.approx(-0.24, abs=1e-15)


def test_tilt_by_zero_is_identity():
    for spec in (normal_spec((0.1, 0.2), 0.7), s3_mixture()):
        assert tilt(spec, 0.0) == spec


def test_bernoulli_tilt_matches_two_point_normalization():
    spec = bernoulli_spec((0.4, 0.0))
    beta = 0.9
    p = d1(spec, 1.0, 0.0)
    oracle_p1 = p * math.exp(-beta) / ((1 - p) + p * math.exp(-beta))
    tilted = tilt(spec, beta)
    assert d1(tilted, 1.0, 0.0) == pytest.approx(oracle_p1, rel=1e-12)
    # equivalently: the logit shifts by exactly -beta
    from scipy.special import expit

    assert d1(tilted, 1.0, 0.0) == pytest.approx(expit(0.4 - beta), rel=1e-12)


def test_double_tilt_restores_parameters_exactly():
    for spec in (normal_spec((0.3, -0.2), 0.5), s3_mixture(), gamma_spec((1.0, 0.1), 2.0)):
        back = tilt(tilt(spec, 0.7), -0.7)
        assert back == spec
        assert abs(back.tilt_beta) <= 1e-12


@pytest.mark.parametrize("spec", param_grid())
@pytest.mark.parametrize("beta", [-0.8, 0.3, 1.2])
@pytest.mark.parametrize("x", [-0.7, 0.4])
def test_tilt_proportionality(spec, beta, x):
    # density(tilt(spec,beta)) == density(spec)*exp(-beta*y - lognorm)
    if spec.family is Family.GAMMA:
        # keep the tilt inside the divergence boundary for this mean
        theta = math.exp(-(np.array(spec.components[0].coef) @ np.array([1.0, x])))
        if beta <= -0.9 * float(spec.components[0].dispersion) * theta:
            pytest.skip("tilt outside gamma domain at this x")
    tilted = tilt(spec, beta)
    lognorm = float(log_odds_normalizer(spec, beta, cols(x))[0])
    ys = (
        [0.0, 1.0]
        if spec.family is Family.BERNOULLI
        else [0.0, 1.0, 3.0]
        if spec.family is Family.POISSON
        else [0.2, 1.1, 2.5]
        if spec.family is Family.GAMMA
        else [-1.3, 0.0, 0.9]
    )
    for y in ys:
        lhs = float(log_density(tilted, np.array([y]), cols(x))[0])
        rhs = float(log_density(spec, np.array([y]), cols(x))[0]) - beta * y - lognorm
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_gamma_tilt_domain_error():
    # rate at x=0 is shape*theta = 2.5; any beta <= -2.5 diverges
    spec = gamma_spec((0.0, 0.0), 2.5)
    with pytest.raises(TiltDomainError):
        log_odds_normalizer(spec, -2.6, cols(0.0))
    with pytest.raises(TiltDomainError):
        density(tilt(spec, -2.6), np.array([1.0]), cols(0.0))
    # inside the domain everything is finite
    assert np.isfinite(log_odds_normalizer(spec, -2.4, cols(0.0))).all()


# ---------------------------------------------------------------------------
# log odds normalizer
# ---------------------------------------------------------------------------


def test_normalizer_standard_normal_half():
    spec = normal_spec((0.0, 0.0), 1.0)
    assert float(log_odds_normalizer(spec, 1.0, cols(0.0))[0]) == pytest.approx(
        0.5, abs=1e-12
    )


@pytest.mark.parametrize("spec", param_grid())
def test_normalizer_zero_beta_is_zero(spec):
    out = log_odds_normalizer(spec, 0.0, cols(-0.3, 0.8))
    assert np.allclose(out, 0.0, atol=1e-12)


def test_normalizer_bernoulli_log_three_quarters():
    spec = bernoulli_spec((0.0, 0.0))
    got = float(log_odds_normalizer(spec, math.log(2.0), cols(0.0))[0])
    assert got == pytest.approx(-0.28768207245178093, abs=1e-14)


@pytest.mark.parametrize("spec", param_grid())
@pytest.mark.parametrize("beta", [-2.0, -0.5, 0.7, 2.0])
def test_normalizer_matches_quadrature_oracle(spec, beta):
    if spec.family is Family.GAMMA:
        theta = math.exp(-float(spec.components[0].coef[0]) - 0.2 * float(spec.components[0].coef[1]))
        if beta <= -0.9 * float(spec.components[0].dispersion) * theta:
            pytest.skip("outside gamma tilt domain")
    x = 0.2
    got = float(log_odds_normalizer(spec, beta, cols(x))[0])
    assert got == pytest.approx(math.log(oracle_normalizer(spec, beta, x)), abs=1e-6)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_degenerate_bernoulli():
    spec = bernoulli_spec((40.0, 0.0))  # p numerically 1
    rng = np.random.default_rng(0)
    draws = sample(spec, cols(*np.zeros(1000)), rng)
    assert np.all(draws == 1.0)


def test_sample_normal_law_of_large_numbers():
    spec = normal_spec((0.7, 0.0), 2.0)
    rng = np.random.default_rng(1)
    draws = sample(spec, cols(*np.zeros(100_000)), rng)
    tol = 4.0 * math.sqrt(2.0) / math.sqrt(100_000)
    assert abs(draws.mean() - 0.7) < tol


def test_sample_mixture_component_frequencies():
    spec = OutcomeSpec(
        Family.NORMAL,
        (Component(B1, (10.0,), 0.01), Component(B1, (-10.0,), 0.01)),
        weights=(0.35, 0.65),
    )
    rng = np.random.default_rng(2)
    draws = sample(spec, cols(*np.zeros(100_000)), rng)
    share_first = np.mean(draws > 0)
    assert abs(share_first - 0.35) < 0.01


def test_sample_gamma_and_poisson_support():
    rng = np.random.default_rng(3)
    g = sample(gamma_spec((0.5, 0.0), 2.0), cols(*np.zeros(500)), rng)
    assert np.all(g > 0)
    p = sample(poisson_spec((0.5, 0.0)), cols(*np.zeros(500)), rng)
    assert np.all(p >= 0) and np.all(p == np.floor(p))


@pytest.mark.parametrize("tilted", [False, True], ids=["respondents", "tilted"])
@pytest.mark.parametrize("name", ["s1", "s2", "s3", "gamma"])
def test_one_draw_per_row_matches_per_row_code(name, tilted):
    # sim.generate draws once per row, from the respondents' model and
    # from its tilt; the draws and the generator stream stay the same
    if name == "gamma":
        spec, beta = gamma_spec((-0.2, 0.3), 2.5), -0.5
    else:
        scn = built_in_scenario(name, n=500)
        spec, beta = scn.respondent, scn.response.beta
    if tilted:
        spec = tilt(spec, beta)
    x = cols(*np.random.default_rng(81).normal(size=1001))
    rng, ref_rng = np.random.default_rng(82), np.random.default_rng(82)
    assert np.array_equal(sample(spec, x, rng), sample_per_row(spec, x, ref_rng))
    assert rng.random() == ref_rng.random()


# ---------------------------------------------------------------------------
# parameter vector and serialization plumbing
# ---------------------------------------------------------------------------


def test_log_c_matches_scipy_gammaln():
    # log y! and the gamma shape's log Gamma(s) come from math.lgamma; the
    # Poisson term once per distinct count, in the shape of y
    eps = np.finfo(float).eps
    counts = np.random.default_rng(8).permutation(np.repeat(np.arange(3000.0), 2)).reshape(60, 100)
    got, ref = _log_c(Family.POISSON, counts, 1.0), -gammaln(counts + 1.0)
    assert got.shape == counts.shape
    assert np.all(np.abs(got - ref) <= 4 * eps * np.abs(ref))
    one = np.array([1.0])  # log y = 0, so only s log s - log Gamma(s) is left
    for s in np.concatenate([np.arange(1.0, 200.0), np.geomspace(0.05, 1e6, 401)]):
        ref = s * math.log(s) - gammaln(s)
        scale = 1.0 + abs(s * math.log(s)) + abs(gammaln(s))
        assert abs(_log_c(Family.GAMMA, one, -s)[0] - ref) <= 4 * eps * scale, s


def test_flatten_unflatten_round_trip():
    spec = s3_mixture()
    vec = flatten_params(spec)
    assert vec.size == n_free_params(spec) == 5 + 2 + 1
    again = unflatten_params(spec, vec)
    assert again == spec


def test_unflatten_rejects_wrong_length():
    with pytest.raises(ValueError):
        unflatten_params(s3_mixture(), np.zeros(3))


@pytest.mark.parametrize(
    "bad",
    [
        dict(weights=(0.5, 0.6)),  # weights do not sum to one
        dict(weights=(-0.1, 1.1)),  # negative weight
    ],
)
def test_mixture_weight_validation(bad):
    comps = (Component(B1X, (0.0, 1.0), 1.0), Component(B1X, (0.0, 2.0), 1.0))
    with pytest.raises(ValueError):
        OutcomeSpec(Family.NORMAL, comps, **bad)


def test_non_normal_mixture_rejected():
    comps = (Component(B1X, (0.0, 1.0)), Component(B1X, (0.0, 2.0)))
    with pytest.raises(ValueError):
        OutcomeSpec(Family.BERNOULLI, comps, weights=(0.5, 0.5))


def test_dispersion_validation():
    with pytest.raises(ValueError):
        OutcomeSpec(Family.NORMAL, (Component(B1X, (0.0, 1.0), None),))
    with pytest.raises(ValueError):
        OutcomeSpec(Family.GAMMA, (Component(B1X, (0.0, 1.0), -2.0),))
    with pytest.raises(ValueError):
        OutcomeSpec(Family.POISSON, (Component(B1X, (0.0, 1.0), 1.0),))

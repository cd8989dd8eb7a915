import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import digamma, logsumexp, polygamma

from fimnar.basis import binary, continuous, parse_formula
from fimnar.expfam import (
    Family,
    OutcomeSpec,
    Component,
    flatten_params,
    log_density,
    unflatten_params,
)
from fimnar.respondent import digamma as psi  # scipy's digamma is the reference here
from fimnar.respondent import (
    GRAD_TOL,
    SIGMA_FLOOR_FACTOR,
    Candidate,
    FitError,
    _em_batch,
    _gamma_shape,
    _initial_responsibilities,
    fit_glm,
    fit_normal_mixture,
    search_basis_by_aic,
    select_aic,
    trigamma,
)

KINDS = {"x": continuous(), "w": binary()}
B1X = parse_formula("1 + x", KINDS)
B1XX = parse_formula("1 + x + x^2", KINDS)


def cols(x, **extra):
    out = {"x": np.asarray(x, dtype=float)}
    out.update({k: np.asarray(v) for k, v in extra.items()})
    return out


def loglik_of(spec, y, columns):
    return float(np.sum(log_density(spec, y, columns)))


# ---------------------------------------------------------------------------
# single-family fits
# ---------------------------------------------------------------------------


def test_normal_exact_interpolation():
    x = np.linspace(-2, 2, 25)
    y = 2.0 + 3.0 * x
    fit = fit_glm(y, cols(x), Family.NORMAL, B1X)
    assert np.allclose(fit.spec.components[0].coef, (2.0, 3.0), atol=1e-12)
    assert fit.spec.components[0].dispersion == 0.0


def test_bernoulli_balanced_symmetry():
    x = np.array([-1.0, -1.0, 1.0, 1.0])
    y = np.array([0.0, 1.0, 0.0, 1.0])
    fit = fit_glm(y, cols(x), Family.BERNOULLI, B1X)
    assert np.allclose(fit.spec.components[0].coef, 0.0, atol=1e-9)


def test_bernoulli_steep_slope_recovery_within_three_se():
    # respondents' model of the binary scenario: logit p = -0.21 + 5.9 x
    rng = np.random.default_rng(7)
    n = 10_000
    x = rng.normal(size=n)
    p = 1.0 / (1.0 + np.exp(-(-0.21 + 5.9 * x)))
    y = (rng.random(n) < p).astype(float)
    fit = fit_glm(y, cols(x), Family.BERNOULLI, B1X)
    coef = np.asarray(fit.spec.components[0].coef)
    # observed-information standard errors
    design = B1X.design(cols(x))
    mu = 1.0 / (1.0 + np.exp(-design @ coef))
    info = design.T @ (design * (mu * (1 - mu))[:, None])
    se = np.sqrt(np.diag(np.linalg.inv(info)))
    assert np.all(np.abs(coef - np.array([-0.21, 5.9])) < 3.0 * se)


def test_gamma_recovery():
    rng = np.random.default_rng(11)
    n = 20_000
    x = rng.normal(size=n)
    mu = np.exp(0.5 + 0.3 * x)
    shape = 2.5
    y = rng.gamma(shape, mu / shape)
    fit = fit_glm(y, cols(x), Family.GAMMA, B1X)
    assert np.allclose(fit.spec.components[0].coef, (0.5, 0.3), atol=0.05)
    assert fit.spec.components[0].dispersion == pytest.approx(shape, rel=0.05)


@given(
    log_y=st.lists(st.floats(-16.0, 16.0), min_size=1, max_size=4),
    coef=st.floats(-5.0, 5.0),
)
@example(log_y=[0.0], coef=0.0)  # the profile statistic at its bound: no maximum
@example(log_y=[0.0, 1e-5], coef=0.0)
@settings(max_examples=300, deadline=None)
def test_gamma_shape_newton_matches_brentq(log_y, coef):
    y = np.exp(np.asarray(log_y))
    x = np.ones((y.size, 1))
    eta = np.full(y.size, coef)
    stat = float(np.mean(np.log(y) - eta - y * np.exp(-eta)))

    def dll(s):
        return math.log(s) + 1.0 - digamma(s) + stat

    if dll(1e8) > 0:
        with pytest.raises(FitError, match="no interior maximum"):
            _gamma_shape(x, y, np.array([coef]))
        return
    got = _gamma_shape(x, y, np.array([coef]))
    if dll(1e-8) < 0:  # outside the old bracket
        assert got < 1e-8 and abs(dll(got)) <= 1e-8 * abs(stat)
        return
    ref = brentq(dll, 1e-8, 1e8, xtol=1e-300, rtol=8.9e-16, maxiter=500)
    # above shape 30, log s - digamma(s) is about 1/(2s) and its rounding
    # moves the root by more than 1e-12 relative, for brentq as for Newton
    assert got == pytest.approx(ref, rel=1e-12 if ref <= 30 else 1e-6)


def test_gamma_shape_is_accurate_at_large_shapes():
    # log s - digamma(s) is about 1/(2s), so written out it cancels; the
    # root of the profile score for the same float statistic, against a
    # 40-digit one
    mpmath = pytest.importorskip("mpmath")
    x, coef = np.ones((1, 1)), np.zeros(1)
    for shape in np.geomspace(10.0, 1e7, 61):
        y = np.array([1.0 + shape**-0.5])  # the root is near shape
        eta = x @ coef
        stat = float(np.mean(np.log(y) - eta - y * np.exp(-eta)))
        got = _gamma_shape(x, y, coef)
        with mpmath.workdps(40):
            score = lambda s: mpmath.log(s) + 1 - mpmath.digamma(s) + mpmath.mpf(stat)
            ref = float(mpmath.findroot(score, got))
        assert got == pytest.approx(ref, rel=1e-12), shape


def test_digamma_and_trigamma_match_scipy():
    for s in np.concatenate([np.geomspace(0.05, 1e4, 2001), np.linspace(0.05, 30.0, 2001)]):
        ref = digamma(s)
        assert abs(psi(s) - ref) <= 1e-13 * (1.0 + abs(ref)), s
        ref = polygamma(1, s)
        assert abs(trigamma(s) - ref) <= 1e-13 * (1.0 + abs(ref)), s


@given(st.floats(0.05, 1e4))
@settings(max_examples=500, deadline=None)
def test_digamma_and_trigamma_recurrences(s):
    # psi(s+1) - psi(s) = 1/s and psi'(s) - psi'(s+1) = 1/s^2, to rounding
    # of the terms; the series starts at SERIES_SHAPE, so s and s+1 may be
    # computed on either side of it
    eps = np.finfo(float).eps
    assert abs(psi(s + 1.0) - psi(s) - 1.0 / s) <= 8 * eps * (1.0 + abs(psi(s)))
    assert abs(trigamma(s) - trigamma(s + 1.0) - 1.0 / s**2) <= 8 * eps * trigamma(s)


def test_poisson_recovery():
    rng = np.random.default_rng(13)
    n = 20_000
    x = rng.normal(size=n)
    y = rng.poisson(np.exp(0.4 + 0.6 * x)).astype(float)
    fit = fit_glm(y, cols(x), Family.POISSON, B1X)
    assert np.allclose(fit.spec.components[0].coef, (0.4, 0.6), atol=0.05)
    assert fit.trace[-1] <= GRAD_TOL  # small counts keep the absolute stop test


@pytest.mark.parametrize("n, coef", [(4000, (9.0, 0.1)), (6000, (9.2, 0.1)), (6000, (9.5, 0.07))])
def test_poisson_with_large_counts_converges(n, coef):
    # at counts near 1e4 the gradient X'(y - mu) rounds at about 2e-8, so
    # the absolute GRAD_TOL alone cannot be met
    rng = np.random.default_rng(1)
    x = rng.normal(size=n)
    y = rng.poisson(np.exp(coef[0] + coef[1] * x)).astype(float)
    fit = fit_glm(y, cols(x), Family.POISSON, B1X)
    got = np.asarray(fit.spec.components[0].coef)
    design = B1X.design(cols(x))
    gradient = design.T @ (y - np.exp(design @ got))
    assert fit.trace[-1] > GRAD_TOL
    assert np.max(np.abs(gradient)) <= 1e-14 * np.max(np.abs(design).T @ y)
    assert np.allclose(got, coef, atol=0.01)


@pytest.mark.parametrize(
    "family, make_y",
    [
        (Family.NORMAL, lambda rng, x: 0.3 + 0.8 * x + rng.normal(scale=0.7, size=x.size)),
        (Family.BERNOULLI, lambda rng, x: (rng.random(x.size) < 1 / (1 + np.exp(-0.2 - x))).astype(float)),
        (Family.POISSON, lambda rng, x: rng.poisson(np.exp(0.2 + 0.5 * x)).astype(float)),
        (Family.GAMMA, lambda rng, x: rng.gamma(2.0, np.exp(0.3 + 0.4 * x) / 2.0)),
    ],
)
def test_fitted_gradient_vanishes_by_finite_differences(family, make_y):
    rng = np.random.default_rng(17)
    x = rng.normal(size=800)
    y = make_y(rng, x)
    fit = fit_glm(y, cols(x), family, B1X)
    theta = flatten_params(fit.spec)
    n = y.size
    for j in range(theta.size):
        step = 1e-6 * (1.0 + abs(theta[j]))
        up, dn = theta.copy(), theta.copy()
        up[j] += step
        dn[j] -= step
        fd = (
            loglik_of(unflatten_params(fit.spec, up), y, cols(x))
            - loglik_of(unflatten_params(fit.spec, dn), y, cols(x))
        ) / (2 * step)
        # per-observation scale: the summed gradient is n times larger
        assert abs(fd) / n < 1e-5


def test_rank_deficiency_raises():
    x = np.zeros(50)
    y = np.random.default_rng(0).normal(size=50)
    with pytest.raises(FitError):
        fit_glm(y, cols(x), Family.NORMAL, B1X)


def test_too_few_cases_raises():
    with pytest.raises(FitError):
        fit_glm(np.array([1.0]), cols([0.5]), Family.NORMAL, B1X)


# ---------------------------------------------------------------------------
# normal mixture EM
# ---------------------------------------------------------------------------


def test_mixture_k1_reduces_to_glm():
    rng = np.random.default_rng(3)
    x = rng.normal(size=400)
    y = 1.0 - 0.5 * x + rng.normal(scale=0.8, size=400)
    direct = fit_glm(y, cols(x), Family.NORMAL, B1X)
    via_mixture = fit_normal_mixture(y, cols(x), [B1X], rng=rng)
    assert via_mixture.spec == direct.spec
    assert via_mixture.loglik == direct.loglik


def test_mixture_well_separated_components():
    rng = np.random.default_rng(5)
    n = 2000
    x = rng.normal(size=n)
    pick = rng.random(n) < 0.5
    y = np.where(pick, 10.0 + rng.normal(size=n), -10.0 + rng.normal(size=n))
    b1 = parse_formula("1", KINDS)
    fit = fit_normal_mixture(y, cols(x), [b1, b1], rng=rng)
    # labeled oracle: fit each half separately by its true label
    lab_means = sorted([float(y[pick].mean()), float(y[~pick].mean())])
    got_means = sorted(c.coef[0] for c in fit.spec.components)
    assert np.allclose(got_means, lab_means, atol=0.2)
    assert np.allclose(sorted(fit.spec.weights), sorted([pick.mean(), 1 - pick.mean()]), atol=0.03)
    assert abs(got_means[0] + 10.0) < 0.2 and abs(got_means[1] - 10.0) < 0.2


def s3_truth():
    return OutcomeSpec(
        Family.NORMAL,
        (
            Component(B1X, (1.0, -1.4), 0.5),
            Component(B1XX, (-1.5, -0.5, 1.0), 0.5),
        ),
        weights=(0.35, 0.65),
    )


def _mixture_se_from_observed_information(spec, y, columns):
    theta = flatten_params(spec)
    dim = theta.size

    def ll(v):
        return loglik_of(unflatten_params(spec, v), y, columns)

    hess = np.zeros((dim, dim))
    base_steps = 1e-4 * (1.0 + np.abs(theta))
    for i in range(dim):
        for j in range(i, dim):
            hi, hj = base_steps[i], base_steps[j]
            pp = theta.copy(); pp[i] += hi; pp[j] += hj
            pm = theta.copy(); pm[i] += hi; pm[j] -= hj
            mp = theta.copy(); mp[i] -= hi; mp[j] += hj
            mm = theta.copy(); mm[i] -= hi; mm[j] -= hj
            hess[i, j] = hess[j, i] = (ll(pp) - ll(pm) - ll(mp) + ll(mm)) / (4 * hi * hj)
    return np.sqrt(np.diag(np.linalg.inv(-hess)))


def test_mixture_recovers_two_part_quadratic_model():
    from fimnar.expfam import sample

    rng = np.random.default_rng(19)
    n = 10_000
    x = rng.normal(size=n)
    y = sample(s3_truth(), cols(x), rng)
    fit = fit_normal_mixture(y, cols(x), [B1X, B1XX], rng=rng)
    got = flatten_params(fit.spec)
    truth = flatten_params(s3_truth())
    se = _mixture_se_from_observed_information(fit.spec, y, cols(x))
    assert np.all(np.abs(got - truth) < 3.0 * se)


def test_mixture_loglik_monotone():
    rng = np.random.default_rng(23)
    n = 1500
    x = rng.normal(size=n)
    from fimnar.expfam import sample

    y = sample(s3_truth(), cols(x), rng)
    fit = fit_normal_mixture(y, cols(x), [B1X, B1XX], rng=rng, restarts=3)
    diffs = np.diff(np.asarray(fit.trace))
    assert np.all(diffs >= -1e-9)


def test_mixture_component_relabeling_invariance():
    rng = np.random.default_rng(29)
    n = 3000
    x = rng.normal(size=n)
    from fimnar.expfam import sample

    y = sample(s3_truth(), cols(x), rng)
    f1 = fit_normal_mixture(y, cols(x), [B1X, B1XX], rng=np.random.default_rng(1))
    f2 = fit_normal_mixture(y, cols(x), [B1XX, B1X], rng=np.random.default_rng(2))
    assert f1.loglik == pytest.approx(f2.loglik, abs=1e-5)
    assert f1.aic == pytest.approx(f2.aic, abs=1e-5)


def test_mixture_collapse_raises_when_all_starts_degenerate():
    y = np.full(40, 3.14)
    with pytest.raises(FitError):
        fit_normal_mixture(
            y, cols(np.zeros(40)), [parse_formula("1", KINDS)] * 2, restarts=3
        )


def _sequential_em_run(y, designs, resp, sd_floor, max_iter, tol):
    """The one-start EM that the batched EM replaced, kept as its reference."""
    n, k = resp.shape
    trace = []
    ll_prev = -np.inf
    converged = False
    coefs = [np.zeros(d.shape[1]) for d in designs]
    sigma2s = np.ones(k)
    weights = np.full(k, 1.0 / k)
    for it in range(1, max_iter + 1):
        for j, d in enumerate(designs):
            w = resp[:, j]
            total = w.sum()
            if total < d.shape[1]:
                raise FitError("a mixture component lost nearly all its mass")
            wd = d * w[:, None]
            try:
                coefs[j] = np.linalg.solve(wd.T @ d, wd.T @ y)
            except np.linalg.LinAlgError:
                raise FitError("singular weighted design in the M-step") from None
            r = y - d @ coefs[j]
            sigma2s[j] = float(np.sum(w * r**2) / total)
            if sigma2s[j] < sd_floor**2:
                raise FitError("component variance collapsed")
            weights[j] = total / n
        logp = np.empty((n, k))
        for j, d in enumerate(designs):
            r = y - d @ coefs[j]
            logp[:, j] = math.log(weights[j]) - 0.5 * (
                math.log(2.0 * math.pi * sigma2s[j]) + r**2 / sigma2s[j]
            )
        norm = logsumexp(logp, axis=1)
        ll = float(np.sum(norm))
        trace.append(ll)
        resp = np.exp(logp - norm[:, None])
        if ll - ll_prev <= tol * (1.0 + abs(ll)) and it > 1:
            converged = True
            break
        ll_prev = ll
    return ll, coefs, sigma2s, weights, it, converged, tuple(trace)


def _spiked_data(seed=7, n=40):
    # three tied points: some starts put a component on them and collapse
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=n), rng.normal(size=n)
    x[:3], y[:3] = 0.3, 2.5
    return y, cols(x)


def _s3_data():
    from fimnar.sim import generate, scenario_s3

    scn = scenario_s3(500)
    data = generate(scn, np.random.default_rng(3001))
    return data.y_observed, data.respondent_columns()


@pytest.mark.parametrize(
    "make_data, bases, aborted",
    [(_s3_data, [B1X, B1XX], 0), (_spiked_data, [B1X, B1X], 5)],
    ids=["s3", "collapse"],
)
def test_batched_em_matches_sequential_starts(make_data, bases, aborted):
    y, columns = make_data()
    designs = [b.design(columns) for b in bases]
    sd_floor = SIGMA_FLOOR_FACTOR * float(np.std(y))
    rng = np.random.default_rng(11)
    starts = [
        _initial_responsibilities(y, columns, bases, len(bases), s, rng)
        for s in range(10)
    ]
    ref = []
    for resp in starts:
        try:
            ref.append(_sequential_em_run(y, designs, resp, sd_floor, 500, 1e-10))
        except FitError as err:
            ref.append(err)
    got = _em_batch(y, designs, np.stack([r.T for r in starts], axis=1), sd_floor, 500, 1e-10)
    assert sum(isinstance(r, FitError) for r in ref) == aborted
    for want, have in zip(ref, got):
        if isinstance(want, FitError):
            assert isinstance(have, FitError) and str(have) == str(want)
            continue
        assert have[4:6] == want[4:6]  # iterations, converged
        assert len(have[6]) == len(want[6])
        assert np.allclose(have[6], want[6], rtol=1e-12, atol=0.0)
        for a, b in zip(have[1], want[1]):
            assert np.max(np.abs(a - b)) <= 1e-10
        assert np.max(np.abs(have[2] - want[2])) <= 1e-10
        assert np.max(np.abs(have[3] - want[3])) <= 1e-10

    # fit_normal_mixture selects the first start with the highest loglik
    fits = [r for r in ref if not isinstance(r, FitError)]
    best = max(fits, key=lambda r: r[0])
    fit = fit_normal_mixture(y, columns, bases, rng=np.random.default_rng(11))
    assert fit.iterations == best[4] and len(fit.trace) == len(best[6])
    assert np.allclose(fit.trace, best[6], rtol=1e-12, atol=0.0)
    coef = np.concatenate(best[1] + [best[2], best[3][:-1]])
    assert np.max(np.abs(flatten_params(fit.spec) - coef)) <= 1e-10


# ---------------------------------------------------------------------------
# AIC selection
# ---------------------------------------------------------------------------


def test_select_single_candidate():
    rng = np.random.default_rng(31)
    x = rng.normal(size=300)
    y = 0.5 * x + rng.normal(size=300)
    cand = Candidate(Family.NORMAL, (B1X,))
    chosen, fit = select_aic(y, cols(x), [cand])
    assert chosen is cand and fit.converged


def test_select_prefers_quadratic_under_strong_signal():
    rng = np.random.default_rng(37)
    n = 2000
    x = rng.normal(size=n)
    y = 0.4 * x + 1.0 * x**2 + rng.normal(scale=math.sqrt(0.5), size=n)
    linear = Candidate(Family.NORMAL, (B1X,))
    quadratic = Candidate(Family.NORMAL, (B1XX,))
    chosen, fit = select_aic(y, cols(x), [linear, quadratic])
    assert chosen is quadratic
    # explicit AIC comparison backs the choice
    lfit = fit_glm(y, cols(x), Family.NORMAL, B1X)
    assert fit.aic < lfit.aic


def test_select_skips_failing_candidates():
    rng = np.random.default_rng(41)
    x = rng.normal(size=200)
    w = np.zeros(200)  # constant binary column: rank-deficient with intercept
    y = 0.5 * x + rng.normal(size=200)
    broken = Candidate(Family.NORMAL, (parse_formula("1 + x + w", KINDS),))
    fine = Candidate(Family.NORMAL, (B1X,))
    chosen, _ = select_aic(y, cols(x, w=w), [broken, fine])
    assert chosen is fine
    with pytest.raises(FitError):
        select_aic(y, cols(x, w=w), [broken])


def test_select_tie_breaks_toward_fewer_parameters():
    rng = np.random.default_rng(43)
    x = rng.normal(size=500)
    y = rng.normal(size=500)  # pure noise: both models fit equally badly
    small = Candidate(Family.NORMAL, (parse_formula("1", KINDS),))
    big = Candidate(Family.NORMAL, (B1XX,))
    chosen, _ = select_aic(y, cols(x), [big, small])
    assert chosen is small  # extra parameters cost AIC without gain


def test_search_basis_exhaustive():
    rng = np.random.default_rng(47)
    n = 3000
    x = rng.normal(size=n)
    y = (rng.random(n) < 1 / (1 + np.exp(-(0.3 - 1.2 * x)))).astype(float)
    pool = parse_formula("1 + x + x^2 + x^3", KINDS)
    chosen, fit = search_basis_by_aic(y, cols(x), Family.BERNOULLI, pool)
    assert {t.render() for t in chosen.terms} >= {"1", "x"}
    assert "x^3" not in {t.render() for t in chosen.terms}


def test_search_basis_greedy_matches_exhaustive_on_small_pool():
    rng = np.random.default_rng(53)
    n = 2500
    x = rng.normal(size=n)
    y = 0.5 + 0.9 * x + rng.normal(scale=0.6, size=n)
    pool = parse_formula("1 + x + x^2", KINDS)
    ex_basis, ex_fit = search_basis_by_aic(y, cols(x), Family.NORMAL, pool)
    greedy_basis, greedy_fit = search_basis_by_aic(
        y, cols(x), Family.NORMAL, pool, exhaustive_limit=1
    )
    assert greedy_basis == ex_basis
    assert greedy_fit.aic == pytest.approx(ex_fit.aic, abs=1e-9)

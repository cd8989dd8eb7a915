import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from fimnar.basis import continuous, parse_formula
from fimnar.response import ResponseSpec, propensity_from_log_odds

KINDS = {"x": continuous()}
H1X = parse_formula("1 + x", KINDS)


def spec(alpha=(0.68, 0.19), beta=0.24):
    return ResponseSpec(H1X, alpha, beta)


def cols(*xs):
    return {"x": np.asarray(xs, dtype=float)}


def test_propensity_at_s1_truth():
    # expit(0.68) computed independently at high precision
    got = spec().propensity(cols(0.0), [0.0])
    assert got[0] == pytest.approx(0.66373869740435267, abs=1e-15)


def test_propensity_symmetric_when_flat():
    s = ResponseSpec(H1X, (0.0, 0.0), 0.0)
    got = s.propensity(cols(-3.0, 0.0, 5.0), [7.0, -2.0, 0.0])
    assert np.allclose(got, 0.5, atol=1e-15)


def test_propensity_saturates_without_nan():
    # linear predictor is clamped at +-35, so the limit saturates at
    # numerical 1 without producing NaN or overflow
    s = ResponseSpec(H1X, (1e8, 0.0), 0.0)
    got = s.propensity(cols(0.0), [0.0])
    assert got[0] == pytest.approx(1.0, abs=1e-14)
    assert np.isfinite(got).all()


@given(st.lists(st.floats(-800, 800), min_size=1, max_size=50))
@settings(max_examples=300)
def test_propensity_from_log_odds_is_expit_without_warnings(log_odds):
    # exp overflows past 709.8, where the propensity must be exactly 0
    t = np.asarray(log_odds)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = propensity_from_log_odds(t)
        buf = np.full_like(t, np.nan)
        into = propensity_from_log_odds(t, out=buf)
    assert np.all((got >= 0.0) & (got <= 1.0))
    assert np.max(np.abs(got - expit(-t))) <= 2.3e-16
    assert into is buf
    np.testing.assert_array_equal(buf, got)


def test_odds_even():
    s = ResponseSpec(H1X, (0.0, 0.0), 0.0)
    assert s.odds(cols(0.0), [0.0])[0] == pytest.approx(1.0, abs=1e-15)


def test_odds_log_three():
    s = ResponseSpec(H1X, (math.log(3.0), 0.0), 0.0)
    assert s.odds(cols(0.0), [0.0])[0] == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_odds_at_s1_truth():
    # exp(-(0.68 + 0.19 + 0.24)) = exp(-1.11), frozen from high precision
    got = spec().odds(cols(1.0), [1.0])
    assert got[0] == pytest.approx(0.32955896107518907, rel=1e-13)


@given(
    st.floats(-8, 8),
    st.floats(-8, 8),
    st.floats(-4, 4),
    st.floats(-6, 6),
    st.floats(-6, 6),
)
@settings(max_examples=300)
def test_propensity_odds_identity(a0, a1, beta, x, y):
    s = ResponseSpec(H1X, (a0, a1), beta)
    p = s.propensity(cols(x), [y])[0]
    o = s.odds(cols(x), [y])[0]
    assert p * (1.0 + o) == pytest.approx(1.0, rel=1e-12)


def test_score_zero_when_saturated():
    s = ResponseSpec(H1X, (1e8, 0.0), 0.0)
    got = s.score_vector(cols(2.0), [3.0], [1])
    assert np.allclose(got, 0.0)


def test_score_arithmetic_case():
    s = ResponseSpec(H1X, (0.0, 0.0), 0.0)  # propensity 0.5 everywhere
    got = s.score_vector(cols(2.0), [3.0], [0])
    assert np.allclose(got, [-0.5 * 1.0, -0.5 * 2.0, -0.5 * 3.0])


def _bernoulli_loglik(phi, x, y, delta):
    h = phi[0] + phi[1] * x
    lp = h + phi[2] * y
    p = 1.0 / (1.0 + math.exp(-lp))
    return delta * math.log(p) + (1 - delta) * math.log(1.0 - p)


@pytest.mark.parametrize("delta", [0, 1])
@pytest.mark.parametrize("phi", [(0.68, 0.19, 0.24), (-0.4, 1.1, -0.6)])
def test_score_matches_finite_difference_gradient(phi, delta):
    x, y = 0.7, -1.3
    s = ResponseSpec(H1X, phi[:2], phi[2])
    got = s.score_vector(cols(x), [y], [delta])[0]
    step = 1e-5
    for j in range(3):
        up = np.asarray(phi, dtype=float)
        dn = up.copy()
        up[j] += step
        dn[j] -= step
        fd = (
            _bernoulli_loglik(up, x, y, delta) - _bernoulli_loglik(dn, x, y, delta)
        ) / (2 * step)
        assert got[j] == pytest.approx(fd, abs=1e-6)


def test_mean_score_near_zero_at_truth():
    # complete-sample Monte Carlo check: average score at the true
    # parameters is within 4 standard errors of zero, coordinate-wise
    rng = np.random.default_rng(42)
    n = 100_000
    x = rng.normal(size=n)
    y = 0.4 * x + x**2 + rng.normal(scale=math.sqrt(0.5), size=n)
    s = spec()
    p = s.propensity(cols(*x), y)
    delta = (rng.random(n) < p).astype(float)
    scores = s.score_vector(cols(*x), y, delta)
    avg = scores.mean(axis=0)
    se = scores.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(avg) < 4.0 * se)


def test_phi_round_trip():
    s = spec()
    assert s.with_phi(s.phi) == s
    moved = s.with_phi(np.array([1.0, 2.0, 3.0]))
    assert moved.alpha == (1.0, 2.0) and moved.beta == 3.0


def test_alpha_length_validated():
    with pytest.raises(ValueError):
        ResponseSpec(H1X, (0.1,), 0.0)


def test_response_spec_serialization_round_trip():
    from fimnar.response import response_from_dict

    s = spec()
    payload = s.to_dict()
    again = response_from_dict(payload, KINDS)
    assert again == s
    bare = response_from_dict({"h": "1 + x"}, KINDS)
    assert bare.alpha == (0.0, 0.0) and bare.beta == 0.0

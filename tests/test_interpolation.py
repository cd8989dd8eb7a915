"""``log C`` and ``d log C/d gamma`` interpolated in y against the exact respondent walks.

On at least ``4 * CHEB_POINTS`` donor values both are taken from
Chebyshev points in y; the exact walks they replace are kept in
``tests/oracles.py``.  The bounds were fixed before measuring: ``log C``
within 1e-10 absolute, the gradient within 1e-8 relative.
"""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fimnar.fiem as fiem
from fimnar.expfam import Component, Family, OutcomeSpec, _logsumexp0
from fimnar.fiem import CHEB_POINTS, CHEB_TAIL, LOG_C_TOL, _chebyshev, _log_c_at, fractional_weights
from fimnar.response import ResponseSpec
from fimnar.sim import Scenario, _fit_respondent, built_in_scenario, generate
from fimnar.variance import _grad_log_c, _missing_pieces, _mu_y_grad_gamma

from oracles import exact_log_c, exact_via_c, grad_log_c_walk, online_log_c
from test_donor_kernel import election_case, glm_scenario_case

B1X = built_in_scenario("s2").response.h_basis  # 1 + x


def glm_case(family, coef, dispersion, beta, seed):
    """A Poisson or gamma outcome on 1 + x at n=6000, with its true outcome model."""
    respondent = OutcomeSpec(family, (Component(B1X, coef, dispersion),))
    scn = Scenario(
        name=family.value, n=6000, respondent=respondent,
        response=ResponseSpec(B1X, (0.6, 0.3), beta),
    )
    return generate(scn, np.random.default_rng(seed)), respondent, scn.response


def scenario_case(name, n, seed):
    scn = built_in_scenario(name, n=n)
    rng = np.random.default_rng(seed)
    data = generate(scn, rng)
    return data, _fit_respondent(scn, data, rng, 4).spec, scn.response


CASES = {
    "s1-91": lambda: scenario_case("s1", 6000, 91),
    "s1-92": lambda: scenario_case("s1", 6000, 92),
    # counts near 2e4: their log-sum-exp is about 2e5, mostly its chord
    "poisson": lambda: glm_case(Family.POISSON, (9.9, 0.05), None, 3e-5, 1),
    "gamma": lambda: glm_case(Family.GAMMA, (0.5, 0.4), 3.0, 0.3, 2),
    "s3": lambda: scenario_case("s3", 4000, 93),
}


@pytest.fixture
def fitted_calls(monkeypatch):
    """Whether each ``_chebyshev`` call returned an interpolant."""
    calls, real = [], fiem._chebyshev

    def spy(exact, y, atol, rtol):
        out = real(exact, y, atol, rtol)
        calls.append(out is not None)
        return out

    monkeypatch.setattr(fiem, "_chebyshev", spy)
    return calls


@pytest.mark.parametrize("case", list(CASES))
def test_interpolated_walks_match_the_exact_ones(fitted_calls, case):
    data, gamma, phi = CASES[case]()
    weights = fractional_weights(phi, gamma, data)
    assert weights.values.size >= 4 * CHEB_POINTS
    assert fitted_calls == [True]  # log C was interpolated
    log_c = _log_c_at(gamma, weights.values, data)
    assert np.max(np.abs(log_c - exact_log_c(gamma, weights.values, data))) <= 1e-10
    *_, c, v_score = _missing_pieces(phi, gamma, weights, data)
    parts = SimpleNamespace(c_values=c, v_score=v_score)
    got = _mu_y_grad_gamma(gamma, weights, data, parts)
    assert fitted_calls == [True, True, True]  # and so was d log C/d gamma
    ref = (v_score - exact_via_c(gamma, weights.values, c, log_c, data)) / data.n
    assert np.max(np.abs(got - ref)) <= 1e-8 * np.max(np.abs(ref))


@pytest.mark.parametrize("case", ["s1", "s3", "election", "poisson", "gamma"])
def test_grids_below_the_gate_keep_the_exact_log_c_bitwise(fitted_calls, case):
    if case == "election":
        data, gf, _ = election_case()
        gamma = gf.spec
    elif case in ("poisson", "gamma"):
        data, gf, _ = glm_scenario_case(Family(case), 74, n=2000)
        gamma = gf.spec
    else:
        data, gamma, _ = scenario_case(case, 2000, 94)
    values = np.unique(data.y_observed)
    assert values.size < 4 * CHEB_POINTS
    factors, log_c = fiem._respondent_factors(gamma, values, data.respondent_columns())
    exact = fiem._respondent_lse(gamma, factors, values) + log_c[0]
    np.testing.assert_array_equal(_log_c_at(gamma, values, data), exact)
    assert fitted_calls == []
    # the online walk over row blocks that the exact walk replaced
    assert np.max(np.abs(exact - online_log_c(gamma, values, data))) <= 1e-13


@pytest.mark.parametrize(
    "name, n", [("s1", 2000), ("s2", 2000), ("s3", 2000), ("s1", 6000), ("s3", 6000)]
)
def test_grad_log_c_shares_the_walk_bitwise(name, n):
    # d log C/d gamma reads log C's points x respondent-rows walk; it
    # walked its own layout of the same rows before
    data, gamma, _ = scenario_case(name, n, 95)
    values = np.unique(data.y_observed)
    got = _grad_log_c(gamma, values, data)(values)
    np.testing.assert_array_equal(got, grad_log_c_walk(gamma, values, data)(values))


def test_a_point_whose_rows_are_all_minus_inf_has_log_c_minus_inf():
    gamma = OutcomeSpec(Family.NORMAL, (Component(B1X, (0.0, 1.0), 1.0),))
    t = np.array([-1.0, 0.5, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # rows (slope, offset): every row's offset is -inf, then one row's
        got = fiem._respondent_lse(gamma, np.array([[1.0, -2.0], [-np.inf, -np.inf]]), t)
        assert np.all(got == -np.inf)
        got = fiem._respondent_lse(gamma, np.array([[1.0, -2.0], [-np.inf, 0.5]]), t)
    np.testing.assert_allclose(got, 0.5 - 2.0 * t, rtol=1e-15)


@given(
    seed=st.integers(0, 2**32 - 1),
    n1=st.integers(1, 40),
    slope_range=st.floats(0.0, 20.0),
    offset_range=st.floats(0.0, 50.0),
    n_values=st.integers(2 * CHEB_TAIL + 2, 300),
    width=st.floats(1e-3, 10.0),
)
@settings(max_examples=150, deadline=None)
def test_interpolated_log_sum_exp_is_exact_or_refused(
    seed, n1, slope_range, offset_range, n_values, width
):
    # whatever the slopes, offsets and values, an interpolant that is
    # returned meets the bound; where 513 points cannot, none is returned
    rng = np.random.default_rng(seed)
    slope = rng.uniform(-slope_range, slope_range, n1)
    offset = rng.uniform(-offset_range, offset_range, n1)
    y = np.unique(rng.uniform(-width, width, n_values))

    def lse(t):
        return _logsumexp0(slope[:, None] * t + offset[:, None])

    got = _chebyshev(lse, y, LOG_C_TOL, 0.0)
    if got is not None:
        assert np.max(np.abs(got - lse(y))) <= 1e-10
    else:
        # refused only where the spread of the terms' slopes over the
        # values is wide: a narrow one is all but linear
        assert slope_range * width > 1.0

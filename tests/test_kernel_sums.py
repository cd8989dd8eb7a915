"""Both variances from the kernel sums the solve reduced at its root, against a walk of their own.

``em_fit`` keeps the ``_KernelSums`` of its last evaluation, at the root,
with the weights, and ``variance._missing_pieces`` reads them; the walk
of the missing units it ran before is kept in ``tests/oracles.py`` as
``walked_missing_pieces``.  The bounds were fixed before measuring: the
covariance, Var(mu) and every piece within 1e-12 relative on the fitted
cases, and within 1e-11 relative of each piece's largest magnitude over
the property's families and beta.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fimnar.fiem as fiem
import fimnar.variance as variance
from fimnar.expfam import Component, Family, OutcomeSpec
from fimnar.fiem import FiControls, FitResult, em_fit, fractional_weights
from fimnar.response import ResponseSpec
from fimnar.sim import Scenario, _fit_respondent, built_in_scenario, generate
from fimnar.variance import _missing_pieces, mu_y_variance, variance_estimate

from oracles import walked_missing_pieces
from test_donor_kernel import election_case, glm_scenario_case, rel_err, scenario_case
from test_fiem import stalled_replicate

B1X = built_in_scenario("s2").response.h_basis  # 1 + x

CASES = {
    "normal": lambda: scenario_case("s1", 81),
    "normal-coarse": lambda: scenario_case("s1", 82, n=6000),
    "bernoulli": election_case,
    "poisson": lambda: glm_scenario_case(Family.POISSON, 83),
    "gamma": lambda: glm_scenario_case(Family.GAMMA, 84),
    "mixture": lambda: scenario_case("s3", 85),
    "em-fallback": stalled_replicate,
}


def counted_walks(monkeypatch) -> list:
    """Record the number of values of every walk of the missing-unit grid."""
    walks, weight_blocks = [], fiem._weight_blocks

    def counted(w, *args, **kwargs):
        walks.append(w.donor_y.shape[-1])
        return weight_blocks(w, *args, **kwargs)

    monkeypatch.setattr(fiem, "_weight_blocks", counted)
    return walks


def both_variances(fit, gf, data):
    sigma, parts = variance_estimate(fit, gf, data)
    return sigma, parts, mu_y_variance(fit, gf, data, parts)


@pytest.mark.parametrize("case", list(CASES))
def test_variances_from_the_root_sums_match_a_separate_walk(monkeypatch, case):
    data, gf, h_basis = CASES[case]()
    controls = FiControls(max_em_iter=2000) if case == "em-fallback" else FiControls()
    fit = em_fit(data, gf, h_basis, controls=controls)
    if case == "em-fallback":
        assert fit.em_iterations > fiem.MAX_NEWTON_STEPS
    with monkeypatch.context() as patch:
        walks = counted_walks(patch)
        sigma, parts, mu_var = both_variances(fit, gf, data)
    # every fit, a mixture's too, reads the root sums and walks no grid
    assert walks == []
    monkeypatch.setattr(variance, "_missing_pieces", walked_missing_pieces)
    ref_sigma, ref_parts, ref_mu_var = both_variances(fit, gf, data)
    assert rel_err(sigma, ref_sigma) <= 1e-12
    assert rel_err(mu_var, ref_mu_var) <= 1e-12
    for name in ("bread", "e_cross", "s0bar", "c_values", "v_score"):
        assert rel_err(getattr(parts, name), getattr(ref_parts, name)) <= 1e-12, name


def test_weights_with_sums_at_other_parameters_walk_at_the_fit(monkeypatch):
    # the weights depend on beta alone, so weights built at another alpha
    # are the fit's weights, but their propensities, and with them the
    # sums, are not the fit's: the variance walks at the fit's phi
    data, gf, h_basis = scenario_case("s1", 86)
    fit = em_fit(data, gf, h_basis)
    elsewhere = fit.phi_hat.with_phi(fit.phi + np.array([0.2, -0.1, 0.0]))
    moved = FitResult(fit.phi_hat, fractional_weights(elsewhere, gf.spec, data), 0.0)
    assert np.array_equal(moved.weights.sums.phi, elsewhere.phi)
    with monkeypatch.context() as patch:
        walks = counted_walks(patch)
        sigma, _, mu_var = both_variances(moved, gf, data)
    assert walks == [fit.weights.values.size]
    ref_sigma, _, ref_mu_var = both_variances(fit, gf, data)
    assert rel_err(sigma, ref_sigma) <= 1e-12
    assert rel_err(mu_var, ref_mu_var) <= 1e-12


def family_case(family):
    """A one-component outcome of ``family`` on 1 + x at n=300, fitted, or s3's mixture."""
    if family == "mixture":
        scn = built_in_scenario("s3", n=300)
        rng = np.random.default_rng(87)
        data = generate(scn, rng)
        return data, _fit_respondent(scn, data, rng, 4).spec
    dispersion = {Family.NORMAL: 1.0, Family.GAMMA: 3.0}.get(family)
    scn = Scenario(
        name=family.value,
        n=300,
        respondent=OutcomeSpec(family, (Component(B1X, (0.5, 0.4), dispersion),)),
        response=ResponseSpec(B1X, (0.6, 0.3), 0.3),
    )
    data = generate(scn, np.random.default_rng(88))
    return data, _fit_respondent(scn, data, None, 1).spec


FAMILY_CASES = {
    family: family_case(family)
    for family in (Family.NORMAL, Family.BERNOULLI, Family.POISSON, Family.GAMMA, "mixture")
}


@given(
    family=st.sampled_from(list(FAMILY_CASES)),
    alpha=st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
    beta=st.floats(-2, 2),
)
@settings(max_examples=60, deadline=None)
def test_missing_pieces_from_the_sums_match_a_separate_walk(family, alpha, beta):
    data, gamma = FAMILY_CASES[family]
    phi = ResponseSpec(B1X, alpha, beta)
    weights = fractional_weights(phi, gamma, data)
    got = _missing_pieces(phi, gamma, weights, data)
    ref = walked_missing_pieces(phi, gamma, weights, data)
    b_miss, s0bar, z0bar, sums, c, v_score = got
    r_b, r_s0bar, r_z0bar, r_sums, r_c, r_v = ref
    assert np.array_equal(b_miss, r_b)
    for a, b in [(s0bar, r_s0bar), (z0bar, r_z0bar), (c, r_c), (v_score, r_v), *zip(sums, r_sums)]:
        assert rel_err(a, b) <= 1e-11

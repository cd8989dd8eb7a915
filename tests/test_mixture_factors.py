"""A normal mixture's kernel as K rank-one factor grids, against the per-cell path it replaced.

The package builds a mixture's weights from one rank-one grid per
component, its ``log C`` from the K*n1 factored respondent rows, and its
variances' score sums from the per-component sums that the solve reduced
at its root.  The path it replaced (a stored (n_missing, values) base from
``log_density_outer``, the per-cell responsibility pass and a walk of the
missing units for the score sums) is kept in ``tests/oracles.py``.  The
bounds were fixed before measuring, in the terms of the repository's other
differential tests: ``log C`` and the estimates within 1e-12 relative, the
kernel sums within 1e-12 relative of each column's largest magnitude, the
covariance and its parts within 1e-10 and Var(mu) within 1e-8 relative
(both pass through the bread's inverse), the respondents' scores within
1e-12 relative; over the property's mixtures every piece within 1e-11
relative of its largest magnitude.  The interpolated ``log C`` and its
gradient are compared with the same oracles in ``test_interpolation.py``.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fimnar.fiem as fiem
import fimnar.variance as variance
from fimnar.expfam import Component, Family, OutcomeSpec, log_density_outer
from fimnar.fiem import FiControls, _centred_powers, em_fit, fractional_weights
from fimnar.response import ResponseSpec
from fimnar.sim import Scenario, built_in_scenario, generate
from fimnar.variance import _missing_pieces, respondent_score_gamma

from oracles import (
    StoredGrid,
    _responsibilities,
    exact_log_c,
    exact_via_c,
    mixture_respondent_scores,
    walked_missing_pieces,
)
from test_donor_kernel import rel_err, scenario_case
from test_kernel_sums import both_variances, counted_walks

B1X = built_in_scenario("s2").response.h_basis  # 1 + x
B1XX = built_in_scenario("s1").respondent.components[0].basis  # 1 + x + x^2


def stored_mixture_kernel(gamma, data):
    """``fiem._donor_kernel`` as it was for a mixture: the stored base ``log f -
    log C + log m`` over the unique values, from ``log_density_outer``."""
    values, inverse, counts = np.unique(data.y_observed, return_inverse=True, return_counts=True)
    log_c = exact_log_c(gamma, values, data)
    base = log_density_outer(gamma, values, data.missing_columns()) + (np.log(counts) - log_c)
    return StoredGrid(base, 0.0, values), inverse, log_c


def reference_grad(gamma, weights, data, parts):
    """``variance._mu_y_grad_gamma`` by the per-cell walk of the respondents."""
    log_c = exact_log_c(gamma, weights.values, data)
    via_c = exact_via_c(gamma, weights.values, parts.c_values, log_c, data)
    return (parts.v_score - via_c) / data.n


def reference_parts(weights, gamma, phi, data):
    """Per component k, the sums of ``w r_k`` and ``w r_k pi`` against the
    centred powers, from full arrays and the per-cell responsibilities."""
    values, miss_cols = weights.values, data.missing_columns()
    w = StoredGrid(stored_mixture_kernel(gamma, data)[0].base, phi.beta, values)[:]
    lin = phi.h_basis.design(miss_cols) @ np.asarray(phi.alpha)
    pi = 1.0 / (1.0 + np.exp(-lin[:, None] - phi.beta * values))
    resp = _responsibilities(gamma, values[None, :], miss_cols)[1][3]
    powers = _centred_powers(values)[1]
    return np.stack([[(w * r) @ powers for r in resp], [(w * r * pi) @ powers for r in resp]])


@pytest.mark.parametrize("n, seed", [(500, 3001), (2000, 3002)])
def test_exact_log_c_matches_the_per_cell_walk(n, seed):
    data, gf, _ = scenario_case("s3", seed, n=n)
    values = np.unique(data.y_observed)
    assert values.size < 4 * fiem.CHEB_POINTS  # the exact walk
    got = fiem._log_c_at(gf.spec, values, data)
    assert rel_err(got, exact_log_c(gf.spec, values, data)) <= 1e-12


@pytest.mark.parametrize("seed", [3003, 3004])
def test_mixture_fit_and_variances_match_the_stored_grid_path(monkeypatch, seed):
    data, gf, h_basis = scenario_case("s3", seed)
    gamma = gf.spec
    fit = em_fit(data, gf, h_basis)
    sigma, parts, mu_var = both_variances(fit, gf, data)
    with monkeypatch.context() as patch:
        patch.setattr(fiem, "_donor_kernel", stored_mixture_kernel)
        ref_fit = em_fit(data, gf, h_basis)
        patch.setattr(variance, "_missing_pieces", walked_missing_pieces)
        patch.setattr(variance, "respondent_score_gamma", mixture_respondent_scores)
        patch.setattr(variance, "_mu_y_grad_gamma", reference_grad)
        ref_sigma, ref_parts, ref_mu_var = both_variances(ref_fit, gf, data)
    assert fit.em_iterations == ref_fit.em_iterations
    assert rel_err(fit.phi, ref_fit.phi) <= 1e-12
    assert rel_err(fit.weights.log_c, ref_fit.weights.log_c) <= 1e-12
    assert rel_err(fit.weights.w, ref_fit.weights.w) <= 1e-12
    # the kernel sums the solve kept at its root, per component too
    got, ref = fit.weights.sums, fiem._kept_sums(fit.phi_hat, ref_fit.weights.kernel, gamma, data)
    ref_components = reference_parts(fit.weights, gamma, fit.phi_hat, data)
    shape = (-1,) + ref.w.shape
    for a, b in [(got.w, ref.w), (got.wp, ref.wp), (got.c[:, None], ref.c[:, None]),
                 *zip(got.parts.reshape(shape), ref_components.reshape(shape))]:
        assert np.all(np.max(np.abs(a - b), axis=0) <= 1e-12 * np.max(np.abs(b), axis=0))
    assert rel_err(sigma, ref_sigma) <= 1e-10
    for name in ("bread", "e_cross", "s0bar", "c_values", "v_score", "i11"):
        assert rel_err(getattr(parts, name), getattr(ref_parts, name)) <= 1e-10, name
    assert rel_err(mu_var, ref_mu_var) <= 1e-8
    resp_cols = data.respondent_columns()
    assert rel_err(
        respondent_score_gamma(gamma, data.y_observed, resp_cols),
        mixture_respondent_scores(gamma, data.y_observed, resp_cols),
    ) <= 1e-12


def test_mixture_handed_to_em_keeps_its_weights_and_root_sums(monkeypatch):
    # the first full-grid solve is reported unconverged, so EM builds each
    # iteration's weights from the factored kernel as one array
    data, gf, h_basis = scenario_case("s3", 3005)
    fit = em_fit(data, gf, h_basis)
    newton, calls = fiem._newton, []

    def first_stalls(x, system, *args):
        x, path, converged = newton(x, system, *args)
        calls.append(len(path))
        return x, path, converged and len(calls) > 1

    with monkeypatch.context() as patch:
        patch.setattr(fiem, "_newton", first_stalls)
        handed = em_fit(data, gf, h_basis, controls=FiControls())
    em_steps = handed.em_iterations - (calls[0] - 1) - (calls[-1] - 1)
    assert em_steps >= 1
    assert np.max(np.abs(handed.phi - fit.phi)) <= 1e-6
    w = handed.weights.w
    assert w.shape == (data.n_missing, data.n_respondents)
    assert np.allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    with monkeypatch.context() as patch:
        walks = counted_walks(patch)
        sigma, _, mu_var = both_variances(handed, gf, data)
    assert walks == []
    monkeypatch.setattr(variance, "_missing_pieces", walked_missing_pieces)
    ref_sigma, _, ref_mu_var = both_variances(handed, gf, data)
    assert rel_err(sigma, ref_sigma) <= 1e-12
    assert rel_err(mu_var, ref_mu_var) <= 1e-12


@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.sampled_from([2, 3]),
    smallest=st.floats(1e-3, 0.3),
    ratios=st.lists(st.floats(1.0, 100.0), min_size=3, max_size=3),
    separation=st.floats(0.0, 6.0),
    alpha=st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
    beta=st.floats(-1, 1),
)
@settings(max_examples=60, deadline=None)
def test_factored_mixture_matches_the_per_cell_path(
    seed, k, smallest, ratios, separation, alpha, beta
):
    weights = np.array([smallest] + [1.0] * (k - 1))
    weights[1:] *= (1.0 - smallest) / (k - 1)
    # component j: mean separation*j + (0.5 - 0.3 j) x (+ 0.4 x^2 for odd j)
    comps = tuple(
        Component(B1XX, (separation * j, 0.5 - 0.3 * j, 0.4), 0.05 * ratios[j]) if j % 2
        else Component(B1X, (separation * j, 0.5 - 0.3 * j), 0.05 * ratios[j])
        for j in range(k)
    )
    gamma = OutcomeSpec(Family.NORMAL, comps, tuple(weights))
    response = ResponseSpec(B1X, (0.6, 0.3), 0.2)
    scn = Scenario(name="mixture", n=150, respondent=gamma, response=response)
    data = generate(scn, np.random.default_rng(seed))
    phi = ResponseSpec(B1X, alpha, beta)
    values = np.unique(data.y_observed)
    got_w = fractional_weights(phi, gamma, data)
    assert rel_err(got_w.log_c, exact_log_c(gamma, values, data)) <= 1e-11
    stored = replace(stored_mixture_kernel(gamma, data)[0], beta=phi.beta)
    assert rel_err(got_w.kernel[:], stored[:]) <= 1e-11
    got = _missing_pieces(phi, gamma, got_w, data)
    ref = walked_missing_pieces(phi, gamma, got_w, data)
    for a, b in [*zip(got[1:3], ref[1:3]), *zip(got[3], ref[3]), *zip(got[4:], ref[4:])]:
        assert rel_err(a, b) <= 1e-11
    resp_cols = data.respondent_columns()
    assert rel_err(
        respondent_score_gamma(gamma, data.y_observed, resp_cols),
        mixture_respondent_scores(gamma, data.y_observed, resp_cols),
    ) <= 1e-11

"""The row-blocked donor kernel against the full-array code it replaced.

The reference functions below are copies of the previous implementations,
which built every missing-unit x donor and respondent x donor array in
full; the blocked code must reproduce them, whatever the block size, and
must keep its allocations to about one stored grid.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import fimnar.fiem as fiem
from fimnar.config import load_config
from fimnar.dataio import ingest
from fimnar.expfam import Family, _logsumexp0, log_density_outer
from fimnar.fiem import (
    _donor_log_base,
    _donor_log_c,
    _LogWeights,
    _logsumexp_blocks,
    _parametric_pool,
    _row_dot,
    _score_and_jacobian,
    _score_arrays,
    em_fit,
    estimate_mu_y,
)
from fimnar.respondent import fit_glm
from fimnar.response import LP_CLAMP
from fimnar.sim import _fit_respondent, built_in_scenario, generate
from fimnar.variance import (
    _assemble,
    _mu_y_grad_gamma,
    _score_sums,
    mu_y_variance,
    respondent_score_gamma,
    variance_estimate,
)

# ---------------------------------------------------------------------------
# reference copies of the full-array code
# ---------------------------------------------------------------------------


def reference_log_c(gamma, data):
    resp_cols = data.respondent_columns()
    return _logsumexp0(log_density_outer(gamma, data.y_observed, resp_cols))


def reference_weights(beta, donor_y, base):
    logw = -beta * donor_y if base is None else base - beta * donor_y
    logw = logw - logw.max(axis=1, keepdims=True)
    w = np.exp(logw)
    return w / w.sum(axis=1, keepdims=True)


def reference_score_and_jacobian(phi, arrays, w, donor_y, weights_move):
    z = arrays.z_resp
    p_resp = expit(np.clip(z @ phi.phi, -LP_CLAMP, LP_CLAMP))
    score = z.T @ (1.0 - p_resp)
    jac = -(z.T @ (z * (p_resp * (1.0 - p_resp))[:, None]))
    L, b = arrays.h_index, arrays.b_miss
    pi = expit((b @ np.asarray(phi.alpha))[:, None] + phi.beta * donor_y)
    wp = w * pi
    q = wp * (1.0 - pi)
    row, wpy, qy = wp.sum(axis=1), _row_dot(wp, donor_y), _row_dot(q, donor_y)
    y2 = donor_y**2
    score[:L] -= b.T @ row
    score[L] -= float(np.sum(wpy))
    jac[:L, :L] -= b.T @ (b * q.sum(axis=1)[:, None])
    cross = b.T @ qy
    jac[:L, L] -= cross
    jac[L, :L] -= cross
    jac[L, L] -= float(np.sum(_row_dot(q, y2)))
    if weights_move:
        ybar = _row_dot(w, donor_y)
        jac[:L, L] += b.T @ (wpy - ybar * row)
        jac[L, L] += float(np.sum(_row_dot(wp, y2) - ybar * wpy))
    return score, jac


def reference_missing_pieces(phi, gamma, weights, data, n):
    """s0bar, z0bar and e_cross from the full w * pi array."""
    b_miss = phi.h_basis.design(data.missing_columns())
    y_d = weights.donor_y
    wp = weights.w * expit((b_miss @ np.asarray(phi.alpha))[:, None] + phi.beta * y_d)
    s0bar = -np.column_stack([wp.sum(axis=1)[:, None] * b_miss, wp @ y_d])
    z0bar = np.column_stack([b_miss, weights.w @ y_d])
    r_w, r_wp, r_wpy = _score_sums(
        gamma, y_d, data.missing_columns(), (weights.w, wp, wp * y_d)
    )
    e_cross = -(np.vstack([b_miss.T @ r_wp, r_wpy.sum(axis=0)]) + s0bar.T @ r_w) / n
    return s0bar, z0bar, e_cross


def reference_mu_y_grad_gamma(gamma, weights, data):
    y_d = weights.donor_y
    v = (y_d[None, :] - (weights.w @ y_d)[:, None]) * weights.w
    c = v.sum(axis=0)
    (local,) = _score_sums(gamma, y_d, data.missing_columns(), (v,))
    resp_cols = data.respondent_columns()
    p = log_density_outer(gamma, y_d, resp_cols)
    p = np.exp(p - p.max(axis=0))
    p *= c / p.sum(axis=0)
    (via_c,) = _score_sums(gamma, y_d, resp_cols, (p,))
    return (local.sum(axis=0) - via_c.sum(axis=0)) / data.n


def reference_variances(fit, gf, data):
    """(sigma, Var(mu), e_cross, d mu/d gamma) assembled from the references."""
    phi, gamma, n, weights = fit.phi_hat, gf.spec, data.n, fit.weights
    resp_cols = data.respondent_columns()
    z_resp = phi.design(resp_cols, data.y_observed)
    p_resp = expit(np.clip(z_resp @ phi.phi, -LP_CLAMP, LP_CLAMP))
    s_resp = z_resp * (1.0 - p_resp)[:, None]
    s1_resp = respondent_score_gamma(gamma, data.y_observed, resp_cols)
    i11 = s1_resp.T @ s1_resp / n
    s0bar, z0bar, e_cross = reference_missing_pieces(phi, gamma, weights, data, n)
    bread = s0bar.T @ z0bar / n
    j_resp = s_resp + s1_resp @ np.linalg.solve(i11, e_cross.T)
    sigma = _assemble(bread, (j_resp.T @ j_resp + s0bar.T @ s0bar) / n, n)

    grad_gamma = reference_mu_y_grad_gamma(gamma, weights, data)
    y_c = weights.donor_y - np.mean(weights.donor_y)
    grad_phi = np.zeros(phi.phi.size)
    grad_phi[-1] = -np.sum(weights.w @ y_c**2 - (weights.w @ y_c) ** 2) / n
    mu_hat = estimate_mu_y(fit, data)
    a_g = np.linalg.solve(bread.T, grad_phi)
    mask = data.respondent_mask
    psi = np.empty(n)
    psi[mask] = data.y_observed - mu_hat - j_resp @ a_g
    psi[mask] += s1_resp @ np.linalg.solve(i11, grad_gamma)
    psi[~mask] = weights.w @ weights.donor_y - mu_hat - s0bar @ a_g
    return sigma, np.sum(psi**2) / n**2, e_cross, grad_gamma


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------


def election_case():
    repo = Path(__file__).resolve().parents[1]
    config = load_config(repo / "data" / "election_like.json")
    data = ingest(repo / "data" / "election_like.csv", config.schema())
    (basis,) = config.candidates[0].bases(config.kinds)
    gf = fit_glm(data.y_observed, data.respondent_columns(), Family.BERNOULLI, basis)
    return data, gf, config.h_basis()


def scenario_case(name, seed, n=500):
    scn = built_in_scenario(name, n=n)
    rng = np.random.default_rng(seed)
    data = generate(scn, rng)
    return data, _fit_respondent(scn, data, rng, 4), scn.response.h_basis


def case_data(case):
    return election_case() if case == "election" else scenario_case(*case)


def rel_err(got, ref):
    return np.max(np.abs(np.asarray(got) - ref)) / np.max(np.abs(ref))


CASES = [("s1", 61), ("s2", 62), ("s3", 63), "election"]
CASE_IDS = ["s1", "s2", "s3", "election"]

# ---------------------------------------------------------------------------
# differential tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", CASES + ["parametric"], ids=CASE_IDS + ["parametric"])
def test_score_and_jacobian_match_full_array_code(case):
    if case == "parametric":
        data, gf, h_basis = scenario_case("s1", 64)
        donor_y = _parametric_pool(gf.spec, data, 200, np.random.default_rng(1))
        base = None
    else:
        data, gf, h_basis = case_data(case)
        donor_y = data.y_observed
        ref_log_c = reference_log_c(gf.spec, data)
        assert rel_err(_donor_log_c(gf.spec, data), ref_log_c) <= 1e-12
        base = _donor_log_base(gf.spec, data)
        miss_cols = data.missing_columns()
        ref_base = log_density_outer(gf.spec, donor_y, miss_cols) - ref_log_c
        assert rel_err(base, ref_base) <= 1e-12
    start = fiem._initial_phi(h_basis, data)
    # away from the root, so that the score is not all cancellation
    phi = start.with_phi(start.phi + 0.3)
    arrays = _score_arrays(phi, data)
    w_full = reference_weights(phi.beta, donor_y, base)
    for moving in (True, False):
        ref_s, ref_j = reference_score_and_jacobian(
            phi, arrays, w_full, donor_y, moving
        )
        for w in (_LogWeights(base, phi.beta, donor_y), w_full):
            score, jac = _score_and_jacobian(phi, arrays, w, donor_y, moving)
            assert rel_err(score, ref_s) <= 1e-12
            assert rel_err(jac, ref_j) <= 1e-12


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_variances_match_full_array_code(case):
    data, gf, h_basis = case_data(case)
    fit = em_fit(data, gf, h_basis)
    assert rel_err(fit.weights.log_c, reference_log_c(gf.spec, data)) <= 1e-12
    ref_sigma, ref_mu_var, ref_e, ref_grad = reference_variances(fit, gf, data)
    sigma, parts = variance_estimate(fit, gf, data)
    assert rel_err(parts.e_cross, ref_e) <= 1e-12
    assert rel_err(sigma, ref_sigma) <= 1e-10
    assert rel_err(mu_y_variance(fit, gf, data, parts), ref_mu_var) <= 1e-8
    # the log C the fit kept, or one computed afresh
    assert rel_err(_mu_y_grad_gamma(gf.spec, fit.weights, data), ref_grad) <= 1e-12
    fit.weights.log_c = None
    assert rel_err(_mu_y_grad_gamma(gf.spec, fit.weights, data), ref_grad) <= 1e-12


# ---------------------------------------------------------------------------
# block size
# ---------------------------------------------------------------------------


def results_at_block_size(monkeypatch, cells, case):
    monkeypatch.setattr(fiem, "CELLS", cells)
    data, gf, h_basis = case_data(case)
    fit = em_fit(data, gf, h_basis)
    sigma, parts = variance_estimate(fit, gf, data)
    phi = fit.phi_hat.with_phi(fit.phi + 0.2)
    y_d = data.y_observed
    w = _LogWeights(_donor_log_base(gf.spec, data), phi.beta, y_d)
    score, jac = _score_and_jacobian(phi, _score_arrays(phi, data), w, y_d, True)
    return {
        "phi": fit.phi,
        "w": fit.weights.w,
        "log_c": fit.weights.log_c,
        "sigma": sigma,
        "mu_var": mu_y_variance(fit, gf, data, parts),
        "score": score,
        "jac": jac,
    }


@pytest.mark.parametrize("case", [("s1", 65), ("s3", 66)], ids=["s1", "s3"])
def test_results_do_not_depend_on_block_size(monkeypatch, case):
    # one row per block, then the whole grid as one block
    rows = results_at_block_size(monkeypatch, 1, case)
    whole = results_at_block_size(monkeypatch, 10**12, case)
    for key, value in rows.items():
        assert rel_err(value, whole[key]) <= 1e-12, key


# ---------------------------------------------------------------------------
# the online logsumexp
# ---------------------------------------------------------------------------

_ENTRY = st.one_of(
    st.floats(-1e3, 1e3),
    st.just(-np.inf),
    st.sampled_from([-1e3, -999.5, 0.0, 999.0, 1e3]),
)


@given(
    data=st.data(),
    n_rows=st.integers(1, 12),
    n_cols=st.integers(1, 5),
)
@settings(max_examples=200, deadline=None)
def test_online_logsumexp_matches_full_matrix(data, n_rows, n_cols):
    size = n_rows * n_cols
    cells = data.draw(st.lists(_ENTRY, min_size=size, max_size=size))
    a = np.array(cells, dtype=float).reshape(n_rows, n_cols)
    cuts = sorted(data.draw(st.sets(st.integers(1, n_rows - 1))) if n_rows > 1 else [])
    got = _logsumexp_blocks(np.split(a, cuts), n_cols)
    with np.errstate(divide="ignore"):
        ref = _logsumexp0(a)
    finite = np.isfinite(ref)
    assert np.array_equal(np.isfinite(got), finite)
    assert np.array_equal(got[~finite], ref[~finite])
    assert np.allclose(got[finite], ref[finite], rtol=1e-14, atol=1e-12)


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------


def test_each_stage_allocates_about_one_grid():
    data, gf, h_basis = scenario_case("s1", 67, n=3000)
    bound = 1.25 * data.n_missing * data.n_respondents * 8 + 8e6

    def peak(run):
        tracemalloc.start()
        try:
            out = run()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    fit, fit_peak = peak(lambda: em_fit(data, gf, h_basis))
    (_, parts), sandwich_peak = peak(lambda: variance_estimate(fit, gf, data))
    _, mu_peak = peak(lambda: mu_y_variance(fit, gf, data, parts))
    assert fit_peak <= bound
    assert sandwich_peak <= bound
    assert mu_peak <= bound

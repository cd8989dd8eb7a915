"""The row-blocked donor kernel against the full-array code it replaced.

The reference functions below are copies of the previous implementations,
which built every missing-unit x donor and respondent x donor array in
full; the blocked code must reproduce them, whatever the block size, and
must keep its allocations to about one stored grid.
"""

import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import expit

import fimnar.fiem as fiem
from fimnar.basis import continuous, parse_formula
from fimnar.config import load_config
from fimnar.dataio import Dataset, ingest
from fimnar.expfam import Component, Family, OutcomeSpec, _logsumexp0, log_density_outer
from fimnar.fiem import (
    FitResult,
    FractionalWeights,
    _donor_blocks,
    _LogWeights,
    _parametric_pool,
    _row_dot,
    _score_and_jacobian,
    _score_arrays,
    em_fit,
    estimate_mu_y,
    fractional_weights,
)
from fimnar.respondent import FitError, fit_glm
from fimnar.response import ResponseSpec
from fimnar.sim import Scenario, _fit_respondent, built_in_scenario, generate
from fimnar.variance import (
    _assemble,
    _mu_y_grad_gamma,
    mu_y_variance,
    respondent_score_gamma,
    variance_estimate,
)

from oracles import StoredGrid, _donor_log_base, _donor_log_c, _logsumexp_blocks, score_sums

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
    p_resp = expit(z @ phi.phi)
    score = z.T @ (1.0 - p_resp)
    jac = -(z.T @ (z * (p_resp * (1.0 - p_resp))[:, None]))
    b = arrays.b_miss
    L = b.shape[1]
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
    y_d = data.y_observed
    wp = weights.w * expit((b_miss @ np.asarray(phi.alpha))[:, None] + phi.beta * y_d)
    s0bar = -np.column_stack([wp.sum(axis=1)[:, None] * b_miss, wp @ y_d])
    z0bar = np.column_stack([b_miss, weights.w @ y_d])
    r_w, r_wp, r_wpy = score_sums(
        gamma, y_d, data.missing_columns(), (weights.w, wp, wp * y_d)
    )
    e_cross = -(np.vstack([b_miss.T @ r_wp, r_wpy.sum(axis=0)]) + s0bar.T @ r_w) / n
    return s0bar, z0bar, e_cross


def reference_mu_y_grad_gamma(gamma, weights, data):
    y_d = data.y_observed
    v = (y_d[None, :] - (weights.w @ y_d)[:, None]) * weights.w
    c = v.sum(axis=0)
    (local,) = score_sums(gamma, y_d, data.missing_columns(), (v,))
    resp_cols = data.respondent_columns()
    p = log_density_outer(gamma, y_d, resp_cols)
    p = np.exp(p - p.max(axis=0))
    p *= c / p.sum(axis=0)
    (via_c,) = score_sums(gamma, y_d, resp_cols, (p,))
    return (local.sum(axis=0) - via_c.sum(axis=0)) / data.n


def reference_variances(fit, gf, data):
    """(sigma, Var(mu), e_cross, d mu/d gamma) assembled from the references."""
    phi, gamma, n, weights = fit.phi_hat, gf.spec, data.n, fit.weights
    resp_cols = data.respondent_columns()
    z_resp = phi.design(resp_cols, data.y_observed)
    p_resp = expit(z_resp @ phi.phi)
    s_resp = z_resp * (1.0 - p_resp)[:, None]
    s1_resp = respondent_score_gamma(gamma, data.y_observed, resp_cols)
    i11 = s1_resp.T @ s1_resp / n
    s0bar, z0bar, e_cross = reference_missing_pieces(phi, gamma, weights, data, n)
    bread = s0bar.T @ z0bar / n
    j_resp = s_resp + s1_resp @ np.linalg.solve(i11, e_cross.T)
    sigma = _assemble(bread, (j_resp.T @ j_resp + s0bar.T @ s0bar) / n, n)

    grad_gamma = reference_mu_y_grad_gamma(gamma, weights, data)
    y_c = data.y_observed - np.mean(data.y_observed)
    grad_phi = np.zeros(phi.phi.size)
    grad_phi[-1] = -np.sum(weights.w @ y_c**2 - (weights.w @ y_c) ** 2) / n
    mu_hat = estimate_mu_y(fit, data)
    a_g = np.linalg.solve(bread.T, grad_phi)
    mask = data.respondent_mask
    psi = np.empty(n)
    psi[mask] = data.y_observed - mu_hat - j_resp @ a_g
    psi[mask] += s1_resp @ np.linalg.solve(i11, grad_gamma)
    psi[~mask] = weights.w @ data.y_observed - mu_hat - s0bar @ a_g
    return sigma, np.sum(psi**2) / n**2, e_cross, grad_gamma


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------


def election_case():
    repo = Path(__file__).resolve().parents[1]
    config = load_config(repo / "data" / "election_like.json")
    data = ingest(repo / "data" / "election_like.csv", config.schema)
    (basis,) = config.candidates[0].bases
    gf = fit_glm(data.y_observed, data.respondent_columns(), Family.BERNOULLI, basis)
    return data, gf, config.h_basis


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
        kernel = _LogWeights(None, phi.beta, donor_y) if base is None else StoredGrid(base, phi.beta, donor_y)
        score, jac = _score_and_jacobian(phi, arrays, kernel, moving)
        assert rel_err(score, ref_s) <= 1e-12
        assert rel_err(jac, ref_j) <= 1e-12


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_variances_match_full_array_code(case):
    data, gf, h_basis = case_data(case)
    fit = em_fit(data, gf, h_basis)
    log_c = fiem._log_c_at(gf.spec, fit.weights.values, data)
    assert rel_err(log_c[fit.weights.inverse], reference_log_c(gf.spec, data)) <= 1e-12
    ref_sigma, ref_mu_var, ref_e, ref_grad = reference_variances(fit, gf, data)
    sigma, parts = variance_estimate(fit, gf, data)
    assert rel_err(parts.e_cross, ref_e) <= 1e-12
    assert rel_err(sigma, ref_sigma) <= 1e-10
    assert rel_err(mu_y_variance(fit, gf, data, parts), ref_mu_var) <= 1e-8
    # the log C the fit kept
    assert rel_err(_mu_y_grad_gamma(gf.spec, fit.weights, data, parts), ref_grad) <= 1e-12


def reference_log_odds_propensity(phi, b_miss, y, rows):
    """The donor kernel's in-block propensity in the log-odds form."""
    lin = b_miss @ np.asarray(phi.alpha)
    pi = np.subtract(-lin[rows, None], phi.beta * y)
    with np.errstate(over="ignore"):
        np.exp(pi, out=pi)
    pi += 1.0
    return np.reciprocal(pi, out=pi)


def reference_block_propensity(phi, b_miss, y, rows):
    """The donor kernel's in-block propensity, hand-rolled: ``1 / (1 + a_i b_j)``
    from ``a = exp(-lin)`` and ``b = exp(-beta y)``, or the log-odds form
    when a factor is 0 or inf."""
    lin = b_miss @ np.asarray(phi.alpha)
    with np.errstate(over="ignore", under="ignore"):
        a, b = np.exp(-lin), np.exp(-phi.beta * y)
        factors = np.concatenate([a, b])
        if np.all(factors > 0) and np.all(np.isfinite(factors)):
            return 1.0 / (1.0 + a[rows, None] * b)
    return reference_log_odds_propensity(phi, b_miss, y, rows)


def block_propensities(monkeypatch, case, shift):
    """``(rows, y, pi, phi, b_miss)`` of each block of the kernel, at a shifted start."""
    monkeypatch.setattr(fiem, "CELLS", 4096)
    data, gf, h_basis = case_data(case)
    start = fiem._initial_phi(h_basis, data)
    phi = start.with_phi(start.phi + shift)
    b_miss = h_basis.design(data.missing_columns())
    flat = _LogWeights(None, 0.0, data.y_observed)
    for rows, y, _, pi in _donor_blocks(phi, b_miss, flat):
        yield rows, y, pi, phi, b_miss


@pytest.mark.parametrize("case", [("s1", 61), ("s3", 63)], ids=["s1", "s3"])
@pytest.mark.parametrize("shift", [0.3, -300.0, 300.0])
def test_block_propensity_is_bitwise_the_hand_rolled_one(monkeypatch, case, shift):
    # shifts of +-300 in every coefficient put many cells where exp
    # overflows (pi exactly 0) and many where pi rounds to 1; there some
    # odds factor leaves the floating range, and the log-odds form serves
    blocks = 0
    for rows, y, pi, phi, b_miss in block_propensities(monkeypatch, case, shift):
        np.testing.assert_array_equal(pi, reference_block_propensity(phi, b_miss, y, rows))
        blocks += 1
    assert blocks > 1


@pytest.mark.parametrize("case", [("s1", 61), ("s3", 63)], ids=["s1", "s3"])
def test_block_propensity_is_the_log_odds_one_to_rounding(monkeypatch, case):
    for rows, y, pi, phi, b_miss in block_propensities(monkeypatch, case, 0.3):
        ref = reference_log_odds_propensity(phi, b_miss, y, rows)
        assert np.max(np.abs(pi - ref) / ref) <= 1e-15


@pytest.mark.parametrize(
    "beta, move_intercept",
    [(-2000.0, True), (2000.0, True), (-2000.0, False), (2000.0, False)],
    ids=["-2000.0", "2000.0", "-2000.0-ignorable-intercept", "2000.0-ignorable-intercept"],
)
def test_score_and_jacobian_match_full_array_code_at_extreme_beta(beta, move_intercept):
    # an EM-fallback replicate reaches beta near 2190: there exp(-beta y)
    # leaves the floating range and the kernel takes the log-odds form.
    # The moved intercept puts the log-odds near 0 at the donor value that
    # carries the weight, as on that replicate; at the ignorable start's
    # intercept every weighted pi saturates, and so do the respondents'
    data, gf, h_basis = case_data(("s1", 61))
    donor_y = data.y_observed
    base = _donor_log_base(gf.spec, data)
    start = fiem._initial_phi(h_basis, data)
    phi = start.with_phi(np.append(start.phi[:-1], beta))
    if move_intercept:
        heavy = donor_y.min() if beta > 0 else donor_y.max()
        phi = phi.with_phi(phi.phi - np.eye(phi.phi.size)[0] * beta * heavy)
    arrays = _score_arrays(phi, data)
    w_full = reference_weights(beta, donor_y, base)
    for moving in (True, False):
        ref_s, ref_j = reference_score_and_jacobian(phi, arrays, w_full, donor_y, moving)
        score, jac = _score_and_jacobian(phi, arrays, StoredGrid(base, beta, donor_y), moving)
        assert rel_err(score, ref_s) <= 1e-12
        assert rel_err(jac, ref_j) <= 1e-12


# ---------------------------------------------------------------------------
# block size
# ---------------------------------------------------------------------------


def results_at_block_size(monkeypatch, cells, case):
    monkeypatch.setattr(fiem, "CELLS", cells)
    monkeypatch.setattr(fiem, "MIN_BLOCK_ROWS", 1)
    data, gf, h_basis = case_data(case)
    fit = em_fit(data, gf, h_basis)
    sigma, parts = variance_estimate(fit, gf, data)
    phi = fit.phi_hat.with_phi(fit.phi + 0.2)
    y_d = data.y_observed
    w = StoredGrid(_donor_log_base(gf.spec, data), phi.beta, y_d)
    score, jac = _score_and_jacobian(phi, _score_arrays(phi, data), w, True)
    return {
        "phi": fit.phi,
        "w": fit.weights.w,
        "log_c": fiem._log_c_at(gf.spec, fit.weights.values, data),
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


def test_wide_grids_keep_a_row_floor_per_block():
    # above CELLS / MIN_BLOCK_ROWS columns a block would hold fewer rows
    widths = [rows.stop - rows.start for rows, _ in fiem._blocks(10, fiem.CELLS)]
    assert widths == [4, 4, 2]
    widths = [rows.stop - rows.start for rows, _ in fiem._blocks(10, fiem.CELLS // 5)]
    assert widths == [5, 5]


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


# ---------------------------------------------------------------------------
# the factored, collapsed kernel against the stored per-donor grid
# ---------------------------------------------------------------------------


def stored_grid_kernel(gamma, data):
    """``_donor_kernel`` as the stored-grid code built it: the full per-donor
    base from ``log_density_outer``, one column per donor, no factors."""
    log_c = reference_log_c(gamma, data)
    base = log_density_outer(gamma, data.y_observed, data.missing_columns()) - log_c
    return StoredGrid(base, 0.0, data.y_observed), None


def glm_scenario_case(family, seed, n=500):
    """A Poisson or gamma (shape 3, log link) outcome on 1 + x, fitted by ``fit_glm``."""
    basis = built_in_scenario("s2").response.h_basis  # 1 + x
    dispersion = 3.0 if family is Family.GAMMA else None
    scn = Scenario(
        name=family.value,
        n=n,
        respondent=OutcomeSpec(family, (Component(basis, (0.5, 0.4), dispersion),)),
        response=ResponseSpec(basis, (0.6, 0.3), 0.3),
    )
    data = generate(scn, np.random.default_rng(seed))
    return data, _fit_respondent(scn, data, None, 1), scn.response.h_basis


FACTOR_CASES = [("s1", 71), ("s2", 72), "election", Family.POISSON, Family.GAMMA]
FACTOR_IDS = ["s1", "s2", "election", "poisson", "gamma"]


def factor_case_data(case):
    if isinstance(case, Family):
        return glm_scenario_case(case, 73)
    return case_data(case)


@pytest.mark.parametrize("case", FACTOR_CASES, ids=FACTOR_IDS)
def test_factored_kernel_matches_stored_grid(monkeypatch, case):
    data, gf, h_basis = factor_case_data(case)
    fit = em_fit(data, gf, h_basis)
    with monkeypatch.context() as patch:
        patch.setattr(fiem, "_donor_kernel", stored_grid_kernel)
        ref_fit = em_fit(data, gf, h_basis)
    log_c = fiem._log_c_at(gf.spec, fit.weights.values, data)
    assert rel_err(log_c[fit.weights.inverse], reference_log_c(gf.spec, data)) <= 1e-12
    assert rel_err(fit.phi, ref_fit.phi) <= 1e-12
    # both kernels' weights at one phi: the stored-grid fit's
    factored = fractional_weights(ref_fit.phi_hat, gf.spec, data)
    assert rel_err(factored.w, ref_fit.weights.w) <= 1e-12
    # the per-donor weights are built on demand, never kept
    assert fit.weights.w is not fit.weights.w

    phi = fit.phi_hat.with_phi(fit.phi + 0.3)
    arrays = _score_arrays(phi, data)
    kernel = fiem._donor_kernel(gf.spec, data)[0]
    ref_kernel = stored_grid_kernel(gf.spec, data)[0]
    for moving in (True, False):
        score, jac = _score_and_jacobian(phi, arrays, replace(kernel, beta=phi.beta), moving)
        ref_s, ref_j = _score_and_jacobian(phi, arrays, replace(ref_kernel, beta=phi.beta), moving)
        assert rel_err(score, ref_s) <= 1e-12
        assert rel_err(jac, ref_j) <= 1e-12

    # the variances of the factored fit against the full-array references
    # evaluated on the stored-grid fit
    ref_sigma, ref_mu_var, ref_e, ref_grad = reference_variances(ref_fit, gf, data)
    sigma, parts = variance_estimate(fit, gf, data)
    assert rel_err(parts.e_cross, ref_e) <= 1e-12
    assert rel_err(sigma, ref_sigma) <= 1e-10
    assert rel_err(mu_y_variance(fit, gf, data, parts), ref_mu_var) <= 1e-8
    assert rel_err(_mu_y_grad_gamma(gf.spec, fit.weights, data, parts), ref_grad) <= 1e-12


def test_donors_collapse_to_their_unique_values():
    data, gf, h_basis = election_case()
    kernel, inverse = fiem._donor_kernel(gf.spec, data)
    assert data.n_respondents > 900
    assert np.array_equal(kernel.donor_y, [0.0, 1.0])
    assert np.array_equal(kernel.donor_y[inverse], data.y_observed)


# ---------------------------------------------------------------------------
# exact dedup: donors that share a value, and respondent row order
# ---------------------------------------------------------------------------


def tied_dataset(seed, family, n1, n0, n_values, n_copies):
    """Respondent outcomes on ``n_values`` distinct values, and the first
    ``n_copies`` respondent rows repeated whole; missing units follow."""
    rng = np.random.default_rng(seed)
    x1 = rng.normal(size=n1)
    if family is Family.BERNOULLI:
        y1 = (rng.random(n1) < expit(0.3 + x1)).astype(float)
    elif family is Family.POISSON:
        y1 = np.minimum(rng.poisson(np.exp(0.3 + 0.4 * x1)), n_values - 1).astype(float)
    else:
        y1 = np.round(0.5 * x1 + rng.normal(size=n1), 0) / 2.0
        y1 = np.clip(y1, -n_values / 4.0, n_values / 4.0)
    x1 = np.concatenate([x1, x1[:n_copies]])
    y1 = np.concatenate([y1, y1[:n_copies]])
    x = np.concatenate([x1, rng.normal(size=n0)])
    y = np.concatenate([y1, np.full(n0, np.nan)])
    delta = np.concatenate([np.ones(y1.size, dtype=int), np.zeros(n0, dtype=int)])
    return Dataset(columns={"x": x}, y=y, delta=delta, kinds={"x": continuous()})


def kernel_results(phi, gf, data, weights):
    """Score and Jacobian (away from the root), per-donor w, the bread's
    condition number, sigma and Var(mu) of one set of weights at phi."""
    fit = FitResult(phi, weights, 0.0)
    sigma, parts = variance_estimate(fit, gf, data)
    off = phi.with_phi(phi.phi + 0.3)
    score, jac = _score_and_jacobian(off, _score_arrays(off, data), weights.kernel, True)
    return {
        "score": score,
        "jac": jac,
        "w": weights.w,
        "cond": np.linalg.cond(parts.bread),
        "sigma": sigma,
        "mu_var": mu_y_variance(fit, gf, data, parts),
    }


# sigma and Var(mu) pass through the bread's inverse, which scales the
# last-bit differences of reordered sums by its condition number: they get
# the bounds of the differential tests above, on fits whose bread has a
# condition number of at most 1e5
BOUNDS = {"score": 1e-12, "jac": 1e-12, "w": 1e-12, "sigma": 1e-10, "mu_var": 1e-8}


@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from([Family.NORMAL, Family.BERNOULLI, Family.POISSON]),
    n_values=st.integers(2, 6),
    n_copies=st.integers(0, 10),
)
@settings(max_examples=40, deadline=None)
def test_collapsed_donors_match_every_donor_and_ignore_row_order(
    seed, family, n_values, n_copies
):
    data = tied_dataset(seed, family, 120, 40, n_values, n_copies)
    assume(np.unique(data.y_observed).size > 1)
    basis = parse_formula("1 + x", {"x": continuous()})
    try:
        gf = fit_glm(data.y_observed, data.respondent_columns(), family, basis)
        phi = em_fit(data, gf, basis).phi_hat
        got = kernel_results(phi, gf, data, fractional_weights(phi, gf.spec, data))
    except FitError:
        assume(False)
    assume(got.pop("cond") <= 1e5)
    kernel = replace(stored_grid_kernel(gf.spec, data)[0], beta=phi.beta)
    every_donor = FractionalWeights(data.n_missing, kernel, fiem._kept_sums(phi, kernel, gf.spec, data))
    ref = kernel_results(phi, gf, data, every_donor)
    for key, value in got.items():
        assert rel_err(value, ref[key]) <= BOUNDS[key], key

    # reverse the respondent rows: the donors change order, nothing else
    n1 = data.n_respondents
    order = np.concatenate([np.arange(n1)[::-1], np.arange(n1, data.n)])
    flipped = Dataset(
        columns={"x": data.columns["x"][order]},
        y=data.y[order],
        delta=data.delta[order],
        kinds={"x": continuous()},
    )
    again = kernel_results(phi, gf, flipped, fractional_weights(phi, gf.spec, flipped))
    again["w"] = again["w"][:, ::-1]
    for key, value in got.items():
        assert rel_err(again[key], value) <= BOUNDS[key], key


# ---------------------------------------------------------------------------
# memory without a grid
# ---------------------------------------------------------------------------


def traced_peak(run):
    tracemalloc.start()
    try:
        out = run()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_component_stages_allocate_no_grid():
    # the bound grows with n0 + n1, not with the n0 x n1 grid (about 15 MB here)
    data, gf, h_basis = scenario_case("s1", 67, n=3000)
    bound = 8e6 + 64 * (data.n_missing + data.n_respondents) * 8
    fit, fit_peak = traced_peak(lambda: em_fit(data, gf, h_basis))
    (_, parts), sandwich_peak = traced_peak(lambda: variance_estimate(fit, gf, data))
    _, mu_peak = traced_peak(lambda: mu_y_variance(fit, gf, data, parts))
    assert fit_peak <= bound
    assert sandwich_peak <= bound
    assert mu_peak <= bound


def test_mixture_stages_allocate_no_grid():
    # a mixture's kernel is K rank-one grids, so it keeps no (n_missing,
    # values) base either: the bound grows with n0 + n1, and one such
    # array exceeds it
    data, gf, h_basis = scenario_case("s3", 68, n=3000)
    bound = 8e6 + 64 * (data.n_missing + data.n_respondents) * 8
    assert gf.spec.k > 1
    assert data.n_missing * np.unique(data.y_observed).size * 8 > bound
    fit, fit_peak = traced_peak(lambda: em_fit(data, gf, h_basis))
    (_, parts), sandwich_peak = traced_peak(lambda: variance_estimate(fit, gf, data))
    _, mu_peak = traced_peak(lambda: mu_y_variance(fit, gf, data, parts))
    assert fit_peak <= bound
    assert sandwich_peak <= bound
    assert mu_peak <= bound


def test_kernel_passes_reuse_their_block_buffers():
    # a pass writes its blocks into buffers allocated once, so it peaks at
    # those buffers plus vectors over units and values (under one block
    # here): three for a score pass (weights, pi, w pi), one for log C
    # (its points x respondent-rows block).  A fresh array per block, with
    # the previous block alive while the next is built, peaked at 5.4 and
    # 3.4 blocks.  Here log C and d log C/d gamma are interpolated in y,
    # and those passes are held to the same bound as the exact log C.
    data, gf, h_basis = scenario_case("s1", 67, n=3000)
    block = fiem.CELLS * 8
    kernel = fiem._donor_kernel(gf.spec, data)[0]
    phi = fiem._initial_phi(h_basis, data).with_phi(np.array([0.6, 0.2, 0.3]))
    arrays = _score_arrays(phi, data)
    w = replace(kernel, beta=phi.beta)
    assert data.n_missing * kernel.donor_y.size > 8 * fiem.CELLS  # many blocks
    assert kernel.donor_y.size >= 4 * fiem.CHEB_POINTS  # interpolated in y
    _, score_peak = traced_peak(
        lambda: _score_and_jacobian(phi, arrays, w, True)
    )
    _, log_c_peak = traced_peak(lambda: fiem._log_c_at(gf.spec, kernel.donor_y, data))
    fit = FitResult(phi, fractional_weights(phi, gf.spec, data), 0.0)
    parts = variance_estimate(fit, gf, data)[1]
    _, grad_peak = traced_peak(lambda: _mu_y_grad_gamma(gf.spec, fit.weights, data, parts))
    assert score_peak <= 4 * block
    assert log_c_peak <= 3 * block
    assert grad_peak <= 3 * block

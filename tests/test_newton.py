"""The package's one damped-Newton loop, ``respondent._newton``.

Differential tests against reference copies of the two GLM Newton loops
it replaced (the canonical-link loop behind Bernoulli and Poisson
``fit_glm`` and the ignorable start ``fiem._initial_phi``, and the gamma
coefficient loop), plus the EM fallback's Newton finish.
"""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from fimnar import fiem
from fimnar.basis import BasisTerm, continuous, parse_formula
from fimnar.expfam import Family
from fimnar.fiem import FiControls, em_fit, fractional_weights, mean_score
from fimnar.respondent import _newton, fit_glm
from fimnar.sim import _fit_respondent, built_in_scenario, generate

KINDS = {"x": continuous()}
B1X = parse_formula("1 + x", KINDS)
B1XX = parse_formula("1 + x + x^2", KINDS)


# ---------------------------------------------------------------------------
# reference copies of the replaced loops
# ---------------------------------------------------------------------------


def reference_newton_canonical(x, y, mean_fn, var_fn, max_iter=100, tol=1e-8):
    """Newton iterations for a canonical-link GLM: grad = X'(y - mu)."""
    coef = np.zeros(x.shape[1])
    trace = []
    for it in range(1, max_iter + 1):
        eta = np.clip(x @ coef, -35.0, 35.0)
        mu = mean_fn(eta)
        grad = x.T @ (y - mu)
        gnorm = float(np.max(np.abs(grad)))
        trace.append(gnorm)
        if gnorm <= tol:
            return coef, it, trace
        w = np.maximum(var_fn(mu), 1e-12)
        hess = x.T @ (x * w[:, None])
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        # halve until the gradient norm stops increasing
        for _ in range(40):
            new = coef + step
            new_eta = np.clip(x @ new, -35.0, 35.0)
            new_grad = x.T @ (y - mean_fn(new_eta))
            if np.max(np.abs(new_grad)) <= gnorm or np.max(np.abs(step)) < 1e-14:
                break
            step *= 0.5
        coef = coef + step
    eta = np.clip(x @ coef, -35.0, 35.0)
    trace.append(float(np.max(np.abs(x.T @ (y - mean_fn(eta))))))
    return coef, max_iter, trace


def reference_gamma_coef(y, mean_basis, x, max_iter=100, tol=1e-8):
    """The gamma log-mean-link coefficient loop of the previous ``_fit_gamma``."""
    coef = np.zeros(x.shape[1])
    if BasisTerm(()) in mean_basis.terms:
        pos = list(mean_basis.terms).index(BasisTerm(()))
        coef[pos] = math.log(float(np.mean(y)))
    trace = []
    for it in range(1, max_iter + 1):
        eta = x @ coef
        r = y * np.exp(-eta)  # y / mu
        grad = x.T @ (r - 1.0)
        gnorm = float(np.max(np.abs(grad)))
        trace.append(gnorm)
        if gnorm <= tol:
            return coef, it, trace
        hess = x.T @ (x * r[:, None])
        step = np.linalg.solve(hess, grad)
        for _ in range(40):
            new_eta = x @ (coef + step)
            new_gnorm = np.max(np.abs(x.T @ (y * np.exp(-new_eta) - 1.0)))
            if new_gnorm <= gnorm or np.max(np.abs(step)) < 1e-14:
                break
            step *= 0.5
        coef = coef + step
    raise AssertionError("reference gamma Newton did not converge")


def bernoulli_var(mu):
    return mu * (1.0 - mu)


def poisson_mean(eta):
    return np.exp(np.clip(eta, -700, 30))


def rel_err(got, ref):
    return np.max(np.abs(np.asarray(got) - ref)) / np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# differential tests
# ---------------------------------------------------------------------------


def glm_outcome(family, slope, rng, n=3000):
    x = rng.normal(size=n)
    eta = 0.3 + slope * x
    if family is Family.BERNOULLI:
        y = (rng.random(n) < expit(eta)).astype(float)
    elif family is Family.POISSON:
        y = rng.poisson(np.exp(eta)).astype(float)
    else:
        y = rng.gamma(2.0, np.exp(eta) / 2.0)
    return x, y


@pytest.mark.parametrize("basis", [B1X, B1XX], ids=["linear", "quadratic"])
@pytest.mark.parametrize(
    "family, slope",
    [
        (Family.BERNOULLI, 1.2),
        (Family.BERNOULLI, 5.9),  # s2's steep response slope
        (Family.POISSON, 0.4),
        (Family.GAMMA, 0.5),
    ],
    ids=["bernoulli", "bernoulli-steep", "poisson", "gamma"],
)
def test_fit_glm_matches_replaced_newton_loops(family, slope, basis):
    x, y = glm_outcome(family, slope, np.random.default_rng(31))
    fit = fit_glm(y, {"x": x}, family, basis)
    design = basis.design({"x": x})
    if family is Family.GAMMA:
        ref_coef, ref_iters, ref_trace = reference_gamma_coef(y, basis, design)
    elif family is Family.BERNOULLI:
        ref_coef, ref_iters, ref_trace = reference_newton_canonical(
            design, y, expit, bernoulli_var
        )
    else:
        ref_coef, ref_iters, ref_trace = reference_newton_canonical(
            design, y, poisson_mean, lambda mu: mu
        )
    assert rel_err(fit.spec.components[0].coef, ref_coef) <= 1e-12
    assert fit.iterations == ref_iters
    # the gradient trace starts with the norm at the starting point
    np.testing.assert_allclose(fit.trace, ref_trace, rtol=1e-12, atol=1e-14)


def election_data():
    from fimnar.config import load_config
    from fimnar.dataio import ingest

    repo = Path(__file__).resolve().parents[1]
    config = load_config(repo / "data" / "election_like.json")
    data = ingest(repo / "data" / "election_like.csv", config.schema())
    return data, config.h_basis()


@pytest.mark.parametrize("case", ["s1", "election"])
def test_initial_phi_matches_replaced_newton_loop(case):
    if case == "election":
        data, h_basis = election_data()
    else:
        scn = built_in_scenario("s1", n=500)
        data, h_basis = generate(scn, np.random.default_rng(37)), scn.response.h_basis
    start = fiem._initial_phi(h_basis, data)
    x = h_basis.design(data.columns)
    ref_coef, _, ref_trace = reference_newton_canonical(
        x, data.delta.astype(float), expit, bernoulli_var
    )
    assert ref_trace[-1] <= 1e-6
    assert rel_err(start.alpha, ref_coef) <= 1e-12
    assert start.beta == 0.0


def test_fi_controls_hold_only_stopping_rules():
    names = [f.name for f in dataclasses.fields(FiControls)]
    assert names == ["tol_phi", "tol_score", "max_em_iter", "max_newton_iter"]


# ---------------------------------------------------------------------------
# the loop itself
# ---------------------------------------------------------------------------


def test_newton_reports_a_stall_when_halvings_run_out():
    # S(x) = x^2 + 1 has no root; the minimum of |S| at x = 0 has a
    # singular Jacobian, and no halving of the ridge step lowers |S|
    def system(x):
        return x**2 + 1.0, np.diag(2.0 * x)

    x, path, converged = _newton(np.array([1.0]), system, 50, 1e-8)
    assert not converged
    assert x[0] == 0.0
    assert [step for step, _, _ in path] == [0, 1]
    assert [norm for _, _, norm in path] == [2.0, 1.0]


def test_newton_step_cap_and_step_test():
    def system(x):
        return x**3 - 8.0, np.diag(3.0 * x**2)

    _, path, converged = _newton(np.array([10.0]), system, 2, 1e-8)
    assert not converged and len(path) == 3
    x, path, converged = _newton(np.array([10.0]), system, 50, 1e-8, step_tol=1e-12)
    assert converged and abs(x[0] - 2.0) <= 1e-12
    assert path[-1][2] <= 1e-8


# ---------------------------------------------------------------------------
# the EM fallback's Newton finish
# ---------------------------------------------------------------------------


def test_em_fallback_reports_the_score_at_its_root():
    # the replicate of test_em_takes_over_where_newton_stalls: Newton from
    # the ignorable start stalls and EM gives it a second start; the
    # reported score norm must be that of S(phi_hat; w(beta_hat)), not the
    # last M-step's fixed-weight score
    scn = built_in_scenario("s1", n=500, kappa2=0.1)
    rng = np.random.default_rng(np.random.SeedSequence(20240800).spawn(47)[46])
    data = generate(scn, rng)
    gf = _fit_respondent(scn, data, rng, 10)
    controls = FiControls(max_em_iter=2000)
    fit = em_fit(data, gf, scn.response.h_basis, controls=controls)
    assert fit.em_iterations > controls.max_newton_iter
    weights = fractional_weights(fit.phi_hat, gf.spec, data)
    true_norm = float(np.max(np.abs(mean_score(fit.phi_hat, weights, data))))
    assert abs(fit.mean_score_norm - true_norm) <= 1e-12
    assert fit.mean_score_norm <= controls.tol_score

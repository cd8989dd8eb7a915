"""Plug-in sandwich covariance for the fractional-imputation estimator.

The response parameters solve a weighted mean score equation whose
weights depend on the respondents' model, which is itself estimated,
so the asymptotic variance has three ingredients: the outer-product
"meat" of per-unit influence contributions, a bread matrix estimating
the mean-score Jacobian, and a correction projecting out the
first-stage estimation of the outcome model.

With mean-normalized pieces,

    bread  A = (1/n) sum_{delta=0} s0bar_i z0bar_i'
    I11      = (1/n) sum_{delta=1} s1_i s1_i'
    E        = (1/n) sum_{delta=0} sum_j w_ij (S_ij - s0bar_i) s1'(x_i, y_j)
    J_i      = S_i + E I11^{-1} s1_i          (respondents)
    u_i      = J_i or s0bar_i                 (respondents / missing)
    Var(phi_hat) = (1/n) A^{-1} [(1/n) sum_i u_i u_i'] A^{-T}

``s0bar_i`` is the donor-weighted mean score of missing unit i and
``z0bar_i`` its donor-weighted design vector, both at the fitted
parameters.  ``s1`` is the gradient of the respondents' log density in
the outcome-model parameters: analytic for one-component normal and
Bernoulli models, central finite differences otherwise.

When the data contain no missing units the weighted terms vanish and
the bread degenerates; the estimator then reduces to the ordinary
logistic-regression sandwich, which is returned directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .dataio import Dataset
from .expfam import (
    Family,
    OutcomeSpec,
    flatten_params,
    log_density,
    log_density_outer,
    unflatten_params,
)
from .fiem import (
    FitResult,
    FractionalWeights,
    _donor_log_base,
    _propensity_matrix,
    _weights_from_base,
    estimate_mu_y,
)
from .respondent import FitError, RespondentFit
from .response import ResponseSpec

__all__ = [
    "SandwichParts",
    "SingularInformationError",
    "variance_estimate",
    "mu_y_variance",
    "respondent_score_gamma",
    "wald_interval",
]

COND_LIMIT = 1e12
FD_STEP_GAMMA = 1e-6  # relative step for outcome-model score differences
FD_STEP_MU = 1e-5  # relative step for the mean-functional gradient in gamma
Z975 = 1.959963984540054


class SingularInformationError(FitError):
    """A bread or information matrix is numerically singular."""


@dataclass
class SandwichParts:
    bread: np.ndarray  # mean-score Jacobian estimate, (d, d)
    middle: np.ndarray  # mean outer product of influence terms, (d, d)
    i11: np.ndarray  # respondent information in gamma, (q, q)
    e_cross: np.ndarray  # weight-vs-gamma coupling, (d, q)
    j_resp: np.ndarray  # respondent influence vectors, (n1, d)
    s0bar: np.ndarray  # missing-unit mean scores, (n0, d)
    s1_resp: np.ndarray  # respondent outcome-model scores, (n1, q)


def _check_cond(matrix: np.ndarray, label: str) -> None:
    if matrix.size == 0:
        raise SingularInformationError(f"{label} is empty")
    cond = np.linalg.cond(matrix)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularInformationError(
            f"{label} is numerically singular (condition number {cond:.3g})"
        )


# ---------------------------------------------------------------------------
# outcome-model score s1
# ---------------------------------------------------------------------------


def respondent_score_gamma(
    gamma: OutcomeSpec, y: np.ndarray, columns
) -> np.ndarray:
    """Gradient of log f(y | x, respondent) in the outcome parameters.

    Returns an (n, q) array ordered like ``flatten_params``.  Uses the
    closed form for one-component normal and Bernoulli models and
    central finite differences elsewhere.
    """
    y = np.asarray(y, dtype=float)
    if gamma.k == 1 and gamma.family is Family.NORMAL:
        comp = gamma.components[0]
        design = comp.basis.design(columns)
        sigma2 = float(comp.dispersion)
        resid = y - design @ np.asarray(comp.coef)
        grad_coef = design * (resid / sigma2)[:, None]
        grad_sigma2 = (resid**2 - sigma2) / (2.0 * sigma2**2)
        return np.column_stack([grad_coef, grad_sigma2])
    if gamma.k == 1 and gamma.family is Family.BERNOULLI:
        comp = gamma.components[0]
        design = comp.basis.design(columns)
        p = expit(design @ np.asarray(comp.coef))
        return design * (y - p)[:, None]
    return _score_gamma_fd(gamma, y, columns, outer=False)


def _score_gamma_outer(gamma: OutcomeSpec, y_donors: np.ndarray, columns) -> np.ndarray:
    """(q, n0, nd) scores of donor values under missing units' covariates."""
    if gamma.k == 1 and gamma.family is Family.NORMAL:
        comp = gamma.components[0]
        design = comp.basis.design(columns)  # (n0, m)
        sigma2 = float(comp.dispersion)
        mu = design @ np.asarray(comp.coef)
        resid = y_donors[None, :] - mu[:, None]  # (n0, nd)
        out = np.empty((design.shape[1] + 1,) + resid.shape)
        for j in range(design.shape[1]):
            out[j] = resid / sigma2 * design[:, j][:, None]
        out[-1] = (resid**2 - sigma2) / (2.0 * sigma2**2)
        return out
    if gamma.k == 1 and gamma.family is Family.BERNOULLI:
        comp = gamma.components[0]
        design = comp.basis.design(columns)
        p = expit(design @ np.asarray(comp.coef))
        resid = y_donors[None, :] - p[:, None]
        out = np.empty((design.shape[1],) + resid.shape)
        for j in range(design.shape[1]):
            out[j] = resid * design[:, j][:, None]
        return out
    return _score_gamma_fd(gamma, y_donors, columns, outer=True)


def _score_gamma_fd(gamma, y, columns, outer: bool) -> np.ndarray:
    theta = flatten_params(gamma)
    evaluate = log_density_outer if outer else log_density
    grads = []
    for j in range(theta.size):
        step = FD_STEP_GAMMA * (1.0 + abs(theta[j]))
        up, dn = theta.copy(), theta.copy()
        up[j] += step
        dn[j] -= step
        g = (
            evaluate(unflatten_params(gamma, up), y, columns)
            - evaluate(unflatten_params(gamma, dn), y, columns)
        ) / (2.0 * step)
        grads.append(g)
    if outer:
        return np.stack(grads)  # (q, n0, nd)
    return np.column_stack(grads)  # (n, q)


# ---------------------------------------------------------------------------
# sandwich assembly
# ---------------------------------------------------------------------------


def _missing_pieces(phi: ResponseSpec, weights: FractionalWeights, data: Dataset):
    """Per-missing-unit mean scores and mean design vectors."""
    b_miss = phi.h_basis.design(data.missing_columns())
    y_d = weights.donor_matrix()
    pi = _propensity_matrix(phi, b_miss, weights.donor_y)
    wp = weights.w * pi
    d = b_miss.shape[1] + 1
    n0 = weights.n_missing
    s0bar = np.zeros((n0, d))
    s0bar[:, :-1] = -wp.sum(axis=1)[:, None] * b_miss
    s0bar[:, -1] = -(wp * y_d).sum(axis=1)
    z0bar = np.column_stack([b_miss, (weights.w * y_d).sum(axis=1)])
    return b_miss, y_d, pi, s0bar, z0bar


def variance_estimate(
    fit: FitResult, gamma_fit: RespondentFit, data: Dataset
) -> tuple[np.ndarray, SandwichParts]:
    """Covariance matrix of the fitted response parameters.

    Returns the symmetrized positive-semidefinite estimate together
    with the assembled parts (for reuse by the mean-functional
    variance).  Raises SingularInformationError when the bread or the
    respondent information cannot be inverted at condition 1e12.
    """
    phi = fit.phi_hat
    weights = fit.weights
    if weights.donor_y.ndim != 1:
        raise FitError(
            "variance estimation is defined for the donor weighting scheme; "
            "refit with engine='donor'"
        )
    n = data.n
    d = len(phi.alpha) + 1

    resp_cols = data.respondent_columns()
    z_resp = phi.design(resp_cols, data.y_observed)
    p_resp = expit(np.clip(z_resp @ phi.phi, -35.0, 35.0))
    s_resp = z_resp * (1.0 - p_resp)[:, None]  # delta = 1 scores

    gamma = gamma_fit.spec
    s1_resp = respondent_score_gamma(gamma, data.y_observed, resp_cols)
    q = s1_resp.shape[1]
    i11 = (s1_resp.T @ s1_resp) / n
    _check_cond(i11, "respondent information (I11)")

    if weights.n_missing == 0:
        # complete-data reduction: ordinary logistic sandwich
        bread = -(z_resp.T @ (z_resp * (p_resp * (1 - p_resp))[:, None])) / n
        _check_cond(bread, "score Jacobian (I22)")
        middle = (s_resp.T @ s_resp) / n
        parts = SandwichParts(
            bread, middle, i11, np.zeros((d, q)), s_resp, np.zeros((0, d)), s1_resp
        )
        return _assemble(bread, middle, n), parts

    b_miss, y_d, pi, s0bar, z0bar = _missing_pieces(phi, weights, data)
    bread = (s0bar.T @ z0bar) / n
    _check_cond(bread, "mean-score Jacobian (I22)")

    # coupling between the weights and the outcome-model parameters:
    # E = (1/n) sum_i sum_j w_ij (S_ij - s0bar_i) s1'(x_i, y_j)
    s1_outer = _score_gamma_outer(gamma, weights.donor_y, data.missing_columns())
    e_cross = np.zeros((d, q))
    w = weights.w
    for k in range(q):
        s1k = s1_outer[k]
        for ell in range(d - 1):
            s_ell = -pi * b_miss[:, ell][:, None]
            e_cross[ell, k] = float(
                np.sum(w * (s_ell - s0bar[:, ell][:, None]) * s1k)
            )
        s_y = -pi * y_d
        e_cross[d - 1, k] = float(np.sum(w * (s_y - s0bar[:, -1][:, None]) * s1k))
    e_cross /= n

    j_resp = s_resp + s1_resp @ np.linalg.solve(i11, e_cross.T)
    middle = (j_resp.T @ j_resp + s0bar.T @ s0bar) / n
    parts = SandwichParts(bread, middle, i11, e_cross, j_resp, s0bar, s1_resp)
    return _assemble(bread, middle, n), parts


def _assemble(bread: np.ndarray, middle: np.ndarray, n: int) -> np.ndarray:
    inv = np.linalg.inv(bread)
    sigma = inv @ middle @ inv.T / n
    sigma = 0.5 * (sigma + sigma.T)
    eigvals, eigvecs = np.linalg.eigh(sigma)
    if np.any(eigvals < -1e-8):
        raise FitError(
            f"covariance estimate has a negative eigenvalue {eigvals.min():.3g}"
        )
    eigvals = np.clip(eigvals, 0.0, None)
    return (eigvecs * eigvals) @ eigvecs.T


# ---------------------------------------------------------------------------
# variance of the outcome-mean functional
# ---------------------------------------------------------------------------


def _mu_y_with_base(phi: ResponseSpec, base: np.ndarray, data: Dataset) -> float:
    """Outcome mean with the density part of the weights precomputed."""
    y_d = data.y_observed
    w = _weights_from_base(phi.beta, y_d, base)
    return (float(np.sum(y_d)) + float(np.sum(w * y_d[None, :]))) / data.n


def _mu_y_grad_beta(weights: FractionalWeights, n: int) -> float:
    """Closed-form d mu/d beta = -(1/n) sum_i Var_{w_i}(y).

    Follows from ``dw_ij/dbeta = -w_ij (y_j - ybar_i)``; the donor values
    are centred first so that the two moments do not cancel.
    """
    y_c = weights.donor_y - np.mean(weights.donor_y)
    ybar_c = weights.w @ y_c
    return -float(np.sum(weights.w @ y_c**2 - ybar_c**2)) / n


def mu_y_variance(
    fit: FitResult,
    gamma_fit: RespondentFit,
    data: Dataset,
    parts: SandwichParts,
) -> float:
    """Delta-method variance of the estimated outcome mean.

    Builds the per-unit influence of the mean functional: its direct
    sampling term plus gradients through the response parameters and
    the outcome-model parameters, each propagated with the matching
    influence vectors from the sandwich assembly.  The gradient in the
    response parameters is closed form (zero in alpha, which the weights
    do not depend on); the gradient in the outcome-model parameters is
    central finite differences through the donor base.
    """
    gamma = gamma_fit.spec
    mu_hat = estimate_mu_y(fit, data)
    n = data.n
    d = fit.phi.size

    if fit.weights.n_missing == 0:
        resid = data.y_observed - mu_hat
        return float(np.sum(resid**2)) / n**2

    grad_phi = np.zeros(d)  # the weights, hence mu, do not depend on alpha
    grad_phi[-1] = _mu_y_grad_beta(fit.weights, n)

    theta = flatten_params(gamma)
    grad_gamma = np.zeros(theta.size)
    for j in range(theta.size):
        step = FD_STEP_MU * (1.0 + abs(theta[j]))
        up = unflatten_params(gamma, _bump(theta, j, step))
        dn = unflatten_params(gamma, _bump(theta, j, -step))
        grad_gamma[j] = (
            _mu_y_with_base(fit.phi_hat, _donor_log_base(up, data), data)
            - _mu_y_with_base(fit.phi_hat, _donor_log_base(dn, data), data)
        ) / (2 * step)

    bread_inv_g = np.linalg.solve(parts.bread.T, grad_phi)  # A^{-T} g
    i11_inv_b = np.linalg.solve(parts.i11, grad_gamma)

    eta = np.empty(n)
    mask = data.respondent_mask
    eta[mask] = data.y_observed
    eta[~mask] = (fit.weights.w * fit.weights.donor_matrix()).sum(axis=1)

    psi = eta - mu_hat
    # response-parameter influence: phi_hat - phi0 ~ -A^{-1} (mean of u_i)
    psi[mask] -= parts.j_resp @ bread_inv_g
    psi[~mask] -= parts.s0bar @ bread_inv_g
    # outcome-parameter influence: gamma_hat - gamma0 ~ I11^{-1} (mean of s1_i)
    psi[mask] += parts.s1_resp @ i11_inv_b
    return float(np.sum(psi**2)) / n**2


def _bump(vec: np.ndarray, j: int, step: float) -> np.ndarray:
    out = vec.copy()
    out[j] += step
    return out


def wald_interval(estimate: float, variance: float) -> tuple[float, float]:
    half = Z975 * math.sqrt(max(variance, 0.0))
    return estimate - half, estimate + half

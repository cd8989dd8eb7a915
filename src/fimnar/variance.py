"""Plug-in sandwich covariance for the fractional-imputation estimator.

The response parameters solve a weighted mean score equation whose
weights depend on the respondents' model, which is itself estimated,
so the asymptotic variance has three ingredients: the outer-product
"meat" of per-unit influence contributions, a bread matrix estimating
the mean-score Jacobian, and a correction projecting out the
first-stage estimation of the outcome model (the linearization of
Kim, 2011, Biometrika).

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
the outcome-model parameters gamma.  E and the gamma-gradient of the
outcome mean need only per-unit sums ``sum_j V_ij s1(x_i, y_j)`` over a
few weight matrices V: closed form from the row moments of V for
one-component normal and Bernoulli models, central differences otherwise.

Memory: besides the fit's stored weights ``w``, the variance holds only
per-unit vectors and the temporaries of one row block: the missing-unit
pieces are reduced block by block from ``fiem``'s donor kernel, and the
``d log C/d gamma`` term walks blocks of respondents with the ``log C``
that the fit kept.

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
    _donor_blocks,
    _donor_log_c,
    _respondent_propensity,
    _row_blocks,
    _take,
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


def _has_closed_form(gamma: OutcomeSpec) -> bool:
    return gamma.k == 1 and gamma.family in (Family.NORMAL, Family.BERNOULLI)


def _closed_form_sums(gamma: OutcomeSpec, columns, shift, m0, m1, m2) -> np.ndarray:
    """(units, q) sums ``sum_j V_rj s1(x_r, y_j)`` from the row moments of V.

    ``m0, m1, m2`` are ``sum_j V_rj (y_j - shift)^p``, p = 0, 1, 2, with one
    shift or one per unit; a shift near the y values avoids cancellation.
    """
    comp = gamma.components[0]
    design = comp.basis.design(columns)
    eta = design @ np.asarray(comp.coef)
    if gamma.family is Family.BERNOULLI:
        return design * (m1 - (expit(eta) - shift) * m0)[:, None]
    sigma2 = float(comp.dispersion)
    mu = eta - shift
    r1 = m1 - mu * m0  # sum_j V_rj (y_j - mu_r)
    r2 = m2 - mu * (m1 + r1)  # sum_j V_rj (y_j - mu_r)^2
    return np.column_stack(
        [design * (r1 / sigma2)[:, None], (r2 - sigma2 * m0) / (2.0 * sigma2**2)]
    )


def respondent_score_gamma(gamma: OutcomeSpec, y: np.ndarray, columns) -> np.ndarray:
    """Gradient of log f(y | x, respondent) in the outcome parameters.

    Returns an (n, q) array ordered like ``flatten_params``: the closed
    form of ``_score_sums`` with each unit its own single donor (moments
    1, 0, 0 about its own y) where there is one, else central differences.
    """
    y = np.asarray(y, dtype=float)
    if _has_closed_form(gamma):
        zero = np.zeros_like(y)
        return _closed_form_sums(gamma, columns, y, np.ones_like(y), zero, zero)
    return _score_gamma_fd(gamma, y, columns, outer=False)


def _fd_slices(gamma: OutcomeSpec, y, columns, evaluate):
    """Central differences of ``evaluate(spec, y, columns)``, parameter by parameter."""
    theta = flatten_params(gamma)
    for k in range(theta.size):
        bump = np.zeros_like(theta)
        bump[k] = FD_STEP_GAMMA * (1.0 + abs(theta[k]))
        yield (
            evaluate(unflatten_params(gamma, theta + bump), y, columns)
            - evaluate(unflatten_params(gamma, theta - bump), y, columns)
        ) / (2.0 * bump[k])


def _score_gamma_fd(gamma, y, columns, outer: bool) -> np.ndarray:
    """Finite-difference scores: (n, q), or (q, n, m) over every row and y value."""
    if outer:
        return np.stack(list(_fd_slices(gamma, y, columns, log_density_outer)))
    return np.column_stack(list(_fd_slices(gamma, y, columns, log_density)))


def _score_sums(gamma: OutcomeSpec, y_donors: np.ndarray, columns, weights):
    """Per-unit sums ``sum_j V_rj s1(x_r, y_j)``, (units, q), for each V in ``weights``.

    Closed form from the row moments of V where there is one; otherwise
    each parameter's central-difference slice of ``log_density_outer`` is
    reduced against every V, so no (q, units, donors) tensor is held.
    """
    if _has_closed_form(gamma):
        shift = float(np.mean(y_donors))
        y_c = y_donors - shift
        return [
            _closed_form_sums(gamma, columns, shift, v.sum(axis=1), v @ y_c, v @ y_c**2)
            for v in weights
        ]
    q = flatten_params(gamma).size
    sums = [np.empty((v.shape[0], q)) for v in weights]
    slices = _fd_slices(gamma, y_donors, columns, log_density_outer)
    for k, slice_k in enumerate(slices):
        for out, v in zip(sums, weights):
            out[:, k] = np.einsum("ij,ij->i", v, slice_k)
    return sums


# ---------------------------------------------------------------------------
# sandwich assembly
# ---------------------------------------------------------------------------


def _missing_pieces(
    phi: ResponseSpec, gamma: OutcomeSpec, weights: FractionalWeights, data: Dataset
):
    """Missing-unit designs, mean scores, mean design vectors, and score sums.

    ``s0bar``, ``z0bar`` and the ``_score_sums`` of (w, w pi, w pi y) are
    reduced block by block from the donor kernel.
    """
    miss_cols = data.missing_columns()
    b_miss = phi.h_basis.design(miss_cols)
    y_d = weights.donor_y
    n0, d, q = b_miss.shape[0], b_miss.shape[1] + 1, flatten_params(gamma).size
    s0bar, z0bar = np.empty((n0, d)), np.empty((n0, d))
    sums = [np.empty((n0, q)) for _ in range(3)]
    for rows, _, w, pi in _donor_blocks(phi, b_miss, y_d, weights.w):
        wp = np.multiply(w, pi, out=pi)
        s0bar[rows, :-1] = -wp.sum(axis=1)[:, None] * b_miss[rows]
        s0bar[rows, -1] = -(wp @ y_d)
        z0bar[rows, :-1] = b_miss[rows]
        z0bar[rows, -1] = w @ y_d
        block = _score_sums(gamma, y_d, _take(miss_cols, rows), (w, wp, wp * y_d))
        for out, r in zip(sums, block):
            out[rows] = r
    return b_miss, s0bar, z0bar, sums


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
    p_resp = _respondent_propensity(phi, z_resp)
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

    b_miss, s0bar, z0bar, (r_w, r_wp, r_wpy) = _missing_pieces(
        phi, gamma, weights, data
    )
    bread = (s0bar.T @ z0bar) / n
    _check_cond(bread, "mean-score Jacobian (I22)")

    # S_ij = -pi_ij (b_i, y_j), so n E = -(b' R[w pi] ; 1' R[w pi y]) - s0bar' R[w]
    e_cross = -(np.vstack([b_miss.T @ r_wp, r_wpy.sum(axis=0)]) + s0bar.T @ r_w) / n

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


def _mu_y_grad_beta(weights: FractionalWeights, n: int) -> float:
    """Closed-form d mu/d beta = -(1/n) sum_i Var_{w_i}(y).

    Follows from ``dw_ij/dbeta = -w_ij (y_j - ybar_i)``; the donor values
    are centred first so that the two moments do not cancel.
    """
    y_c = weights.donor_y - np.mean(weights.donor_y)
    ybar_c = weights.w @ y_c
    return -float(np.sum(weights.w @ y_c**2 - ybar_c**2)) / n


def _mu_y_grad_gamma(gamma: OutcomeSpec, weights: FractionalWeights, data: Dataset):
    """d mu/d gamma through the weights' ``log f(y_j | x_i) - log C(y_j)``:

        n d mu/d gamma = sum_ij w_ij (y_j - ybar_i) s1(x_i, y_j)
                         - sum_j c_j sum_l P(l | y_j) s1(x_l, y_j)

    with ``c_j = sum_i w_ij (y_j - ybar_i)`` and, over respondents l,
    ``P(l | y_j) = f(y_j | x_l) / C(y_j)``, so that the last sum is
    ``d log C(y_j)/d gamma``.  The first sum runs over blocks of missing
    units, the second over blocks of respondents, with ``log C`` from the
    weights when the fit kept it.
    """
    y_d = weights.donor_y
    miss_cols = data.missing_columns()
    c, local = np.zeros(y_d.size), 0.0
    for rows in _row_blocks(weights.n_missing, y_d.size):
        w = weights.w[rows]
        v = np.subtract(y_d[None, :], (w @ y_d)[:, None])
        v *= w
        c += v.sum(axis=0)
        local += _score_sums(gamma, y_d, _take(miss_cols, rows), (v,))[0].sum(axis=0)
    log_c = weights.log_c if weights.log_c is not None else _donor_log_c(gamma, data)
    resp_cols = data.respondent_columns()
    via_c = 0.0
    for rows in _row_blocks(y_d.size, y_d.size):
        block = _take(resp_cols, rows)
        # c_j P(l | y_j), built in the buffer of the block's log densities
        p = log_density_outer(gamma, y_d, block)
        p -= log_c
        np.exp(p, out=p)
        p *= c
        via_c += _score_sums(gamma, y_d, block, (p,))[0].sum(axis=0)
    return (local - via_c) / data.n


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
    influence vectors from the sandwich assembly.  Both gradients are
    closed form (zero in alpha, which the weights do not depend on); the
    one in gamma is a weighted sum of outcome-model scores, which are
    finite differences only for models without a closed-form score.
    """
    mu_hat = estimate_mu_y(fit, data)
    n = data.n

    if fit.weights.n_missing == 0:
        resid = data.y_observed - mu_hat
        return float(np.sum(resid**2)) / n**2

    grad_phi = np.zeros(fit.phi.size)  # the weights do not depend on alpha
    grad_phi[-1] = _mu_y_grad_beta(fit.weights, n)
    grad_gamma = _mu_y_grad_gamma(gamma_fit.spec, fit.weights, data)

    bread_inv_g = np.linalg.solve(parts.bread.T, grad_phi)  # A^{-T} g
    i11_inv_b = np.linalg.solve(parts.i11, grad_gamma)

    eta = np.empty(n)
    mask = data.respondent_mask
    eta[mask] = data.y_observed
    eta[~mask] = fit.weights.w @ fit.weights.donor_y

    psi = eta - mu_hat
    # response-parameter influence: phi_hat - phi0 ~ -A^{-1} (mean of u_i)
    psi[mask] -= parts.j_resp @ bread_inv_g
    psi[~mask] -= parts.s0bar @ bread_inv_g
    # outcome-parameter influence: gamma_hat - gamma0 ~ I11^{-1} (mean of s1_i)
    psi[mask] += parts.s1_resp @ i11_inv_b
    return float(np.sum(psi**2)) / n**2


def wald_interval(estimate: float, variance: float) -> tuple[float, float]:
    half = Z975 * math.sqrt(max(variance, 0.0))
    return estimate - half, estimate + half

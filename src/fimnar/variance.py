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
few weight matrices V, all in closed form, from the row moments of ``V
r_k`` against (1, y, y^2, log y), where ``r_k`` is component k's
responsibility (one for one-component models): a normal mixture weights
each component's complete-data score by its responsibility (Louis, 1982),
so its score sums follow from the same moments per component.

Memory: the variance holds only per-unit vectors and the temporaries of
one row block.  The missing-unit pieces of both variances come from the
weights' ``fiem._KernelSums``: each unit's moments of ``w`` and of ``w
pi`` against one centred power matrix (``fiem._centred_powers``), for a
mixture also those of ``w r_k`` and ``w r_k pi`` per component, from
which the moments of every weight matrix V follow (``(y - mu_ki)^p``
expanded about the matrix's shift), and the per-value ``c_j``.
``em_fit`` keeps the sums its solve reduced at the root, so a fit's
variances walk no missing-unit x value grid, and ``_component_sums``
runs once over all units.  Weights whose sums were reduced at other
parameters, or lack ``c``, are walked once at the fitted parameters by
``fiem._reduce``, the solver's own reduction (``fiem._kept_sums``).  The
``d log C/d gamma`` term is a smooth function of y alone, ``B(y)
phi(y)`` (``_grad_log_c``): per block of points of the walk that also
gives ``log C`` (``fiem._respondent_blocks``), a softmax over the K*n1
factored respondent rows and one matmul with their score coefficients,
taken at the values exactly, or on at least ``4 * fiem.CHEB_POINTS``
values from Chebyshev points in y through ``fiem._smooth_in_y``.

When the data contain no missing units the weighted terms vanish and
the bread degenerates; the estimator then reduces to the ordinary
logistic-regression sandwich, which is returned directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataio import Dataset
from .expfam import Family, OutcomeSpec, log_density_factors
from .fiem import (
    FitResult,
    FractionalWeights,
    _centred_powers,
    _kept_sums,
    _respondent_blocks,
    _respondent_factors,
    _smooth_in_y,
    estimate_mu_y,
)
from .respondent import FitError, RespondentFit, digamma
from .response import ResponseSpec, propensity_from_log_odds

__all__ = [
    "SandwichParts",
    "SingularInformationError",
    "variance_estimate",
    "mu_y_variance",
    "respondent_score_gamma",
    "wald_interval",
]

COND_LIMIT = 1e12
GRAD_LOG_C_TOL = 1e-9  # relative to each column's largest magnitude, at the next level's points
Z975 = 1.959963984540054


class SingularInformationError(FitError):
    """A bread or information matrix is numerically singular."""


@dataclass
class SandwichParts:
    bread: np.ndarray  # mean-score Jacobian estimate, (d, d)
    i11: np.ndarray  # respondent information in gamma, (q, q)
    e_cross: np.ndarray  # weight-vs-gamma coupling, (d, q)
    j_resp: np.ndarray  # respondent influence vectors, (n1, d)
    s0bar: np.ndarray  # missing-unit mean scores, (n0, d)
    s1_resp: np.ndarray  # respondent outcome-model scores, (n1, q)
    # with V_ij = w_ij (y_j - ybar_i), for the outcome mean's gradient in gamma:
    c_values: np.ndarray  # c_j = sum_i V_ij at each weight value, (values,)
    v_score: np.ndarray  # sum_ij V_ij s1(x_i, y_j), (q,)


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


def _moment_columns(gamma: OutcomeSpec):
    """``(logs, lo, hi)``: what a reduction over ``fiem._centred_powers`` needs for ``gamma``.

    ``logs`` asks for the gamma family's log columns.  Of ``m = V @
    powers``, ``m[:, lo]`` are the moments that ``_one_component_sums``
    reads, and ``m[:, hi] - t m[:, lo]`` are those of ``V (y_c - t)`` for
    a per-unit ``t``.
    """
    logs = gamma.family is Family.GAMMA
    if logs:
        return logs, [0, 1, 2, 4], [1, 2, 3, 5]
    return logs, [0, 1, 2], [1, 2, 3]


def _one_component_sums(gamma: OutcomeSpec, columns, shift, m):
    """(units, q) sums ``sum_j V_rj s1(x_r, y_j)`` from the row moments of V.

    ``m[:, p]`` is ``sum_j V_rj (y_j - shift)^p``, p = 0, 1, 2, with one
    shift or one per unit; a shift near the y values avoids cancellation.
    ``m[:, 3]``, read by the gamma family only, is ``sum_j V_rj log y_j``.
    """
    m0, m1, m2 = m[:, 0], m[:, 1], m[:, 2]
    comp = gamma.components[0]
    design = comp.basis.design(columns)
    eta = design @ np.asarray(comp.coef)
    if gamma.family in (Family.BERNOULLI, Family.POISSON):
        bernoulli = gamma.family is Family.BERNOULLI
        mean = propensity_from_log_odds(-eta) if bernoulli else np.exp(eta)
        return design * (m1 - (mean - shift) * m0)[:, None]
    if gamma.family is Family.GAMMA:
        shape = float(comp.dispersion)
        ratio = np.exp(-eta) * (m1 + shift * m0)  # sum_j V_rj y_j / mu_r
        return np.column_stack(
            [
                design * (shape * (ratio - m0))[:, None],
                (math.log(shape) + 1.0 - digamma(shape) - eta) * m0 + m[:, 3] - ratio,
            ]
        )
    sigma2 = float(comp.dispersion)
    mu = eta - shift
    r1 = m1 - mu * m0  # sum_j V_rj (y_j - mu_r)
    r2 = m2 - mu * (m1 + r1)  # sum_j V_rj (y_j - mu_r)^2
    return np.column_stack(
        [design * (r1 / sigma2)[:, None], (r2 - sigma2 * m0) / (2.0 * sigma2**2)]
    )


def _component_sums(gamma: OutcomeSpec, columns, shift, m):
    """(units, q) sums ``sum_j V_rj s1(x_r, y_j)`` from each component's row moments.

    ``m[k]`` holds the moments that ``_one_component_sums`` reads, of
    ``V r_k`` for component k's responsibility ``r_k`` (one for one
    component), so ``m`` is (K, units, moments).  A normal mixture's
    observed score is the complete-data score weighted by the
    responsibilities (Louis, 1982): per component the normal coefficient
    and variance scores of ``_one_component_sums``, and the weight scores
    ``A_k / pi_k - A_K / pi_K`` from the moments 0, ``A_k = sum_j V_rj
    r_k``.
    """
    if gamma.k == 1:
        return _one_component_sums(gamma, columns, shift, m[0])
    pis = gamma.weights
    per = [
        _one_component_sums(OutcomeSpec(Family.NORMAL, (comp,)), columns, shift, m_k)
        for comp, m_k in zip(gamma.components, m)
    ]
    mix = [m[k][:, :1] / pis[k] - m[-1][:, :1] / pis[-1] for k in range(gamma.k - 1)]
    return np.hstack([p[:, :-1] for p in per] + [p[:, -1:] for p in per] + mix)


def _factor_responsibilities(gamma: OutcomeSpec, y: np.ndarray, columns):
    """Each component's responsibility ``pi_k f_k / f`` of a mixture at ``y[r]`` under unit
    r's model, (K, units), from ``log_density_factors``."""
    slope, offset, log_c = log_density_factors(gamma, y, columns)
    log_p = slope * y + offset + log_c
    log_p -= log_p.max(axis=0)
    np.exp(log_p, out=log_p)
    log_p /= log_p.sum(axis=0)
    return log_p


def respondent_score_gamma(gamma: OutcomeSpec, y: np.ndarray, columns) -> np.ndarray:
    """Gradient of log f(y | x, respondent) in the outcome parameters.

    Returns an (n, q) array ordered like ``flatten_params``: the closed
    form ``_component_sums`` with each unit its own single donor (moments
    ``r_k``, 0, 0 about its own y, for the responsibilities ``r_k``, which
    are one for one component).
    """
    y = np.asarray(y, dtype=float)
    if gamma.k > 1:
        r = _factor_responsibilities(gamma, y, columns)
    else:
        r = np.ones((1, y.size))
    moments = [r, np.zeros_like(r), np.zeros_like(r)]
    if gamma.family is Family.GAMMA:
        moments.append(np.log(y)[None])
    return _component_sums(gamma, columns, y, np.stack(moments, axis=-1))


# ---------------------------------------------------------------------------
# sandwich assembly
# ---------------------------------------------------------------------------


def _missing_pieces(
    phi: ResponseSpec, gamma: OutcomeSpec, weights: FractionalWeights, data: Dataset
):
    """Missing-unit designs, mean scores, mean design vectors, score sums, and V's sums.

    From the weights' ``_KernelSums``: each unit's moments of ``w`` and
    of ``w pi`` against ``fiem._centred_powers`` (for a mixture, of ``w
    r_k`` and ``w r_k pi`` per component k too) give ``s0bar``, the
    per-unit score sums ``sum_j V_ij s1(x_i, y_j)`` of V = w, w pi and w
    pi y, and for ``V_ij = w_ij (y_j - ybar_i)`` the sum ``sum_ij V_ij
    s1(x_i, y_j)``; the per-value ``c_j = sum_i V_ij`` came with them,
    and ``z0bar`` ends in ``ybar``.  With ``y_c = y - shift`` and ``t =
    ybar - shift``, the moments of ``w pi y`` are those of ``w pi (y_c +
    shift)`` and the moments of ``V`` those of ``w (y_c - t)``.  Where the
    sums were reduced at other parameters or lack ``c``, a walk of their
    own at ``phi`` reduces them (``fiem._kept_sums``).
    """
    miss_cols = data.missing_columns()
    b_miss = phi.h_basis.design(miss_cols)
    sums = weights.sums
    if sums.c is None or not np.array_equal(sums.phi, phi.phi):
        sums = _kept_sums(phi, weights.kernel, gamma, data)
    _, lo, hi = _moment_columns(gamma)
    # per component k, the moments of w r_k and w r_k pi
    w_k, wp_k = (sums.w[None], sums.wp[None]) if sums.parts is None else sums.parts
    shift, t = sums.shift, sums.w[:, 1:2]
    moments = (
        w_k[..., lo],
        wp_k[..., lo],
        wp_k[..., hi] + shift * wp_k[..., lo],  # w pi (y_c + shift)
        w_k[..., hi] - t * w_k[..., lo],  # w (y_c - t)
    )
    r = [_component_sums(gamma, miss_cols, shift, m) for m in moments]
    m_wp = sums.wp
    s0bar = -np.column_stack([m_wp[:, :1] * b_miss, m_wp[:, 1] + shift * m_wp[:, 0]])
    *r, r_v = r
    return b_miss, s0bar, np.column_stack([b_miss, weights.ybar]), r, sums.c, r_v.sum(axis=0)


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
    if weights.values.ndim != 1:
        raise FitError(
            "variance estimation is defined for the donor weighting scheme; "
            "refit with engine='donor'"
        )
    n = data.n
    d = len(phi.alpha) + 1

    resp_cols = data.respondent_columns()
    z_resp = phi.design(resp_cols, data.y_observed)
    p_resp = propensity_from_log_odds(z_resp @ -phi.phi)
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
            bread, i11, np.zeros((d, q)), s_resp, np.zeros((0, d)), s1_resp,
            np.zeros(weights.values.shape[-1]), np.zeros(q),
        )
        return _assemble(bread, middle, n), parts

    b_miss, s0bar, z0bar, (r_w, r_wp, r_wpy), c, v_score = _missing_pieces(
        phi, gamma, weights, data
    )
    bread = (s0bar.T @ z0bar) / n
    _check_cond(bread, "mean-score Jacobian (I22)")

    # S_ij = -pi_ij (b_i, y_j), so n E = -(b' R[w pi] ; 1' R[w pi y]) - s0bar' R[w]
    e_cross = -(np.vstack([b_miss.T @ r_wp, r_wpy.sum(axis=0)]) + s0bar.T @ r_w) / n

    j_resp = s_resp + s1_resp @ np.linalg.solve(i11, e_cross.T)
    middle = (j_resp.T @ j_resp + s0bar.T @ s0bar) / n
    parts = SandwichParts(bread, i11, e_cross, j_resp, s0bar, s1_resp, c, v_score)
    return _assemble(bread, middle, n), parts


def _assemble(bread: np.ndarray, middle: np.ndarray, n: int) -> np.ndarray:
    inv = np.linalg.inv(bread)
    sigma = inv @ middle @ inv.T / n
    sigma = 0.5 * (sigma + sigma.T)
    eigvals, eigvecs = np.linalg.eigh(sigma)
    # rounding leaves eigenvalues near zero of either sign, in proportion
    # to the matrix's scale
    if np.any(eigvals < -1e-8 * max(1.0, float(eigvals.max()))):
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

    Follows from ``dw_ij/dbeta = -w_ij (y_j - ybar_i)``, with each unit's
    variance the ``spread`` that came with the weights.
    """
    return -float(np.sum(weights.spread)) / n


def _grad_log_c(gamma: OutcomeSpec, y_u: np.ndarray, data: Dataset):
    """``d log C(y)/d gamma`` as a function of the points ``t``.

    Over the K*n1 respondent rows (k, l) of ``fiem._respondent_blocks``,
    ``d log C(y)/d gamma = sum_(k,l) P(k, l | y) s1_k(x_l, y)`` with
    ``P(k, l | y) = pi_k f_k(y | x_l) / C(y)`` and ``s1_k`` component k's
    complete-data score (Louis, 1982; the score itself for one
    component).  ``s1_k(x_l, y) = A_kl phi(y)``, where ``phi(y)`` are the
    ``_centred_powers`` columns ``lo`` about the values' mean and ``A_kl``
    is ``_component_sums`` on unit moments of component k (it is linear
    in them), so ``d log C(y)/d gamma = B(y) phi(y)`` with ``B(y) =
    sum_(k,l) P(k, l | y) A_kl``.  Per block of points, ``P(. | t)`` is
    the walk's softmax (``log c_0`` cancels), so ``B`` is one matmul with
    ``A``.  The support is checked once, on ``y_u``.
    """
    resp_cols, n1 = data.respondent_columns(), data.n_respondents
    logs, lo, _ = _moment_columns(gamma)
    shift = float(np.mean(y_u))
    factors, _ = _respondent_factors(gamma, y_u, resp_cols)

    def unit(k, p):
        m = np.zeros((gamma.k, n1, len(lo)))
        m[k, :, p] = 1.0
        return m

    a = np.vstack([
        np.hstack([_component_sums(gamma, resp_cols, shift, unit(k, p)) for p in range(len(lo))])
        for k in range(gamma.k)
    ])
    q = a.shape[1] // len(lo)

    def at(t: np.ndarray) -> np.ndarray:
        phi = _centred_powers(t, logs, shift)[1][:, lo]
        out = np.empty((t.size, q))
        for rows, p, _ in _respondent_blocks(gamma, factors, t):
            b = (p @ a) / p.sum(axis=1, keepdims=True)
            out[rows] = np.einsum("rkq,rk->rq", b.reshape(-1, len(lo), q), phi[rows])
        return out

    return at


def _mu_y_grad_gamma(
    gamma: OutcomeSpec, weights: FractionalWeights, data: Dataset, parts: SandwichParts
):
    """d mu/d gamma through the weights' ``log f(y_j | x_i) - log C(y_j)``:

        n d mu/d gamma = sum_ij w_ij (y_j - ybar_i) s1(x_i, y_j)
                         - sum_j c_j sum_l P(l | y_j) s1(x_l, y_j)

    with ``c_j = sum_i w_ij (y_j - ybar_i)`` and, over respondents l,
    ``P(l | y_j) = f(y_j | x_l) / C(y_j)``, so that the last sum is
    ``d log C(y_j)/d gamma``.  Both sums run over the weights' values
    (donors sharing a value pool their ``c_j``).  The first sum and ``c``
    came with ``parts`` from the sandwich's missing-unit pieces.
    ``d log C/d gamma`` is a smooth function of y alone (``_grad_log_c``),
    taken at the values through ``fiem._smooth_in_y``.
    """
    y_u, c = weights.values, parts.c_values
    via_c = c @ _smooth_in_y(_grad_log_c(gamma, y_u, data), y_u, 0.0, GRAD_LOG_C_TOL)
    return (parts.v_score - via_c) / data.n


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
    one in gamma is a weighted sum of outcome-model scores, closed form
    for every family and for normal mixtures.
    """
    mu_hat = estimate_mu_y(fit, data)
    n = data.n

    if fit.weights.n_missing == 0:
        resid = data.y_observed - mu_hat
        return float(np.sum(resid**2)) / n**2

    grad_phi = np.zeros(fit.phi.size)  # the weights do not depend on alpha
    grad_phi[-1] = _mu_y_grad_beta(fit.weights, n)
    grad_gamma = _mu_y_grad_gamma(gamma_fit.spec, fit.weights, data, parts)

    bread_inv_g = np.linalg.solve(parts.bread.T, grad_phi)  # A^{-T} g
    i11_inv_b = np.linalg.solve(parts.i11, grad_gamma)

    eta = np.empty(n)
    mask = data.respondent_mask
    eta[mask] = data.y_observed
    eta[~mask] = fit.weights.ybar

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

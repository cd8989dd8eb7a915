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
few weight matrices V, all in closed form: from the row moments of V
against (1, y, y^2, log y) for one-component models, and for a normal
mixture from one pass over its component densities that weights the
complete-data score by the responsibilities (Louis, 1982).

Memory: the variance holds only per-unit vectors and the temporaries of
one row block.  The missing-unit pieces are reduced block by block from
``fiem``'s donor kernel, which rebuilds each block's weights from the
fit's factors, over the donors' unique values; the weighted donor mean
and spread of each unit come with the fit's weights.  The
``d log C/d gamma`` term walks blocks of respondents with the ``log C``
that the fit kept, from the same factors for one component, and from
the one pass over its component densities that also gives the
responsibilities for a mixture.

When the data contain no missing units the weighted terms vanish and
the bread degenerates; the estimator then reduces to the ordinary
logistic-regression sandwich, which is returned directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, expit

from .dataio import Dataset
from .expfam import (
    Family,
    OutcomeSpec,
    _logsumexp0,
    flatten_params,
    log_density,
    log_density_outer,
    unflatten_params,
)
from .fiem import (
    FitResult,
    FractionalWeights,
    _donor_blocks,
    _log_c_at,
    _log_density_blocks,
    _row_blocks,
    _take,
    estimate_mu_y,
)
from .respondent import FitError, RespondentFit
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
FD_STEP_GAMMA = 1e-4  # relative step of the finite-difference score check
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


def _one_component_sums(gamma: OutcomeSpec, columns, shift, m0, m1, m2, m_log):
    """(units, q) sums ``sum_j V_rj s1(x_r, y_j)`` from the row moments of V.

    ``m0, m1, m2`` are ``sum_j V_rj (y_j - shift)^p``, p = 0, 1, 2, with one
    shift or one per unit; a shift near the y values avoids cancellation.
    ``m_log`` is ``sum_j V_rj log y_j``, read by the gamma family only.
    """
    comp = gamma.components[0]
    design = comp.basis.design(columns)
    eta = design @ np.asarray(comp.coef)
    if gamma.family in (Family.BERNOULLI, Family.POISSON):
        mean = expit(eta) if gamma.family is Family.BERNOULLI else np.exp(eta)
        return design * (m1 - (mean - shift) * m0)[:, None]
    if gamma.family is Family.GAMMA:
        shape = float(comp.dispersion)
        ratio = np.exp(-eta) * (m1 + shift * m0)  # sum_j V_rj y_j / mu_r
        return np.column_stack(
            [
                design * (shape * (ratio - m0))[:, None],
                (math.log(shape) + 1.0 - digamma(shape) - eta) * m0 + m_log - ratio,
            ]
        )
    sigma2 = float(comp.dispersion)
    mu = eta - shift
    r1 = m1 - mu * m0  # sum_j V_rj (y_j - mu_r)
    r2 = m2 - mu * (m1 + r1)  # sum_j V_rj (y_j - mu_r)^2
    return np.column_stack(
        [design * (r1 / sigma2)[:, None], (r2 - sigma2 * m0) / (2.0 * sigma2**2)]
    )


def _responsibilities(gamma: OutcomeSpec, y, columns):
    """One pass over a normal mixture's K component densities at ``y``.

    ``y`` broadcasts to (units, donors).  Returns the log density
    ``log f = logsumexp_k(log pi_k + log f_k)`` and the pieces that
    ``_mixture_sums`` reads: per component the design, the variance, the
    residuals ``y - mu_k`` and the responsibilities ``r_k``.
    """
    comps, pis = gamma.components, gamma.weights
    designs = [c.basis.design(columns) for c in comps]
    sigma2 = [float(c.dispersion) for c in comps]
    resid = [y - (d @ np.asarray(c.coef))[:, None] for d, c in zip(designs, comps)]
    logp = np.stack(
        [
            math.log(pi) - 0.5 * (math.log(2.0 * math.pi * s2) + r**2 / s2)
            for pi, s2, r in zip(pis, sigma2, resid)
        ]
    )
    log_f = _logsumexp0(logp)
    logp -= log_f
    return log_f, (designs, sigma2, resid, np.exp(logp, out=logp))


def _mixture_sums(gamma: OutcomeSpec, pieces, weights):
    """``_score_sums`` of a normal mixture from its ``_responsibilities`` pieces.

    The observed score is the complete-data score weighted by the
    responsibilities r_k (Louis, 1982), so one pass over the K component
    densities gives, per V, ``A_k^p = sum_j V_rj r_k (y_j - mu_rk)^p`` and
    from them the coefficient scores ``x_k A_k^1 / sigma2_k``, the variance
    scores ``(A_k^2 - sigma2_k A_k^0) / (2 sigma2_k^2)`` and the weight
    scores ``A_k^0 / pi_k - A_K^0 / pi_K``.
    """
    designs, sigma2, resid, resp = pieces
    pis = gamma.weights
    out = []
    for v in weights:
        a = np.empty((3, gamma.k, v.shape[0]))  # A_k^p
        for k, r in enumerate(resid):
            rv = resp[k] * v
            for p in range(3):
                a[p, k] = rv.sum(axis=1)
                rv *= r
        coef = [d * (a[1, k] / s2)[:, None] for k, (d, s2) in enumerate(zip(designs, sigma2))]
        disp = [(a[2, k] - s2 * a[0, k]) / (2.0 * s2**2) for k, s2 in enumerate(sigma2)]
        mix = [a[0, k] / pis[k] - a[0, -1] / pis[-1] for k in range(gamma.k - 1)]
        out.append(np.column_stack(coef + disp + mix))
    return out


def respondent_score_gamma(gamma: OutcomeSpec, y: np.ndarray, columns) -> np.ndarray:
    """Gradient of log f(y | x, respondent) in the outcome parameters.

    Returns an (n, q) array ordered like ``flatten_params``: the closed
    form of ``_score_sums`` with each unit its own single donor (for one
    component, moments 1, 0, 0 about its own y).
    """
    y = np.asarray(y, dtype=float)
    ones = np.ones_like(y)
    if gamma.k > 1:
        pieces = _responsibilities(gamma, y[:, None], columns)[1]
        return _mixture_sums(gamma, pieces, (ones[:, None],))[0]
    zero = np.zeros_like(y)
    m_log = np.log(y) if gamma.family is Family.GAMMA else None
    return _one_component_sums(gamma, columns, y, ones, zero, zero, m_log)


def _score_gamma_fd(gamma, y, columns, outer: bool) -> np.ndarray:
    """Finite-difference scores: (n, q), or (q, n, m) over every row and y value.

    The independent check of the closed forms; no estimate uses it.  The
    five-point stencil is fourth order, so its error (about 2e-13
    relative on an s3 sandwich) sits below the closed forms' comparisons.
    """
    evaluate = log_density_outer if outer else log_density
    theta = flatten_params(gamma)
    slices = []
    for k in range(theta.size):
        step = FD_STEP_GAMMA * (1.0 + abs(theta[k]))

        def at(m):
            bumped = theta.copy()
            bumped[k] += m * step
            return evaluate(unflatten_params(gamma, bumped), y, columns)

        slices.append((8.0 * (at(1) - at(-1)) - (at(2) - at(-2))) / (12.0 * step))
    return np.stack(slices) if outer else np.column_stack(slices)


def _score_sums(gamma: OutcomeSpec, y_donors: np.ndarray, columns, weights):
    """Per-unit sums ``sum_j V_rj s1(x_r, y_j)``, (units, q), for each V in ``weights``.

    Closed form for every family: from the row moments of V against
    (1, y, y^2, log y) for one component, from one responsibility pass
    per call for a mixture.  No (q, units, donors) tensor is held.
    ``gamma`` is a respondents' model, so it carries no tilt.
    """
    if gamma.k > 1:
        pieces = _responsibilities(gamma, y_donors[None, :], columns)[1]
        return _mixture_sums(gamma, pieces, weights)
    shift = float(np.mean(y_donors))
    y_c = y_donors - shift
    log_y = np.log(y_donors) if gamma.family is Family.GAMMA else None
    return [
        _one_component_sums(
            gamma, columns, shift, v.sum(axis=1), v @ y_c, v @ y_c**2,
            None if log_y is None else v @ log_y,
        )
        for v in weights
    ]


# ---------------------------------------------------------------------------
# sandwich assembly
# ---------------------------------------------------------------------------


def _missing_pieces(
    phi: ResponseSpec, gamma: OutcomeSpec, weights: FractionalWeights, data: Dataset
):
    """Missing-unit designs, mean scores, mean design vectors, and score sums.

    ``s0bar`` and the ``_score_sums`` of (w, w pi, w pi y) are reduced
    block by block from the donor kernel; ``z0bar`` ends in ``ybar``.
    """
    miss_cols = data.missing_columns()
    b_miss = phi.h_basis.design(miss_cols)
    y_u = weights.values
    n0, d, q = b_miss.shape[0], b_miss.shape[1] + 1, flatten_params(gamma).size
    s0bar = np.empty((n0, d))
    sums = [np.empty((n0, q)) for _ in range(3)]
    for rows, _, w, pi in _donor_blocks(phi, b_miss, y_u, weights.kernel):
        wp = np.multiply(w, pi, out=pi)
        s0bar[rows, :-1] = -wp.sum(axis=1)[:, None] * b_miss[rows]
        s0bar[rows, -1] = -(wp @ y_u)
        block = _score_sums(gamma, y_u, _take(miss_cols, rows), (w, wp, wp * y_u))
        for out, r in zip(sums, block):
            out[rows] = r
    return b_miss, s0bar, np.column_stack([b_miss, weights.ybar]), sums


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

    Follows from ``dw_ij/dbeta = -w_ij (y_j - ybar_i)``, with each unit's
    variance the ``spread`` that came with the weights.
    """
    return -float(np.sum(weights.spread)) / n


def _mu_y_grad_gamma(gamma: OutcomeSpec, weights: FractionalWeights, data: Dataset):
    """d mu/d gamma through the weights' ``log f(y_j | x_i) - log C(y_j)``:

        n d mu/d gamma = sum_ij w_ij (y_j - ybar_i) s1(x_i, y_j)
                         - sum_j c_j sum_l P(l | y_j) s1(x_l, y_j)

    with ``c_j = sum_i w_ij (y_j - ybar_i)`` and, over respondents l,
    ``P(l | y_j) = f(y_j | x_l) / C(y_j)``, so that the last sum is
    ``d log C(y_j)/d gamma``.  Both sums run over the weights' values
    (donors sharing a value pool their ``c_j``); the first over blocks of
    missing units, the second over blocks of respondents, with ``log C``
    from the weights when the fit kept it.
    """
    y_u = weights.values
    miss_cols = data.missing_columns()
    c, local = np.zeros(y_u.size), 0.0
    for rows in _row_blocks(weights.n_missing, y_u.size):
        v = np.subtract(y_u[None, :], weights.ybar[rows, None])
        v *= weights.kernel[rows]
        c += v.sum(axis=0)
        local += _score_sums(gamma, y_u, _take(miss_cols, rows), (v,))[0].sum(axis=0)
    if weights.log_c is None:
        log_c = _log_c_at(gamma, y_u, data)
    else:  # donors that share a value share its log C
        log_c = np.empty(y_u.size)
        log_c[slice(None) if weights.inverse is None else weights.inverse] = weights.log_c
    resp_cols = data.respondent_columns()
    via_c = 0.0
    if gamma.k > 1:
        # c_j P(l | y_j) from the log density of the responsibility pass
        for rows in _row_blocks(data.n_respondents, y_u.size):
            log_f, pieces = _responsibilities(gamma, y_u[None, :], _take(resp_cols, rows))
            p = np.exp(np.subtract(log_f, log_c, out=log_f), out=log_f)
            p *= c
            via_c += _mixture_sums(gamma, pieces, (p,))[0].sum(axis=0)
            del log_f, pieces, p  # else they live on while the next block is built
    else:
        for rows, p in _log_density_blocks(gamma, y_u, resp_cols, data.n_respondents):
            # c_j P(l | y_j), built in the buffer of the block's log densities
            p -= log_c
            np.exp(p, out=p)
            p *= c
            via_c += _score_sums(gamma, y_u, _take(resp_cols, rows), (p,))[0].sum(axis=0)
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
    grad_gamma = _mu_y_grad_gamma(gamma_fit.spec, fit.weights, data)

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

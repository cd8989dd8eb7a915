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
one row block.  The missing-unit pieces of both variances come from the
weights' ``fiem._KernelSums``: each unit's moments of ``w`` and of ``w
pi`` against one centred power matrix (``fiem._centred_powers``), from
which the moments of every weight matrix V follow, and the per-value
``c_j``.  ``em_fit`` keeps the sums its solve reduced at the root, so a
one-component fit's variances walk no missing-unit x value grid, and
``_one_component_sums`` runs once over all units.  Weights whose sums
were reduced at other parameters, or lack ``c``, are walked once at the
fitted parameters by ``fiem._reduce``, the solver's own reduction
(``fiem._kept_sums``); a normal mixture is always walked so, and each block runs
``_mixture_sums`` on ``u`` and divides its rows by the row sum.  The
``d log C/d gamma`` term is, for one component, a
smooth function of y alone, ``B(y) phi(y)`` (``_grad_log_c``): per block
of points a softmax over the respondents and one matmul with their
score coefficients, taken at the values exactly, or on at least
``4 * fiem.CHEB_POINTS`` values from Chebyshev points in y through
``fiem._smooth_in_y``.  For a mixture it walks blocks of respondents
with the per-value ``log C`` that the fit kept, from the one pass over
its component densities that also gives the responsibilities.

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
from .expfam import Family, OutcomeSpec, _logsumexp0, flatten_params, log_density_factors
from .fiem import (
    FitResult,
    FractionalWeights,
    _blocks,
    _centred_powers,
    _kept_sums,
    _matmul_blocks,
    _reduce,
    _smooth_in_y,
    _take,
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
    moments = [ones, np.zeros_like(y), np.zeros_like(y)]
    if gamma.family is Family.GAMMA:
        moments.append(np.log(y))
    return _one_component_sums(gamma, columns, y, np.column_stack(moments))


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
    logs, lo, _ = _moment_columns(gamma)
    shift, powers = _centred_powers(y_donors, logs)
    return [_one_component_sums(gamma, columns, shift, v @ powers[:, lo]) for v in weights]


# ---------------------------------------------------------------------------
# sandwich assembly
# ---------------------------------------------------------------------------


def _missing_pieces(
    phi: ResponseSpec, gamma: OutcomeSpec, weights: FractionalWeights, data: Dataset
):
    """Missing-unit designs, mean scores, mean design vectors, score sums, and V's sums.

    From the weights' ``_KernelSums``: each unit's moments of ``w`` and
    of ``w pi`` against ``fiem._centred_powers`` give ``s0bar``, the
    ``_score_sums`` of (w, w pi, w pi y), and for ``V_ij = w_ij (y_j -
    ybar_i)`` the sum ``sum_ij V_ij s1(x_i, y_j)``; the per-value ``c_j =
    sum_i V_ij`` came with them, and ``z0bar`` ends in ``ybar``.  With
    ``y_c = y - shift`` and ``t = ybar - shift``, the moments of ``w pi
    y`` are those of ``w pi (y_c + shift)`` and the moments of ``V`` those
    of ``w (y_c - t)``.  Where the sums were reduced at other parameters
    or lack ``c``, a walk of their own at ``phi`` reduces them
    (``fiem._kept_sums``); a normal mixture's walk also reduces the score
    sums block by block (``_mixture_walk``).
    """
    miss_cols = data.missing_columns()
    b_miss = phi.h_basis.design(miss_cols)
    sums = weights.sums
    if gamma.k > 1:
        sums, r = _mixture_walk(phi, gamma, weights, b_miss, miss_cols)
    else:
        if sums.c is None or not np.array_equal(sums.phi, phi.phi):
            sums = _kept_sums(phi, weights.kernel, gamma, data)
        _, lo, hi = _moment_columns(gamma)
        m_u, m_wp, shift = sums.w, sums.wp, sums.shift
        t = m_u[:, 1:2]
        moments = (
            m_u[:, lo],
            m_wp[:, lo],
            m_wp[:, hi] + shift * m_wp[:, lo],  # w pi (y_c + shift)
            m_u[:, hi] - t * m_u[:, lo],  # w (y_c - t)
        )
        r = [_one_component_sums(gamma, miss_cols, shift, m) for m in moments]
    m_wp, shift = sums.wp, sums.shift
    s0bar = -np.column_stack([m_wp[:, :1] * b_miss, m_wp[:, 1] + shift * m_wp[:, 0]])
    *r, r_v = r
    return b_miss, s0bar, np.column_stack([b_miss, weights.ybar]), r, sums.c, r_v.sum(axis=0)


def _mixture_walk(phi, gamma: OutcomeSpec, weights: FractionalWeights, b_miss, miss_cols):
    """``(sums, r)``: one ``fiem._reduce`` walk at ``phi`` with a normal mixture's score sums.

    ``r`` holds the ``_score_sums`` of (w, w pi, w pi y, V), each block
    reduced on its unnormalized ``u`` from one responsibility pass and
    divided by the row sum.
    """
    y_u = weights.values
    n0, q = b_miss.shape[0], flatten_params(gamma).size
    r = [np.empty((n0, q)) for _ in range(4)]

    def each(rows, u, wp, s, ybar, spares):
        wpy, v = spares
        np.multiply(wp, y_u, out=wpy)
        np.subtract(y_u[None, :], ybar[:, None], out=v)
        v *= u
        block = _score_sums(gamma, y_u, _take(miss_cols, rows), (u, wp, wpy, v))
        for out, b in zip(r, block):
            out[rows] = b / s[:, None]

    powers = _centred_powers(y_u)
    sums = _reduce(phi, b_miss, weights.kernel, y_u, powers, per_value=True, each=each, spare=2)[0]
    return sums, r


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
    """``d log C(y)/d gamma`` of a one-component model, as a function of the points ``t``.

    With ``s1(x_l, y) = A_l phi(y)``, where ``phi(y)`` are the
    ``_centred_powers`` columns ``lo`` about the values' mean and ``A_l``
    is ``_one_component_sums`` on unit moment vectors (it is linear in
    them), ``d log C(y)/d gamma = B(y) phi(y)`` with ``B(y) = sum_l P(l |
    y) A_l``.  Per block of points, ``P(. | t)`` is a softmax over a row
    of respondents' ``slope_l*t + offset_l`` (``log c`` cancels), so
    ``B`` is one matmul with ``A``.  The support is checked once, on
    ``y_u``.
    """
    resp_cols, n1 = data.respondent_columns(), data.n_respondents
    logs, lo, _ = _moment_columns(gamma)
    shift = float(np.mean(y_u))
    slope, offset, _ = log_density_factors(gamma, y_u, resp_cols)
    units = [np.broadcast_to(e, (n1, len(lo))) for e in np.eye(len(lo))]
    a = np.hstack([_one_component_sums(gamma, resp_cols, shift, m) for m in units])
    q = a.shape[1] // len(lo)
    right = np.vstack([slope, offset])

    def at(t: np.ndarray) -> np.ndarray:
        phi = _centred_powers(t, logs, shift)[1][:, lo]
        out = np.empty((t.size, q))
        for rows, p in _matmul_blocks(np.column_stack([t, np.ones_like(t)]), right, t.size):
            p -= p.max(axis=1, keepdims=True)
            np.exp(p, out=p)
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
    For one component ``d log C/d gamma`` is a smooth function of y alone
    (``_grad_log_c``), taken at the values through ``fiem._smooth_in_y``;
    for a mixture the second sum walks blocks of respondents with the
    ``log C`` the fit kept.
    """
    y_u, c, log_c = weights.values, parts.c_values, weights.log_c
    resp_cols = data.respondent_columns()
    via_c = 0.0
    if gamma.k > 1:
        # c_j P(l | y_j) from the log density of the responsibility pass
        for rows, _ in _blocks(data.n_respondents, y_u.size):
            log_f, pieces = _responsibilities(gamma, y_u[None, :], _take(resp_cols, rows))
            p = np.exp(np.subtract(log_f, log_c, out=log_f), out=log_f)
            p *= c
            via_c += _mixture_sums(gamma, pieces, (p,))[0].sum(axis=0)
            del log_f, pieces, p  # else they live on while the next block is built
    else:
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

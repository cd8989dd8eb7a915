"""Fractional-imputation estimator for the response-model parameters.

Each missing outcome is represented by the whole pool of respondent
outcomes ("donors"), weighted so that weighted donor averages
approximate conditional expectations given the unit's covariates and
nonresponse.  The weight of donor value y for a missing unit with
covariates x is proportional to

    odds(x, y; phi) * f(y | x, respondent; gamma) / C(y; gamma),

with ``C(y) = sum_l f(y | x_l, respondent; gamma)`` summing over all
respondents; the weights are normalized within each missing unit, in
which the covariate factor ``exp(-h(x; alpha))`` of the odds cancels.
So the weights depend on phi only through beta, with
``dw_ij/dbeta = -w_ij (y_j - ybar_i)`` for the unit's weighted donor
mean ``ybar_i``.  The estimator is the root of the mean score equation
``S(phi; w(beta)) = 0``; instead of EM's linearly converging alternation
of weight updates and fixed-weight solves, ``em_fit`` finds it by damped
Newton with the exact Jacobian: the fixed-weight one plus a beta column.
EM remains only for the weakly identified fits where Newton stalls.

The respondents' model ``gamma`` is fitted once from complete cases and
held fixed throughout; only ``base`` depends on it, so it is computed
once per fit.

An alternative "parametric" engine draws a fixed per-unit pool of M
imputed values from the respondents' density and weights it by the
nonresponse odds alone (``base = 0``); it exists for cross-checking the
donor scheme and is not used for variance estimation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import expit

from .dataio import Dataset
from .expfam import OutcomeSpec, _logsumexp0, log_density_outer, sample
from .identify import IdentifyVerdict, Status
from .respondent import FitError, RespondentFit
from .response import LP_CLAMP, ResponseSpec

__all__ = [
    "FiControls",
    "FractionalWeights",
    "FitResult",
    "UnidentifiableModelError",
    "fractional_weights",
    "mean_score",
    "score_jacobian",
    "solve_mean_score",
    "em_fit",
    "estimate_mu_y",
]


class UnidentifiableModelError(RuntimeError):
    """Refusal to fit a model flagged as provably unidentifiable."""


@dataclass(frozen=True)
class FiControls:
    """Stopping rules of the solves of the mean score equation.

    ``em_fit``'s Newton solve converges when the max-abs score is at most
    ``tol_score`` and the next step at most ``tol_phi`` in every parameter,
    within ``min(max_newton_iter, max_em_iter)`` steps; the EM that takes
    over when it does not stops once an iteration moves phi by at most
    ``tol_phi``, within ``max_em_iter`` iterations.  Fixed-weight solves
    stop at ``tol_score`` within ``max_newton_iter`` steps.  Each step is
    halved at most ``max_halvings`` times; ``ridge`` regularizes a
    numerically singular Jacobian.
    """

    tol_phi: float = 1e-8
    tol_score: float = 1e-8
    max_em_iter: int = 500
    max_newton_iter: int = 50
    max_halvings: int = 30
    ridge: float = 1e-10


@dataclass
class FractionalWeights:
    """Normalized donor weights for every missing unit.

    ``donor_y`` is the shared respondent outcome vector for the donor
    engine, or an (n_missing, M) array of per-unit imputed pools for
    the parametric engine.  ``w`` has one row per missing unit and one
    column per donor; rows sum to one.
    """

    missing_rows: np.ndarray
    donor_y: np.ndarray
    w: np.ndarray

    @property
    def n_missing(self) -> int:
        return self.w.shape[0]


@dataclass
class FitResult:
    """Fitted response model with the state needed for inference."""

    phi_hat: ResponseSpec
    gamma: RespondentFit
    weights: FractionalWeights
    covariance: Optional[np.ndarray]
    em_iterations: int
    mean_score_norm: float
    converged: bool
    trace: tuple[tuple[int, float, float], ...] = ()

    @property
    def phi(self) -> np.ndarray:
        return self.phi_hat.phi


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def _donor_log_base(gamma: OutcomeSpec, data: Dataset) -> np.ndarray:
    """log f(y_j | x_i) - log C(y_j): the phi-independent weight factors."""
    y_d = data.y_observed
    resp_cols = data.respondent_columns()
    miss_cols = data.missing_columns()
    log_c = _logsumexp0(log_density_outer(gamma, y_d, resp_cols))
    return log_density_outer(gamma, y_d, miss_cols) - log_c[None, :]


def _normalize_rows(logw: np.ndarray) -> np.ndarray:
    """In-place exponentiation after per-row max subtraction."""
    if logw.size == 0:
        return np.zeros_like(logw)
    row_max = np.max(logw, axis=1)
    if np.any(~np.isfinite(row_max)):
        bad = int(np.nonzero(~np.isfinite(row_max))[0][0])
        raise FitError(
            f"missing unit {bad}: every donor has zero density under the "
            "respondents' model; the outcome model does not cover this unit"
        )
    logw -= row_max[:, None]
    w = np.exp(logw, out=logw)
    w /= w.sum(axis=1, keepdims=True)
    return w


def _weights_from_base(
    beta: float, donor_y: np.ndarray, base: np.ndarray
) -> np.ndarray:
    """Row-normalized ``exp(base - beta*y)``; the covariate odds factor cancels."""
    return _normalize_rows(base - beta * donor_y)


def fractional_weights(
    phi: ResponseSpec, gamma: OutcomeSpec, data: Dataset
) -> FractionalWeights:
    """Donor weights at the given response parameters.

    Computed in log space and exponentiated after subtracting each
    row's maximum.  Raises FitError when some missing unit has zero
    density at every donor value.
    """
    if data.n_respondents < 1:
        raise FitError("at least one respondent donor is required")
    base = _donor_log_base(gamma, data)
    return FractionalWeights(
        missing_rows=np.nonzero(data.delta == 0)[0],
        donor_y=data.y_observed.copy(),
        w=_weights_from_base(phi.beta, data.y_observed, base),
    )


def _parametric_pool(
    gamma: OutcomeSpec, data: Dataset, m_draws: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-missing-unit pools drawn from the respondents' density."""
    miss_cols = data.missing_columns()
    n0 = data.n_missing
    tiled = {k: np.repeat(v, m_draws) for k, v in miss_cols.items()}
    draws = sample(gamma, tiled, rng)
    return draws.reshape(n0, m_draws)


# ---------------------------------------------------------------------------
# mean score and its Jacobian
# ---------------------------------------------------------------------------


@dataclass
class _ScoreArrays:
    """Design pieces shared by the score and its Jacobian."""

    z_resp: np.ndarray  # (n1, L+1) respondent design incl. outcome column
    b_miss: np.ndarray  # (n0, L) missing-unit covariate design
    h_index: int  # = L, position of the outcome column


def _score_arrays(phi: ResponseSpec, data: Dataset) -> _ScoreArrays:
    resp_cols = data.respondent_columns()
    z_resp = phi.design(resp_cols, data.y_observed)
    b_miss = phi.h_basis.design(data.missing_columns())
    return _ScoreArrays(z_resp, b_miss, z_resp.shape[1] - 1)


def _respondent_propensity(phi: ResponseSpec, z_resp: np.ndarray) -> np.ndarray:
    """P(delta=1 | x, y) at respondents' design rows, clamped like ``ResponseSpec``."""
    return expit(np.clip(z_resp @ phi.phi, -LP_CLAMP, LP_CLAMP))


def _propensity_matrix(phi: ResponseSpec, b_miss, donor_y) -> np.ndarray:
    """P(delta=1 | x_i, y) for every missing unit i and each of its donor values."""
    # expit saturates cleanly at extreme arguments, so no clamp is needed;
    # one buffer is reused for the whole computation
    lp = (b_miss @ np.asarray(phi.alpha))[:, None] + phi.beta * donor_y
    return expit(lp, out=lp)


def _row_dot(a: np.ndarray, donor_y: np.ndarray) -> np.ndarray:
    """Per-unit ``sum_j a_ij y_ij`` for shared or per-unit donor values."""
    if donor_y.ndim == 1:
        return a @ donor_y
    return np.einsum("ij,ij->i", a, donor_y)


def _score_and_jacobian(phi, arrays, w, donor_y, weights_move: bool):
    """Mean score at phi for donor weights ``w``, and its Jacobian.

    With ``weights_move`` the Jacobian includes the weights' dependence
    on beta, ``dw_ij/dbeta = -w_ij (y_j - ybar_i)``; otherwise it holds
    the weights fixed.
    """
    z = arrays.z_resp
    p_resp = _respondent_propensity(phi, z)
    score = z.T @ (1.0 - p_resp)  # delta = 1
    jac = -(z.T @ (z * (p_resp * (1.0 - p_resp))[:, None]))
    if w.shape[0]:
        L, b = arrays.h_index, arrays.b_miss
        pi = _propensity_matrix(phi, b, donor_y)
        wp = w * pi  # delta = 0, so the residual is -pi
        # w pi (1 - pi), built in pi's buffer to keep one n0 x n1 array fewer
        q = np.multiply(wp, np.subtract(1.0, pi, out=pi), out=pi)
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
            # per unit: sum_j w_ij (y_j - ybar_i) pi_ij, and the same times y_j
            jac[:L, L] += b.T @ (wpy - ybar * row)
            jac[L, L] += float(np.sum(_row_dot(wp, y2) - ybar * wpy))
    return score, jac


def mean_score(
    phi: ResponseSpec, weights: FractionalWeights, data: Dataset
) -> np.ndarray:
    """Weighted mean score: respondent scores plus donor-averaged scores."""
    arrays = _score_arrays(phi, data)
    return _score_and_jacobian(phi, arrays, weights.w, weights.donor_y, False)[0]


def score_jacobian(
    phi: ResponseSpec, weights: FractionalWeights, data: Dataset
) -> np.ndarray:
    """d mean_score / d phi with the weights held fixed (negative definite)."""
    arrays = _score_arrays(phi, data)
    return _score_and_jacobian(phi, arrays, weights.w, weights.donor_y, False)[1]


# ---------------------------------------------------------------------------
# Newton solver
# ---------------------------------------------------------------------------


def _newton_step(jac: np.ndarray, score: np.ndarray, ridge: float) -> np.ndarray:
    try:
        step = np.linalg.solve(jac, -score)
        # a near-singular solve shows up as a poor residual
        if not np.all(np.isfinite(step)) or float(
            np.max(np.abs(jac @ step + score))
        ) > 1e-8 * (1.0 + float(np.max(np.abs(score)))):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        jac = jac - ridge * np.eye(jac.shape[0])
        step = np.linalg.lstsq(jac, -score, rcond=None)[0]
    return step


def _newton(phi, system, max_steps: int, controls: FiControls, step_tol: float):
    """Damped Newton on ``system(phi) -> (score, jacobian)``.

    Converged when the max-abs score is at most ``controls.tol_score``
    and the next step at most ``step_tol`` in every parameter.  Returns
    ``(phi, max-abs score, trace, converged)``, with a trace entry
    ``(step, max|delta phi|, max-abs score)`` per accepted step;
    unconverged after ``max_steps`` steps or when halvings are exhausted.
    """
    score, jac = system(phi)
    norm = float(np.max(np.abs(score)))
    trace: list[tuple[int, float, float]] = []
    while True:
        step = _newton_step(jac, score, controls.ridge)
        size = float(np.max(np.abs(step)))
        if norm <= controls.tol_score and size <= step_tol:
            return phi, norm, trace, True
        if len(trace) >= max_steps:
            return phi, norm, trace, False
        l2 = float(np.linalg.norm(score))
        for _ in range(controls.max_halvings + 1):
            cand = phi.with_phi(phi.phi + step)
            cand_score, cand_jac = system(cand)
            if float(np.linalg.norm(cand_score)) < l2 or size < 1e-15:
                break
            step = 0.5 * step
            size *= 0.5
        else:
            return phi, norm, trace, False
        phi, score, jac = cand, cand_score, cand_jac
        norm = float(np.max(np.abs(score)))
        trace.append((len(trace) + 1, size, norm))


def solve_mean_score(
    phi: ResponseSpec,
    weights: FractionalWeights,
    data: Dataset,
    controls: FiControls = FiControls(),
) -> ResponseSpec:
    """Newton solve of ``mean_score(phi) = 0`` with the weights fixed.

    Step-halving backs off any step that increases the score norm; a
    small ridge stabilizes a near-singular Jacobian.  Raises FitError
    when halvings are exhausted or ``controls.max_newton_iter`` steps
    do not converge.
    """
    arrays = _score_arrays(phi, data)
    return _fixed_weight_solve(phi, arrays, weights.w, weights.donor_y, controls)[0]


def _fixed_weight_solve(phi, arrays, w, donor_y, controls: FiControls):
    """``solve_mean_score`` on prepared arrays; returns (phi, max-abs score)."""

    def system(p: ResponseSpec):
        return _score_and_jacobian(p, arrays, w, donor_y, False)

    # as an M-step this needs no step test: EM's own test on phi follows
    steps = controls.max_newton_iter
    phi, norm, _, converged = _newton(phi, system, steps, controls, math.inf)
    if not converged:
        raise FitError(f"M-step Newton did not converge (score norm {norm:.3g})")
    return phi, norm


# ---------------------------------------------------------------------------
# the fit
# ---------------------------------------------------------------------------


def _initial_phi(h_basis, data: Dataset) -> ResponseSpec:
    """Logistic fit of the indicator on the covariate basis, outcome ignored.

    This is the fit one would use under ignorable missingness; it is
    always computable and leaves beta at zero.
    """
    from .respondent import _newton_canonical

    x = h_basis.design(data.columns)
    delta = data.delta.astype(float)
    coef, _, trace = _newton_canonical(x, delta, expit, lambda mu: mu * (1 - mu))
    if trace[-1] > 1e-6:
        raise FitError("initial ignorable logistic fit did not converge")
    return ResponseSpec(h_basis, tuple(coef), 0.0)


def em_fit(
    data: Dataset,
    gamma_fit: RespondentFit,
    h_basis,
    init_phi: Optional[ResponseSpec] = None,
    controls: FiControls = FiControls(),
    verdict: Optional[IdentifyVerdict] = None,
    force: bool = False,
    engine: str = "donor",
    m_draws: int = 500,
    rng: Optional[np.random.Generator] = None,
) -> FitResult:
    """Solve the fractional-imputation mean score equation for (alpha, beta).

    Damped Newton on ``S(phi; w(beta)) = 0`` with the exact Jacobian and
    the weights recomputed at every trial point, from ``init_phi`` or
    else the ignorable logistic fit.  When Newton does not converge (see
    FiControls), EM runs from the same start; EM not converging within
    ``controls.max_em_iter`` iterations raises FitError.  ``trace`` and
    ``em_iterations`` list and count the Newton steps, then any EM
    iterations.  When a verdict is supplied, a provably unidentifiable
    model is refused unless ``force`` is set, and a not-provable one
    warns.
    """
    if verdict is not None:
        if verdict.status is Status.PROVABLY_UNIDENTIFIABLE and not force:
            raise UnidentifiableModelError(
                f"model is provably unidentifiable ({verdict.certificate}); "
                "pass force=True to fit anyway"
            )
        if verdict.status is Status.NOT_PROVABLE:
            warnings.warn(
                f"identifiability not provable: {verdict.certificate}",
                stacklevel=2,
            )

    gamma = gamma_fit.spec
    phi = init_phi if init_phi is not None else _initial_phi(h_basis, data)

    if engine == "donor":
        donor_y = data.y_observed.copy()
        base = _donor_log_base(gamma, data) if data.n_missing else np.zeros((0, donor_y.size))
    elif engine == "parametric":
        rng = rng or np.random.default_rng(0)
        donor_y = _parametric_pool(gamma, data, m_draws, rng)
        # proposal equals the respondents' density, so only the odds factor
        # survives in the self-normalized weights
        base = np.zeros_like(donor_y)
    else:
        raise ValueError(f"unknown imputation engine {engine!r}")

    arrays = _score_arrays(phi, data)

    def system(p: ResponseSpec):
        w = _weights_from_base(p.beta, donor_y, base)
        return _score_and_jacobian(p, arrays, w, donor_y, True)

    steps = min(controls.max_newton_iter, controls.max_em_iter)
    start = phi
    phi, score_norm, trace, converged = _newton(
        start, system, steps, controls, controls.tol_phi
    )
    if not converged:
        # on weakly identified data the damped Newton path can stall at a
        # minimum of ||S|| that is no root; EM's path is not monotone in
        # ||S|| and gets past it, so EM takes over from the same start
        phi, score_norm, em_trace = _em(start, arrays, donor_y, base, controls)
        trace += [(len(trace) + k, change, norm) for k, change, norm in em_trace]
    weights = FractionalWeights(
        np.nonzero(data.delta == 0)[0],
        donor_y,
        _weights_from_base(phi.beta, donor_y, base),
    )
    return FitResult(
        phi_hat=phi,
        gamma=gamma_fit,
        weights=weights,
        covariance=None,
        em_iterations=len(trace),
        mean_score_norm=score_norm,
        converged=True,
        trace=tuple(trace),
    )


def _em(phi, arrays, donor_y, base, controls: FiControls):
    """EM: weights at the current beta, then the fixed-weight solve, until phi settles.

    Returns ``(phi, max-abs score, trace)``; raises FitError after
    ``controls.max_em_iter`` iterations.
    """
    trace: list[tuple[int, float, float]] = []
    for iteration in range(1, controls.max_em_iter + 1):
        w = _weights_from_base(phi.beta, donor_y, base)
        new_phi, score_norm = _fixed_weight_solve(phi, arrays, w, donor_y, controls)
        change = float(np.max(np.abs(new_phi.phi - phi.phi)))
        trace.append((iteration, change, score_norm))
        phi = new_phi
        if change <= controls.tol_phi:
            return phi, score_norm, trace
    raise FitError(
        f"EM did not converge within {controls.max_em_iter} iterations "
        f"(last parameter change {trace[-1][1] if trace else math.nan:.3g})",
        trace=tuple(trace),
    )


def estimate_mu_y(fit: FitResult, data: Dataset) -> float:
    """Population outcome mean: observed values plus weighted donor values."""
    total = float(np.sum(data.y_observed))
    if fit.weights.n_missing:
        total += float(np.sum(_row_dot(fit.weights.w, fit.weights.donor_y)))
    return total / data.n

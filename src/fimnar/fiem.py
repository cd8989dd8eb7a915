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
held fixed throughout; only ``base = log f(y_j | x_i) - log C(y_j)``
depends on it, so it is computed once per fit.

Memory: one donor kernel, ``_donor_blocks``, walks the missing units in
row blocks of about ``CELLS`` grid cells and yields each block's weights
and propensities, which the solver and the variance code reduce;
``log C`` is an online logsumexp over row blocks of respondents.  So a
fit stores one (n_missing, n_respondents) array, ``base`` during the
solve and the final weights ``w`` normalized in its place, plus the
temporaries of one block; only the EM fallback holds its iteration's
weights beside ``base``.

An alternative "parametric" engine draws a fixed per-unit pool of M
imputed values from the respondents' density and weights it by the
nonresponse odds alone (``-beta*y``, no base); it exists for
cross-checking the donor scheme and is not used for variance estimation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import expit

from .dataio import Dataset
from .expfam import OutcomeSpec, log_density_outer, sample
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
    column per donor; rows sum to one.  ``log_c`` is the donor engine's
    ``log C(y_j)`` under the respondents' model the weights were built
    with, kept for the variance of the outcome mean.
    """

    missing_rows: np.ndarray
    donor_y: np.ndarray
    w: np.ndarray
    log_c: Optional[np.ndarray] = None

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
# the donor kernel: row blocks of the missing-unit x donor grid
# ---------------------------------------------------------------------------

CELLS = 1 << 16  # grid cells per row block; a block of 64k doubles fits in cache


def _row_blocks(n_rows: int, n_cols: int):
    """Slices of ``max(1, CELLS // n_cols)`` rows that cover ``range(n_rows)``."""
    step = max(1, CELLS // max(n_cols, 1))
    return (slice(i, min(i + step, n_rows)) for i in range(0, n_rows, step))


def _take(columns, rows: slice) -> dict:
    return {name: col[rows] for name, col in columns.items()}


def _normalize_rows(logw: np.ndarray, first: int = 0) -> np.ndarray:
    """In-place exponentiation after per-row max subtraction.

    ``first`` is the missing-unit index of row 0, for the error message.
    """
    if logw.size == 0:
        return np.zeros_like(logw)
    row_max = np.max(logw, axis=1)
    if np.any(~np.isfinite(row_max)):
        bad = first + int(np.nonzero(~np.isfinite(row_max))[0][0])
        raise FitError(
            f"missing unit {bad}: every donor has zero density under the "
            "respondents' model; the outcome model does not cover this unit"
        )
    logw -= row_max[:, None]
    w = np.exp(logw, out=logw)
    w /= w.sum(axis=1, keepdims=True)
    return w


@dataclass(frozen=True)
class _LogWeights:
    """Row-normalized ``exp(base - beta*y)``, built block by block on indexing.

    ``base`` is None for the parametric engine, whose weights come from
    ``-beta*y`` alone.
    """

    base: Optional[np.ndarray]
    beta: float
    donor_y: np.ndarray

    def __getitem__(self, rows: slice) -> np.ndarray:
        y = self.donor_y if self.donor_y.ndim == 1 else self.donor_y[rows]
        logw = -self.beta * y if self.base is None else self.base[rows] - self.beta * y
        return _normalize_rows(logw, rows.start)


def _donor_blocks(phi: ResponseSpec, b_miss: np.ndarray, donor_y: np.ndarray, w):
    """The donor kernel: ``(rows, y, w, pi)`` for each row block of missing units.

    ``y`` is the block's donor values (the shared vector, or its rows of
    per-unit pools), ``w`` its normalized weights (a slice of a weight
    array, or built by a ``_LogWeights``), and ``pi`` the propensity
    ``P(delta=1 | x_i, y)`` at every donor value, computed in the block's
    own buffer, which the caller may reuse.
    """
    lin = b_miss @ np.asarray(phi.alpha)
    for rows in _row_blocks(b_miss.shape[0], donor_y.shape[-1]):
        y = donor_y if donor_y.ndim == 1 else donor_y[rows]
        # 1 / (1 + exp(-lp)); exp overflows to inf where pi is 0
        pi = np.subtract(-lin[rows, None], phi.beta * y)
        with np.errstate(over="ignore"):
            np.exp(pi, out=pi)
        pi += 1.0
        yield rows, y, w[rows], np.reciprocal(pi, out=pi)


def _logsumexp_blocks(blocks, n_cols: int) -> np.ndarray:
    """``expfam._logsumexp0`` of the row blocks stacked, in one pass over them.

    A running column max rescales the running sum whenever it rises;
    columns that are ``-inf`` throughout stay ``-inf``.
    """
    top, total = np.full(n_cols, -np.inf), np.zeros(n_cols)
    shift = np.zeros(n_cols)
    for a in blocks:
        new_top = np.maximum(top, a.max(axis=0))
        shift = np.where(np.isfinite(new_top), new_top, 0.0)
        total *= np.exp(top - shift)
        total += np.exp(a - shift).sum(axis=0)
        top = new_top
    with np.errstate(divide="ignore"):
        return np.where(np.isfinite(top), shift + np.log(total), top)


def _donor_log_c(gamma: OutcomeSpec, data: Dataset) -> np.ndarray:
    """log C(y_j) = log sum_l f(y_j | x_l) over respondents l, by blocks of them."""
    y_d = data.y_observed
    resp_cols = data.respondent_columns()
    blocks = (
        log_density_outer(gamma, y_d, _take(resp_cols, rows))
        for rows in _row_blocks(y_d.size, y_d.size)
    )
    return _logsumexp_blocks(blocks, y_d.size)


def _donor_log_base(
    gamma: OutcomeSpec, data: Dataset, log_c: Optional[np.ndarray] = None
) -> np.ndarray:
    """log f(y_j | x_i) - log C(y_j): the phi-independent weight factors.

    Written block by block into one (n_missing, n_respondents) array;
    ``log_c`` is computed unless given.
    """
    y_d = data.y_observed
    miss_cols = data.missing_columns()
    base = np.empty((data.n_missing, y_d.size))
    if base.size and log_c is None:
        log_c = _donor_log_c(gamma, data)
    for rows in _row_blocks(*base.shape):
        block = log_density_outer(gamma, y_d, _take(miss_cols, rows))
        np.subtract(block, log_c, out=base[rows])
    return base


def _weights_from_base(
    beta: float, donor_y: np.ndarray, base: Optional[np.ndarray]
) -> np.ndarray:
    """Row-normalized ``exp(base - beta*y)``, in place of ``base``.

    The covariate odds factor cancels; ``base`` None stands for zero.
    """
    if base is None:
        return _normalize_rows(-beta * donor_y)
    base -= beta * donor_y
    return _normalize_rows(base)


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
    log_c = _donor_log_c(gamma, data) if data.n_missing else None
    base = _donor_log_base(gamma, data, log_c)
    return FractionalWeights(
        missing_rows=np.nonzero(data.delta == 0)[0],
        donor_y=data.y_observed.copy(),
        w=_weights_from_base(phi.beta, data.y_observed, base),
        log_c=log_c,
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


def _row_dot(a: np.ndarray, donor_y: np.ndarray) -> np.ndarray:
    """Per-unit ``sum_j a_ij y_ij`` for shared or per-unit donor values."""
    if donor_y.ndim == 1:
        return a @ donor_y
    return np.einsum("ij,ij->i", a, donor_y)


def _power_sums(v: np.ndarray, y: np.ndarray, powers) -> np.ndarray:
    """Per-unit sums of ``v`` against (1, y, y^2), as (units, 3).

    One matmul with the shared donors' ``powers`` matrix; row dots with
    a block's per-unit pools ``y`` when there is none.
    """
    if powers is not None:
        return v @ powers
    return np.column_stack([v.sum(axis=1), _row_dot(v, y), _row_dot(v, y * y)])


def _score_and_jacobian(phi, arrays, w, donor_y, weights_move: bool):
    """Mean score at phi for donor weights ``w``, and its Jacobian.

    ``w`` is an (n_missing, donors) weight array or a ``_LogWeights``;
    either is reduced block by block through ``_donor_blocks``.  With
    ``weights_move`` the Jacobian includes the weights' dependence on
    beta, ``dw_ij/dbeta = -w_ij (y_j - ybar_i)``; otherwise it holds the
    weights fixed.
    """
    z = arrays.z_resp
    p_resp = _respondent_propensity(phi, z)
    score = z.T @ (1.0 - p_resp)  # delta = 1
    jac = -(z.T @ (z * (p_resp * (1.0 - p_resp))[:, None]))
    L, b = arrays.h_index, arrays.b_miss
    if b.shape[0]:
        # per unit: sums of w pi and of w pi (1 - pi) against (1, y, y^2),
        # and the weighted donor mean ybar
        n0 = b.shape[0]
        m_wp, m_q, ybar = np.empty((n0, 3)), np.empty((n0, 3)), np.empty(n0)
        powers = None
        if donor_y.ndim == 1:
            powers = np.column_stack([np.ones_like(donor_y), donor_y, donor_y**2])
        for rows, y, w_b, pi in _donor_blocks(phi, b, donor_y, w):
            wp = w_b * pi  # delta = 0, so the residual is -pi
            q = np.multiply(wp, np.subtract(1.0, pi, out=pi), out=pi)
            m_wp[rows] = _power_sums(wp, y, powers)
            m_q[rows] = _power_sums(q, y, powers)
            ybar[rows] = _row_dot(w_b, y)
        row, wpy, wpy2 = m_wp.T
        score[:L] -= b.T @ row
        score[L] -= float(np.sum(wpy))
        jac[:L, :L] -= b.T @ (b * m_q[:, [0]])
        cross = b.T @ m_q[:, 1]
        jac[:L, L] -= cross
        jac[L, :L] -= cross
        jac[L, L] -= float(np.sum(m_q[:, 2]))
        if weights_move:
            # per unit: sum_j w_ij (y_j - ybar_i) pi_ij, and the same times y_j
            jac[:L, L] += b.T @ (wpy - ybar * row)
            jac[L, L] += float(np.sum(wpy2 - ybar * wpy))
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
        log_c = _donor_log_c(gamma, data) if data.n_missing else None
        base = _donor_log_base(gamma, data, log_c)
    elif engine == "parametric":
        rng = rng or np.random.default_rng(0)
        donor_y = _parametric_pool(gamma, data, m_draws, rng)
        # proposal equals the respondents' density, so only the odds factor
        # survives in the self-normalized weights
        log_c = base = None
    else:
        raise ValueError(f"unknown imputation engine {engine!r}")

    arrays = _score_arrays(phi, data)

    def system(p: ResponseSpec):
        w = _LogWeights(base, p.beta, donor_y)
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
        log_c,
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
    ``controls.max_em_iter`` iterations.  Each iteration's weights are
    built once, beside ``base``: the M-step evaluates them many times.
    """
    trace: list[tuple[int, float, float]] = []
    for iteration in range(1, controls.max_em_iter + 1):
        w = _weights_from_base(phi.beta, donor_y, None if base is None else base.copy())
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

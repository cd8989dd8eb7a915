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
Every solve here is ``respondent._newton``, the package's one
damped-Newton loop; where it stalls on weakly identified data, EM gives
it a second start, so every fit passes the same convergence test.

The respondents' model ``gamma`` is fitted once from complete cases and
held fixed throughout; only ``log f(y_j | x_i) - log C(y_j)`` depends on
it.  For a one-component model ``log f(y | x_i) = slope_i*y + offset_i +
log c(y)`` (``expfam.log_density_factors``), and the row constant
``offset_i`` cancels when a unit's weights are normalized, so the log
weights are ``(slope_i - beta)*y_j + e_j`` with ``e_j = log c(y_j) -
log C(y_j)``: one vector over missing units and one over donors, both
computed once per fit.  The donors are
collapsed to their unique values, each carrying its multiplicity in
``e``; this is exact, because a weight depends on the donor only through
its value.

Memory: one donor kernel, ``_donor_blocks``, walks the missing units in
row blocks of about ``CELLS`` grid cells and yields each block's weights
and propensities, which the solver and the variance code reduce; each
block's weights are rebuilt from the factors by ``_LogWeights``, and
``log C`` is an online logsumexp over row blocks of respondents.  So a
one-component fit stores only vectors over units and unique donor
values, plus the temporaries of one block; only the EM fallback holds
its iteration's (n_missing, unique values) weights.  A mixture's log
density has no such factors, so its fit stores one (n_missing, unique
values) array of ``log f - log C``; ``_LogWeights`` builds a block from
whichever of the two it holds, so its readers do not tell them apart.

An alternative "parametric" engine draws a fixed per-unit pool of M
imputed values from the respondents' density and weights it by the
nonresponse odds alone (``-beta*y``, no base); it exists for
cross-checking the donor scheme and is not used for variance estimation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .dataio import Dataset
from .expfam import Family, OutcomeSpec, log_density_factors, log_density_outer, sample
from .identify import IdentifyVerdict, Status
from .respondent import FitError, RespondentFit, _newton, fit_glm
from .response import ResponseSpec, propensity_from_log_odds

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

    Every solve is ``respondent._newton``.  ``em_fit`` converges when the
    max-abs score ``S(phi; w(beta))`` is at most ``tol_score`` and the next
    step at most ``tol_phi`` in every parameter, within
    ``min(max_newton_iter, max_em_iter)`` steps.  Where it does not, EM
    from the same start runs until an iteration moves phi by at most
    ``tol_phi`` (within ``max_em_iter`` iterations), and the same solve
    starts again from EM's phi.  Fixed-weight solves stop at
    ``tol_score`` within ``max_newton_iter`` steps.
    """

    tol_phi: float = 1e-8
    tol_score: float = 1e-8
    max_em_iter: int = 500
    max_newton_iter: int = 50


class FractionalWeights:
    """Normalized donor weights for every missing unit.

    ``donor_y`` is the shared respondent outcome vector for the donor
    engine, or an (n_missing, M) array of per-unit imputed pools for
    the parametric engine.  The weights are given as an array ``w``, one
    row per missing unit and one column per donor, or by the engines as
    ``kernel``, a ``_LogWeights`` over the values ``kernel.donor_y``: the
    donor engine's are the donors' unique values, and ``inverse`` maps
    each donor to its value.  ``kernel`` and ``values`` are what the
    solver and the variance code reduce.  The property ``w`` is the
    per-donor array, rows summing to one; from a kernel it is built on
    each read (a value's weight split evenly among its donors) and never
    kept.  ``ybar`` and ``spread`` are each unit's weighted donor mean and
    centred second moment ``sum_j w_ij (y_j - ybar_i)^2``, computed once
    here.  ``log_c`` is the donor engine's per-donor ``log C(y_j)`` under
    the respondents' model the weights were built with, kept for the
    variance of the outcome mean.
    """

    def __init__(
        self,
        missing_rows: np.ndarray,
        donor_y: np.ndarray,
        w: Optional[np.ndarray] = None,
        log_c: Optional[np.ndarray] = None,
        *,
        kernel: Optional["_LogWeights"] = None,
        inverse: Optional[np.ndarray] = None,
    ) -> None:
        if (w is None) == (kernel is None):
            raise ValueError("give the weights as either an array w or a kernel")
        self.missing_rows = np.asarray(missing_rows)
        self.donor_y = donor_y
        self.log_c = log_c
        self.kernel = w if kernel is None else kernel
        self.values = donor_y if kernel is None else kernel.donor_y
        self.inverse = inverse
        self.ybar, self.spread = _unit_moments(self.kernel, self.values, self.n_missing)

    @property
    def n_missing(self) -> int:
        return self.missing_rows.size

    @property
    def w(self) -> np.ndarray:
        full = self.kernel[: self.n_missing]
        if self.inverse is None:
            return full
        return full[:, self.inverse] / np.bincount(self.inverse)[self.inverse]


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


def _check_covered(finite: np.ndarray, first: int = 0) -> None:
    """FitError naming the first missing unit whose ``finite`` entry is False.

    ``first`` is the missing-unit index of entry 0.
    """
    if not np.all(finite):
        bad = first + int(np.nonzero(~finite)[0][0])
        raise FitError(
            f"missing unit {bad}: every donor has zero density under the "
            "respondents' model; the outcome model does not cover this unit"
        )


def _normalize_rows(logw: np.ndarray, first: int = 0) -> np.ndarray:
    """In-place exponentiation after per-row max subtraction.

    ``first`` is the missing-unit index of row 0, for the error message.
    """
    if logw.size == 0:
        return np.zeros_like(logw)
    row_max = np.max(logw, axis=1)
    _check_covered(np.isfinite(row_max), first)
    logw -= row_max[:, None]
    w = np.exp(logw, out=logw)
    w /= w.sum(axis=1, keepdims=True)
    return w


@dataclass(frozen=True)
class _LogWeights:
    """Row-normalized ``exp(base - beta*y)``, built block by block on indexing.

    The columns are the values ``donor_y``.  ``base`` is an (n_missing, values) array; or, with ``slope`` given,
    the column term ``e`` of a rank-one grid whose row i is
    ``slope_i*y + e``, the one-component donor base up to a row constant
    that the normalization cancels; or None, standing for zero, in the
    parametric engine, whose weights come from ``-beta*y`` alone.
    """

    base: Optional[np.ndarray]
    beta: float
    donor_y: np.ndarray
    slope: Optional[np.ndarray] = None

    @cached_property
    def _factors(self) -> tuple[np.ndarray, np.ndarray]:
        """``(slope - beta, 1)`` by unit and ``(y, e)`` by value: a block is one matmul."""
        left = np.column_stack([self.slope - self.beta, np.ones_like(self.slope)])
        return left, np.vstack([self.donor_y, self.base])

    def __getitem__(self, rows: slice) -> np.ndarray:
        y = self.donor_y if self.donor_y.ndim == 1 else self.donor_y[rows]
        if self.slope is not None:
            left, right = self._factors
            logw = left[rows] @ right
        elif self.base is None:
            logw = -self.beta * y
        else:
            logw = self.base[rows] - self.beta * y
        return _normalize_rows(logw, rows.start or 0)


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
        pi = np.subtract(-lin[rows, None], phi.beta * y)  # log-odds
        yield rows, y, w[rows], propensity_from_log_odds(pi, out=pi)


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


def _log_density_blocks(gamma: OutcomeSpec, y: np.ndarray, columns, n_rows: int):
    """``(rows, log f(y | x_r))`` for each row block of the ``n_rows`` rows of ``columns``.

    A one-component block is rebuilt from ``log_density_factors``, taken
    once for all rows; a mixture block is its ``log_density_outer``.
    """
    if gamma.k > 1:
        for rows in _row_blocks(n_rows, y.size):
            yield rows, log_density_outer(gamma, y, _take(columns, rows))
        return
    slope, offset, log_c_y = log_density_factors(gamma, y, columns)
    left = np.column_stack([slope, offset, np.ones_like(slope)])
    right = np.vstack([y, np.ones_like(y), log_c_y])
    for rows in _row_blocks(n_rows, y.size):
        yield rows, left[rows] @ right


def _log_c_at(gamma: OutcomeSpec, y: np.ndarray, data: Dataset) -> np.ndarray:
    """log C(y) = log sum_l f(y | x_l) over respondents l at each value, by blocks of them."""
    blocks = _log_density_blocks(gamma, y, data.respondent_columns(), data.n_respondents)
    return _logsumexp_blocks((block for _, block in blocks), y.size)


def _donor_log_c(gamma: OutcomeSpec, data: Dataset) -> np.ndarray:
    """log C(y_j) for every donor j, computed once per unique value."""
    values, inverse = np.unique(data.y_observed, return_inverse=True)
    return _log_c_at(gamma, values, data)[inverse]


def _donor_kernel(gamma: OutcomeSpec, data: Dataset):
    """The donor engine's weights at beta = 0, the donors' value index and log C.

    Returns ``(kernel, inverse, log_c)``: a ``_LogWeights`` over the
    donors' unique values, each weighted by its multiplicity m so that
    it stands for all its donors, the index of each donor's value, and
    the per-donor ``log C``.  For one component the kernel keeps the
    factors ``slope`` over missing units and ``e = log c(y) - log C(y) +
    log m`` over values; for a mixture it keeps the (n_missing, values)
    array ``log f - log C + log m``.
    """
    if data.n_respondents < 1:
        raise FitError("at least one respondent donor is required")
    values, inverse, counts = np.unique(
        data.y_observed, return_inverse=True, return_counts=True
    )
    log_c = _log_c_at(gamma, values, data)
    e = np.log(counts) - log_c
    miss_cols = data.missing_columns()
    if gamma.k > 1:
        base = np.empty((data.n_missing, values.size))
        for rows, block in _log_density_blocks(gamma, values, miss_cols, data.n_missing):
            np.add(block, e, out=base[rows])
        kernel = _LogWeights(base, 0.0, values)
    else:
        slope, offset, log_c_y = log_density_factors(gamma, values, miss_cols)
        # the offset cancels from the weights, but a unit whose density
        # vanishes everywhere shows only there
        _check_covered(np.isfinite(slope) & np.isfinite(offset))
        kernel = _LogWeights(log_c_y + e, 0.0, values, slope)
    return kernel, inverse, log_c[inverse]


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
    kernel, inverse, log_c = _donor_kernel(gamma, data)
    return FractionalWeights(
        np.nonzero(data.delta == 0)[0],
        data.y_observed.copy(),
        log_c=log_c,
        kernel=replace(kernel, beta=phi.beta),
        inverse=inverse,
    )


def _unit_moments(w, y: np.ndarray, n_missing: int):
    """Per-unit weighted donor mean and centred second moment, by row blocks of ``w``.

    The donor values are centred on their mean first, so that the two
    moments do not cancel.
    """
    ybar, spread = np.empty(n_missing), np.empty(n_missing)
    shift = float(np.mean(y)) if y.size else 0.0
    y_c = y - shift
    powers = None
    if y.ndim == 1:
        powers = np.column_stack([np.ones_like(y_c), y_c, y_c**2])
    for rows in _row_blocks(n_missing, y.shape[-1]):
        y_b = y_c if y.ndim == 1 else y_c[rows]
        _, m1, m2 = _power_sums(w[rows], y_b, powers).T
        ybar[rows] = shift + m1
        spread[rows] = m2 - m1**2
    return ybar, spread


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
    p_resp = propensity_from_log_odds(z @ -phi.phi)
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
    return _score_and_jacobian(phi, arrays, weights.kernel, weights.values, False)[0]


def score_jacobian(
    phi: ResponseSpec, weights: FractionalWeights, data: Dataset
) -> np.ndarray:
    """d mean_score / d phi with the weights held fixed (negative definite)."""
    arrays = _score_arrays(phi, data)
    return _score_and_jacobian(phi, arrays, weights.kernel, weights.values, False)[1]


# ---------------------------------------------------------------------------
# fixed-weight solve
# ---------------------------------------------------------------------------


def solve_mean_score(
    phi: ResponseSpec,
    weights: FractionalWeights,
    data: Dataset,
    controls: FiControls = FiControls(),
) -> ResponseSpec:
    """Damped Newton solve of ``mean_score(phi) = 0`` with the weights fixed.

    Raises FitError when ``respondent._newton`` does not converge within
    ``controls.max_newton_iter`` steps.
    """
    arrays = _score_arrays(phi, data)
    return _fixed_weight_solve(phi, arrays, weights.kernel, weights.values, controls)[0]


def _fixed_weight_solve(phi, arrays, w, donor_y, controls: FiControls):
    """``solve_mean_score`` on prepared arrays; returns (phi, max-abs score)."""

    def system(x):
        return _score_and_jacobian(phi.with_phi(x), arrays, w, donor_y, False)

    # as an M-step this needs no step test: EM's own test on phi follows
    x, path, converged = _newton(phi.phi, system, controls.max_newton_iter, controls.tol_score)
    norm = path[-1][2]
    if not converged:
        raise FitError(f"M-step Newton did not converge (score norm {norm:.3g})")
    return phi.with_phi(x), norm


# ---------------------------------------------------------------------------
# the fit
# ---------------------------------------------------------------------------


def _initial_phi(h_basis, data: Dataset) -> ResponseSpec:
    """The ignorable start: beta zero, alpha the Bernoulli ``fit_glm`` of delta on h."""
    fit = fit_glm(data.delta, data.columns, Family.BERNOULLI, h_basis)
    return ResponseSpec(h_basis, fit.spec.components[0].coef, 0.0)


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
    else the ignorable logistic fit.  Where it does not converge (see
    FiControls), EM from the same start gives the same solve a second
    start; FitError is raised when EM or that solve does not converge.
    ``mean_score_norm`` is the max-abs ``S(phi_hat; w(beta_hat))``;
    ``trace`` and ``em_iterations`` list and count the Newton steps, any
    EM iterations and the second solve's steps.  When a verdict is
    supplied, a provably unidentifiable model is refused unless ``force``
    is set, and a not-provable one warns.
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
        kernel, inverse, log_c = _donor_kernel(gamma, data)
    elif engine == "parametric":
        rng = rng or np.random.default_rng(0)
        donor_y = _parametric_pool(gamma, data, m_draws, rng)
        # proposal equals the respondents' density, so only the odds factor
        # survives in the self-normalized weights
        kernel, inverse, log_c = _LogWeights(None, 0.0, donor_y), None, None
    else:
        raise ValueError(f"unknown imputation engine {engine!r}")

    arrays = _score_arrays(phi, data)

    def system(x):
        p = phi.with_phi(x)
        return _score_and_jacobian(p, arrays, replace(kernel, beta=p.beta), kernel.donor_y, True)

    def solve(x):
        steps = min(controls.max_newton_iter, controls.max_em_iter)
        return _newton(x, system, steps, controls.tol_score, controls.tol_phi)

    x, path, converged = solve(phi.phi)
    trace = path[1:]
    if not converged:
        # on weakly identified data the damped Newton path can stall at a
        # minimum of ||S|| that is no root; EM's path is not monotone in
        # ||S|| and gets past it, so EM from the same start supplies a new
        # start for the same Newton solve
        em_phi, em_trace = _em(phi, arrays, kernel, controls)
        x, path, converged = solve(em_phi.phi)
        trace += [
            (len(trace) + k, change, norm)
            for k, (_, change, norm) in enumerate(em_trace + path[1:], 1)
        ]
        if not converged:
            message = "Newton from EM's phi did not converge (last step {1:.3g}, score {2:.3g})"
            raise FitError(message.format(*path[-1]), trace=tuple(trace))
    phi_hat = phi.with_phi(x)
    weights = FractionalWeights(
        np.nonzero(data.delta == 0)[0],
        donor_y,
        log_c=log_c,
        kernel=replace(kernel, beta=phi_hat.beta),
        inverse=inverse,
    )
    return FitResult(
        phi_hat=phi_hat,
        gamma=gamma_fit,
        weights=weights,
        covariance=None,
        em_iterations=len(trace),
        mean_score_norm=path[-1][2],
        converged=True,
        trace=tuple(trace),
    )


def _em(phi, arrays, kernel: _LogWeights, controls: FiControls):
    """EM: weights at the current beta, then the fixed-weight solve, until phi settles.

    Returns ``(phi, trace)``; raises FitError after
    ``controls.max_em_iter`` iterations.  Each iteration's weights are
    built from ``kernel`` once, as one array: the M-step evaluates them
    many times.
    """
    trace: list[tuple[int, float, float]] = []
    for iteration in range(1, controls.max_em_iter + 1):
        w = replace(kernel, beta=phi.beta)[:]
        new_phi, score_norm = _fixed_weight_solve(phi, arrays, w, kernel.donor_y, controls)
        change = float(np.max(np.abs(new_phi.phi - phi.phi)))
        trace.append((iteration, change, score_norm))
        phi = new_phi
        if change <= controls.tol_phi:
            return phi, trace
    raise FitError(
        f"EM did not converge within {controls.max_em_iter} iterations "
        f"(last parameter change {trace[-1][1] if trace else math.nan:.3g})",
        trace=tuple(trace),
    )


def estimate_mu_y(fit: FitResult, data: Dataset) -> float:
    """Population outcome mean: observed values plus weighted donor values."""
    return (float(np.sum(data.y_observed)) + float(np.sum(fit.weights.ybar))) / data.n

"""Maximum-likelihood fitting of the respondents' outcome model.

Everything here sees complete cases only: outcome values paired with
covariate columns.  Single-component families are fitted by damped
Newton on the log-likelihood gradient (closed form for the normal
family), normal mixtures by one EM run over all random restarts at once
(each component's weighted least squares is one solve stacked over the
starts), and model selection picks the smallest AIC among explicit
candidates or over subsets of a term pool.

``_newton`` is the package's one damped-Newton loop: the GLM fits here
and every solve of the fractional-imputation mean score equation in
``fiem`` hand it a ``system(x) -> (score, jacobian)`` closure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .basis import BasisSet, BasisTerm
from .expfam import (
    Component,
    Family,
    OutcomeSpec,
    _logsumexp0,
    log_density,
    n_free_params,
)
from .response import LP_CLAMP, propensity_from_log_odds

__all__ = [
    "FitError",
    "RespondentFit",
    "Candidate",
    "fit_glm",
    "fit_normal_mixture",
    "select_aic",
    "search_basis_by_aic",
]

GRAD_TOL = 1e-8  # fit_glm stops once its max-abs log-likelihood gradient is this small
# a canonical-link fit also stops within this many ulps of the largest column
# sum of |X' y|, in proportion to which its gradient X'(y - mu) rounds
GRAD_ULPS = 16
GLM_MAX_STEPS = 100  # Newton step cap of fit_glm
MIXTURE_MAX_ITER = 500  # EM iteration cap of each fit_normal_mixture start
MIXTURE_TOL = 1e-10  # relative log-likelihood gain at which a mixture start converges
MAX_HALVINGS = 30  # step halvings per damped Newton step
RIDGE = 1e-10  # regularizes a numerically singular Newton Jacobian
SIGMA_FLOOR_FACTOR = 1e-6  # times the sample SD of y; EM collapse guard
EXHAUSTIVE_LIMIT = 64
SHAPE_MAX = 1e8  # a gamma shape whose profile score is still positive here has no maximum
SERIES_SHAPE = 10.0  # from here up, log s - digamma(s) is summed as its asymptotic series
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)  # B_2 .. B_14


class FitError(RuntimeError):
    """Fitting failed (rank deficiency, divergence, degenerate mixture)."""

    def __init__(self, message: str, trace: tuple = ()):
        super().__init__(message)
        self.trace = trace


def _newton_step(jac: np.ndarray, score: np.ndarray) -> np.ndarray:
    try:
        step = np.linalg.solve(jac, -score)
        # a near-singular solve shows up as a poor residual
        if not np.all(np.isfinite(step)) or float(
            np.max(np.abs(jac @ step + score))
        ) > 1e-8 * (1.0 + float(np.max(np.abs(score)))):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        jac = jac - RIDGE * np.eye(jac.shape[0])
        step = np.linalg.lstsq(jac, -score, rcond=None)[0]
    return step


def _newton(x, system, max_steps: int, tol: float, step_tol: float = math.inf):
    """Damped Newton from the array ``x`` on ``system(x) -> (score, jacobian)``.

    Converged when the max-abs score is at most ``tol`` and the next step
    at most ``step_tol`` in every parameter.  A step is halved, at most
    ``MAX_HALVINGS`` times, until it lowers the score's Euclidean norm.
    Returns ``(x, trace, converged)``; ``trace`` starts with
    ``(0, 0.0, max-abs score)`` at ``x`` and adds
    ``(step, max|delta x|, max-abs score)`` per accepted step.  Unconverged
    after ``max_steps`` steps or when the halvings run out.
    """
    score, jac = system(x)
    norm = float(np.max(np.abs(score)))
    trace: list[tuple[int, float, float]] = [(0, 0.0, norm)]
    while True:
        step = _newton_step(jac, score)
        size = float(np.max(np.abs(step)))
        if norm <= tol and size <= step_tol:
            return x, trace, True
        if len(trace) > max_steps:
            return x, trace, False
        l2 = float(np.linalg.norm(score))
        for _ in range(MAX_HALVINGS + 1):
            cand = x + step
            cand_score, cand_jac = system(cand)
            if float(np.linalg.norm(cand_score)) < l2 or size < 1e-15:
                break
            step = 0.5 * step
            size *= 0.5
        else:
            return x, trace, False
        x, score, jac = cand, cand_score, cand_jac
        norm = float(np.max(np.abs(score)))
        trace.append((len(trace), size, norm))


@dataclass(frozen=True)
class RespondentFit:
    """A fitted respondents' model with its fit diagnostics."""

    spec: OutcomeSpec
    loglik: float
    iterations: int
    converged: bool
    trace: tuple[float, ...] = ()

    @property
    def n_params(self) -> int:
        return n_free_params(self.spec)

    @property
    def aic(self) -> float:
        return -2.0 * self.loglik + 2.0 * self.n_params


@dataclass(frozen=True)
class Candidate:
    """One model candidate: family plus per-component mean bases."""

    family: Family
    bases: tuple[BasisSet, ...]

    @property
    def k(self) -> int:
        return len(self.bases)


def _check_rank(x: np.ndarray) -> None:
    if x.shape[0] < x.shape[1]:
        raise FitError(
            f"{x.shape[0]} complete cases cannot identify {x.shape[1]} coefficients"
        )
    if np.linalg.matrix_rank(x) < x.shape[1]:
        raise FitError("design matrix is rank deficient on the complete cases")


def _finish(spec: OutcomeSpec, y, columns, iterations, converged, trace=()):
    ll = float(np.sum(log_density(spec, y, columns)))
    return RespondentFit(spec, ll, iterations, converged, trace)


# ---------------------------------------------------------------------------
# single-component GLM fits
# ---------------------------------------------------------------------------


def fit_glm(
    y: np.ndarray,
    columns: Mapping[str, np.ndarray],
    family: Family,
    mean_basis: BasisSet,
) -> RespondentFit:
    """Fit a one-component exponential-family model on complete cases.

    Raises FitError on a rank-deficient design or if damped Newton
    (``_newton``) fails to push the max-abs log-likelihood gradient below
    ``GRAD_TOL`` within ``GLM_MAX_STEPS`` steps (the gradient trace rides
    on the exception); for the canonical links (Bernoulli, Poisson) the
    bound is at least ``GRAD_ULPS`` ulps of ``max_k sum_i |x_ik y_i|``,
    the scale at which ``X'(y - mu)`` rounds, so that large counts can
    converge.  ``iterations`` counts the gradient evaluations at
    accepted points, the start included.
    """
    y = np.asarray(y, dtype=float)
    x = mean_basis.design(columns)
    _check_rank(x)

    if family is Family.NORMAL:
        coef, *_ = np.linalg.lstsq(x, y, rcond=None)
        resid = y - x @ coef
        sigma2 = float(np.mean(resid**2))
        if sigma2 < 1e-24 * (1.0 + float(np.mean(y**2))):
            sigma2 = 0.0  # exact interpolation up to rounding
        spec = OutcomeSpec(family, (Component(mean_basis, tuple(coef), sigma2),))
        if sigma2 == 0.0:
            # exact interpolation; the density is degenerate, report directly
            return RespondentFit(spec, math.inf, 1, True)
        return _finish(spec, y, columns, 1, True)

    coef = np.zeros(x.shape[1])
    tol = GRAD_TOL
    if family in (Family.BERNOULLI, Family.POISSON):
        rounding = np.finfo(float).eps * float(np.max(np.abs(x).T @ np.abs(y)))
        tol = max(GRAD_TOL, GRAD_ULPS * rounding)
    if family is Family.BERNOULLI:
        logistic = lambda eta: propensity_from_log_odds(-eta)
        system = _canonical_system(x, y, logistic, lambda mu: mu * (1.0 - mu))
    elif family is Family.POISSON:
        exp_mean = lambda eta: np.exp(np.clip(eta, -700, 30))
        system = _canonical_system(x, y, exp_mean, lambda mu: mu)
    elif family is Family.GAMMA:
        if np.any(y <= 0):
            raise FitError("gamma outcomes must be positive")
        if BasisTerm(()) in mean_basis.terms:
            coef[list(mean_basis.terms).index(BasisTerm(()))] = math.log(float(np.mean(y)))

        def system(c):  # log-mean link: the coefficient root is shape-free
            r = y * np.exp(-(x @ c))  # y / mu
            return x.T @ (r - 1.0), -(x.T @ (x * r[:, None]))

    else:  # pragma: no cover - exhaustive over Family
        raise ValueError(f"unsupported family {family}")

    coef, path, converged = _newton(coef, system, GLM_MAX_STEPS, tol)
    trace = tuple(norm for _, _, norm in path)
    if not converged:
        raise FitError(
            f"{family.value} Newton did not converge in {len(path) - 1} steps "
            f"(last gradient norm {trace[-1]:.3g})",
            trace=trace,
        )
    dispersion = _gamma_shape(x, y, coef) if family is Family.GAMMA else None
    spec = OutcomeSpec(family, (Component(mean_basis, tuple(coef), dispersion),))
    return _finish(spec, y, columns, len(path), True, trace)


def _canonical_system(x, y, mean_fn, var_fn):
    """Canonical-link GLM: gradient ``X'(y - mu)``, Jacobian ``-X' V(mu) X``."""

    def system(coef):
        mu = mean_fn(np.clip(x @ coef, -LP_CLAMP, LP_CLAMP))
        w = np.maximum(var_fn(mu), 1e-12)
        return x.T @ (y - mu), -(x.T @ (x * w[:, None]))

    return system


def _series(s: float) -> tuple[float, float]:
    """``log s - digamma(s)`` for ``s >= SERIES_SHAPE``, and its derivative in ``u = log s``.

    Written out the difference cancels to about ``1/(2s)``, so it comes
    from its asymptotic series ``1/(2s) + sum_k B_2k / (2k s^2k)``, and its
    derivative ``1 - s*trigamma(s)`` is ``-1/(2s) - sum_k B_2k / s^2k``;
    through B_14 both are exact to rounding there.
    """
    t = 1.0 / (s * s)
    value = slope = 0.0
    for k in range(len(_BERNOULLI), 0, -1):
        value = (value + _BERNOULLI[k - 1] / (2 * k)) * t
        slope = (slope + _BERNOULLI[k - 1]) * t
    return value + 0.5 / s, -(slope + 0.5 / s)


def digamma(s: float) -> float:
    """digamma(s), s > 0: ``digamma(s+1) - 1/s`` up to ``SERIES_SHAPE``, then the series.

    The terms are summed exactly (``math.fsum``), so only their own
    rounding is left.
    """
    terms = []
    while s < SERIES_SHAPE:
        terms.append(-1.0 / s)
        s += 1.0
    return math.fsum([math.log(s), -_series(s)[0], *terms])


def trigamma(s: float) -> float:
    """trigamma(s), s > 0: ``trigamma(s+1) + 1/s^2`` up to ``SERIES_SHAPE``, then the series."""
    terms = []
    while s < SERIES_SHAPE:
        terms.append(1.0 / (s * s))
        s += 1.0
    return math.fsum([(1.0 - _series(s)[1]) / s, *terms])


def _shape_score(u: float, stat: float) -> tuple[float, float]:
    """The gamma shape's profile score ``log s + 1 - digamma(s) + stat`` at
    ``s = exp(u)``, and its derivative in u.

    Below ``SERIES_SHAPE`` as written.  From there up ``log s - digamma(s)``
    is summed as its series (``_series``), as it cancels written out.
    """
    s = math.exp(u)
    if s < SERIES_SHAPE:
        return u + 1.0 - digamma(s) + stat, 1.0 - s * trigamma(s)
    value, slope = _series(s)
    # stat is near -1, so 1 + stat is exact
    return value + (1.0 + stat), slope


def _gamma_shape(x, y, coef) -> float:
    """Gamma shape maximizing the likelihood at the fitted mean coefficients.

    The profile score (``_shape_score``) falls in s, so it has one root,
    solved by ``_newton`` in ``u = log s`` from Minka's (2002) closed-form
    approximation.  The solve stops once the score is within 16 ulps of
    the size of its terms, as close to zero as it can be computed: about
    ``1 + |u| + |stat|`` below ``SERIES_SHAPE``, and about ``log s -
    digamma(s)`` where that is summed as its series.
    """
    eta = x @ coef
    stat = float(np.mean(np.log(y) - eta - y * np.exp(-eta)))
    if _shape_score(math.log(SHAPE_MAX), stat)[0] > 0:
        raise FitError("gamma shape likelihood has no interior maximum")

    def system(u):
        score, slope = _shape_score(u[0], stat)
        return np.array([score]), np.array([[slope]])

    gap = -1.0 - stat  # log s - digamma(s) at the root
    start = math.log((3.0 - gap + math.sqrt((gap - 3.0) ** 2 + 24.0 * gap)) / (12.0 * gap))
    # the root lies well inside the series' range, or may lie below it
    size = gap if start > math.log(2.0 * SERIES_SHAPE) else 1.0 + abs(start) + abs(stat)
    u, _, converged = _newton(np.array([start]), system, 50, 16.0 * np.finfo(float).eps * size)
    if not converged:
        raise FitError("gamma shape Newton did not converge")
    return math.exp(float(u[0]))


# ---------------------------------------------------------------------------
# normal mixture EM
# ---------------------------------------------------------------------------


def fit_normal_mixture(
    y: np.ndarray,
    columns: Mapping[str, np.ndarray],
    bases: Sequence[BasisSet],
    restarts: int = 10,
    rng: Optional[np.random.Generator] = None,
) -> RespondentFit:
    """EM fit of a K-component normal mixture with restarts.

    Returns the best local maximum, the first start with the highest
    log-likelihood, over one deterministic start (quantile-sliced
    residuals of a pooled least-squares fit) plus `restarts - 1` random
    starts.  All starts run as one batched EM (``_em_batch``), each with
    its own trace, iteration count and abort rule.  A start converges once
    an iteration gains at most ``MIXTURE_TOL * (1 + |ll|)`` in
    log-likelihood, within ``MIXTURE_MAX_ITER`` iterations.  A component
    that loses nearly all its mass, or whose standard deviation collapses
    below 1e-6 times the sample SD of y, aborts that start.  If every
    start aborts a FitError is raised.
    """
    y = np.asarray(y, dtype=float)
    k = len(bases)
    if k == 1:
        return fit_glm(y, columns, Family.NORMAL, bases[0])
    rng = rng or np.random.default_rng(0)
    designs = [b.design(columns) for b in bases]
    for d in designs:
        _check_rank(d)
    sd_floor = SIGMA_FLOOR_FACTOR * float(np.std(y))
    if sd_floor == 0.0:
        raise FitError("outcome is constant; mixture fitting is degenerate")

    resp = np.stack(
        [
            _initial_responsibilities(y, columns, bases, k, start, rng).T
            for start in range(max(1, restarts))
        ],
        axis=1,
    )
    runs = _em_batch(y, designs, resp, sd_floor, MIXTURE_MAX_ITER, MIXTURE_TOL)
    fits = [run for run in runs if not isinstance(run, FitError)]
    if not fits:
        raise FitError(
            "all mixture starts degenerated: " + "; ".join(map(str, runs[:3]))
        )
    ll, coefs, sigma2s, weights, iters, converged, trace = max(fits, key=lambda r: r[0])
    comps = tuple(
        Component(b, tuple(c), float(s2))
        for b, c, s2 in zip(bases, coefs, sigma2s)
    )
    spec = OutcomeSpec(Family.NORMAL, comps, weights=tuple(weights))
    return RespondentFit(spec, ll, iters, converged, trace)


def _initial_responsibilities(y, columns, bases, k, start, rng):
    n = y.size
    if start == 0:
        pool_terms = tuple(dict.fromkeys(itertools.chain(*(b.terms for b in bases))))
        pool = BasisSet(pool_terms, bases[0].kinds)
        xp = pool.design(columns)
        resid = y - xp @ np.linalg.lstsq(xp, y, rcond=None)[0]
        order = np.argsort(resid, kind="stable")
        resp = np.zeros((n, k))
        for j, block in enumerate(np.array_split(order, k)):
            resp[block, j] = 1.0
        return resp
    resp = rng.random((n, k)) + 0.1
    return resp / resp.sum(axis=1, keepdims=True)


def _solve_stack(gram, rhs):
    """Solve stacked systems; returns the solutions and a mask of singular ones."""
    try:
        return np.linalg.solve(gram, rhs[..., None])[..., 0], np.zeros(len(gram), bool)
    except np.linalg.LinAlgError:
        out, singular = np.zeros(rhs.shape), np.zeros(len(gram), bool)
        for i, (g, r) in enumerate(zip(gram, rhs)):
            try:
                out[i] = np.linalg.solve(g, r)
            except np.linalg.LinAlgError:
                singular[i] = True
        return out, singular


def _em_batch(y, designs, resp, sd_floor, max_iter, tol):
    """EM from every start at once over (K, starts, n) responsibilities.

    Each start iterates as a lone EM would: an M-step of weighted least
    squares per component (one stacked solve over the starts), then an
    E-step giving the responsibilities and the observed-data
    log-likelihood, until the log-likelihood gains at most
    ``tol * (1 + |ll|)``.  A start leaves the active set when it converges
    or aborts.  Returns one entry per start: ``(ll, coefs, sigma2s,
    weights, iterations, converged, trace)``, or the FitError that
    aborted it.
    """
    k, starts, n = resp.shape
    # per-unit x x' and x y, so each start's normal equations are one matmul
    outers = [(d[:, :, None] * d[:, None, :]).reshape(n, -1) for d in designs]
    cross = [d * y[:, None] for d in designs]
    runs: list = [None] * starts
    traces: list[list[float]] = [[] for _ in range(starts)]
    active = np.arange(starts)
    ll_prev = np.full(starts, -np.inf)
    for it in range(1, max_iter + 1):
        ok = np.ones(active.size, dtype=bool)
        errors: dict[int, FitError] = {}

        def abort(mask, message):
            bad = mask & ok
            if bad.any():
                errors.update((i, FitError(message)) for i in np.flatnonzero(bad))
                ok[bad] = False

        # M-step: weighted least squares per component, all starts stacked
        coefs, resid = [], []
        sigma2s, weights = np.empty((k, active.size)), np.empty((k, active.size))
        for j, d in enumerate(designs):
            w = resp[j]
            total = w.sum(axis=1)
            abort(total < d.shape[1], "a mixture component lost nearly all its mass")
            p = d.shape[1]
            gram, rhs = (w[ok] @ outers[j]).reshape(-1, p, p), w[ok] @ cross[j]
            coef = np.zeros((active.size, p))
            singular = np.zeros(active.size, dtype=bool)
            coef[ok], singular[ok] = _solve_stack(gram, rhs)
            abort(singular, "singular weighted design in the M-step")
            r = y - coef @ d.T
            sigma2s[j] = np.sum(w * r**2, axis=1) / np.where(ok, total, 1.0)
            abort(sigma2s[j] < sd_floor**2, "component variance collapsed")
            weights[j] = total / n
            coefs.append(coef)
            resid.append(r)
        for i, err in errors.items():
            runs[active[i]] = err
        active, ll_prev = active[ok], ll_prev[ok]
        if not active.size:
            break
        sigma2s, weights = sigma2s[:, ok], weights[:, ok]
        coefs, resid = [c[ok] for c in coefs], [r[ok] for r in resid]
        # E-step: responsibilities and the observed-data log-likelihood
        logp = np.stack(
            [
                np.log(pi)[:, None]
                - 0.5 * (np.log(2.0 * math.pi * s2)[:, None] + r**2 / s2[:, None])
                for pi, s2, r in zip(weights, sigma2s, resid)
            ]
        )
        norm = _logsumexp0(logp)
        ll = np.sum(norm, axis=1)
        resp = np.exp(logp - norm)
        for start, value in zip(active.tolist(), ll.tolist()):
            traces[start].append(value)
        done = (ll - ll_prev <= tol * (1.0 + np.abs(ll))) & (it > 1)
        for i in np.flatnonzero(done | (it == max_iter)):
            start = active[i]
            runs[start] = (
                float(ll[i]), [c[i] for c in coefs], sigma2s[:, i], weights[:, i],
                it, bool(done[i]), tuple(traces[start]),
            )
        keep = ~done
        active, ll_prev, resp = active[keep], ll[keep], resp[:, keep]
        if not active.size:
            break
    return runs


# ---------------------------------------------------------------------------
# model selection
# ---------------------------------------------------------------------------


def _fit_candidate(y, columns, cand: Candidate, rng, restarts):
    if cand.family is Family.NORMAL and cand.k > 1:
        return fit_normal_mixture(y, columns, cand.bases, restarts=restarts, rng=rng)
    if cand.k != 1:
        raise FitError("mixtures are supported for the normal family only")
    return fit_glm(y, columns, cand.family, cand.bases[0])


def select_aic(
    y: np.ndarray,
    columns: Mapping[str, np.ndarray],
    candidates: Sequence[Candidate],
    rng: Optional[np.random.Generator] = None,
    restarts: int = 10,
) -> tuple[Candidate, RespondentFit]:
    """Fit every candidate and return the smallest-AIC fit.

    Ties break toward fewer parameters, then earlier candidates.
    Candidates that fail to fit are skipped; if all fail, the first
    error propagates.
    """
    if not candidates:
        raise ValueError("at least one candidate required")
    rng = rng or np.random.default_rng(0)
    best: Optional[tuple] = None
    first_error: Optional[FitError] = None
    for idx, cand in enumerate(candidates):
        try:
            fit = _fit_candidate(y, columns, cand, rng, restarts)
        except FitError as err:
            first_error = first_error or err
            continue
        key = (fit.aic, fit.n_params, idx)
        if best is None or key < best[0]:
            best = (key, cand, fit)
    if best is None:
        raise FitError(f"every candidate failed; first error: {first_error}")
    return best[1], best[2]


def search_basis_by_aic(
    y: np.ndarray,
    columns: Mapping[str, np.ndarray],
    family: Family,
    pool: BasisSet,
    exhaustive_limit: int = EXHAUSTIVE_LIMIT,
) -> tuple[BasisSet, RespondentFit]:
    """AIC search over sub-bases of a term pool.

    Exhaustive over all nonempty subsets when their number is within
    `exhaustive_limit`; greedy forward/backward stepwise otherwise.
    """
    terms = pool.terms
    kinds = pool.kinds

    def fit_subset(subset: tuple[BasisTerm, ...]) -> Optional[RespondentFit]:
        try:
            return fit_glm(y, columns, family, BasisSet(subset, kinds))
        except FitError:
            return None

    if 2 ** len(terms) - 1 <= exhaustive_limit:
        best = None
        for r in range(1, len(terms) + 1):
            for subset in itertools.combinations(terms, r):
                fit = fit_subset(subset)
                if fit is None:
                    continue
                key = (fit.aic, fit.n_params)
                if best is None or key < best[0]:
                    best = (key, subset, fit)
        if best is None:
            raise FitError("no subset of the term pool could be fitted")
        return BasisSet(best[1], kinds), best[2]

    # greedy forward passes with backward deletion sweeps
    current: list[BasisTerm] = []
    current_fit: Optional[RespondentFit] = None
    improved = True
    while improved:
        improved = False
        for t in terms:
            if t in current:
                continue
            fit = fit_subset(tuple(current + [t]))
            if fit and (current_fit is None or fit.aic < current_fit.aic - 1e-12):
                current.append(t)
                current_fit = fit
                improved = True
        for t in list(current):
            if len(current) == 1:
                break
            reduced = tuple(u for u in current if u != t)
            fit = fit_subset(reduced)
            if fit and current_fit and fit.aic < current_fit.aic - 1e-12:
                current.remove(t)
                current_fit = fit
                improved = True
    if current_fit is None:
        raise FitError("stepwise search found no fittable model")
    return BasisSet(tuple(current), kinds), current_fit

"""Reference paths that only tests call: the stored donor grid, finite-difference
scores, a mixture's per-cell responsibility pass, per-row sampling, the
one-level solve, the exact respondent walks and the variance's own walk of
the missing units, the score sums of full weight arrays, and EM on a dense
weight array.

The package computes the donor weights block by block from the factors
of ``fiem._donor_kernel`` (for a mixture one rank-one grid per component,
whose responsibilities its score sums read), every outcome-model score in
closed form, a parametric pool from each unit's own parameters, a large
donor fit's root from a coarse grid's, on many values ``log C`` and ``d
log C/d gamma`` by interpolation in y, and the variance's missing-unit
pieces from the sums the solve reduced at the root; these are the
independent versions the tests compare them with.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from fimnar.dataio import Dataset
from fimnar.expfam import (
    Family,
    OutcomeSpec,
    _check_theta_domain,
    _effective_theta,
    _log_mix_weights,
    _logsumexp0,
    flatten_params,
    log_density,
    log_density_factors,
    log_density_outer,
    unflatten_params,
)
from fimnar.fiem import (
    MAX_NEWTON_STEPS,
    FiControls,
    _blocks,
    _centred_powers,
    _donor_blocks,
    _donor_kernel,
    _evaluate,
    _exp_rows,
    _fixed_weight_solve,
    _initial_phi,
    _log_c_at,
    _LogWeights,
    _score_arrays,
    _value_rows,
)
from fimnar.respondent import FitError, _newton
from fimnar.response import propensity_from_log_odds
from fimnar.variance import _component_sums, _moment_columns, _one_component_sums

FD_STEP_GAMMA = 1e-4  # relative step of the finite-difference score check


def _take(columns, rows: slice) -> dict:
    return {name: col[rows] for name, col in columns.items()}


def _normalize_rows(logw: np.ndarray, first: int = 0) -> np.ndarray:
    """``fiem._exp_rows`` with each row divided by its sum, in place."""
    w = _exp_rows(logw, first)
    w /= w.sum(axis=1, keepdims=True)
    return w


@dataclass(frozen=True)
class StoredGrid(_LogWeights):
    """A donor kernel that stores its (n_missing, values) log weights ``base``.

    Its weights are ``exp(base - beta*y)``, built block by block from the
    stored array as the package built a mixture's weights before its
    kernel kept one rank-one grid per component: the reference for the
    factored kernels, through every pass that takes a ``_LogWeights``.
    It has no factors, so no coarse level.
    """

    def block(self, rows: slice, out=None, parts=()) -> np.ndarray:
        y = self.donor_y if self.donor_y.ndim == 1 else self.donor_y[rows]
        return _exp_rows(np.subtract(self.base[rows], self.beta * y, out=out), rows.start or 0)


@dataclass(frozen=True)
class DenseWeights(_LogWeights):
    """Weights held as one (n_missing, values) array ``base``, whose rows every walk copies.

    The form in which the EM fallback held each iteration's weights before
    its M-steps walked the kernel: a block is a copy of ``base``'s rows,
    so the walks reduce it as they reduced that array.
    """

    def block(self, rows: slice, out=None, parts=()) -> np.ndarray:
        np.copyto(out, self.base[rows])
        return out


def dense_em(phi, arrays, kernel: _LogWeights, controls: FiControls):
    """``fiem._em`` with each iteration's weights built once as a dense array, as
    it was before its M-steps walked the kernel at the E-step's beta."""
    trace = []
    for iteration in range(1, controls.max_em_iter + 1):
        w = DenseWeights(replace(kernel, beta=phi.beta)[:], 0.0, kernel.donor_y)
        new_phi, score_norm = _fixed_weight_solve(phi, arrays, w, controls)
        change = float(np.max(np.abs(new_phi.phi - phi.phi)))
        trace.append((iteration, change, score_norm))
        phi = new_phi
        if change <= controls.tol_phi:
            return phi, trace
    raise FitError("dense EM did not converge", trace=tuple(trace))


# ---------------------------------------------------------------------------
# a normal mixture's scores by one pass over its component densities per cell
# ---------------------------------------------------------------------------


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
    """``score_sums`` of a normal mixture from its ``_responsibilities`` pieces.

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


def mixture_score_sums(gamma: OutcomeSpec, y_donors: np.ndarray, columns, weights):
    """``score_sums`` of a normal mixture by one responsibility pass over
    the (units, donors) cells, as it was before it read the responsibilities from
    the components' factors."""
    pieces = _responsibilities(gamma, y_donors[None, :], columns)[1]
    return _mixture_sums(gamma, pieces, weights)


def mixture_respondent_scores(gamma: OutcomeSpec, y: np.ndarray, columns) -> np.ndarray:
    """``variance.respondent_score_gamma`` of a normal mixture by the responsibility pass."""
    y = np.asarray(y, dtype=float)
    pieces = _responsibilities(gamma, y[:, None], columns)[1]
    return _mixture_sums(gamma, pieces, (np.ones((y.size, 1)),))[0]


def outer_responsibilities(gamma: OutcomeSpec, y: np.ndarray, columns) -> np.ndarray:
    """Each component's responsibility ``pi_k f_k / f`` of a mixture at every value ``y``
    under every unit's model, (K, units, values), from ``log_density_factors``."""
    slope, offset, log_c = log_density_factors(gamma, y, columns)
    log_p = slope[:, :, None] * y + offset[:, :, None] + log_c[:, None, :]
    log_p -= log_p.max(axis=0)
    np.exp(log_p, out=log_p)
    log_p /= log_p.sum(axis=0)
    return log_p


def score_sums(gamma: OutcomeSpec, y_donors: np.ndarray, columns, weights):
    """Per-unit sums ``sum_j V_rj s1(x_r, y_j)``, (units, q), for each full array V in
    ``weights``: the closed form of ``variance._component_sums`` on the row moments of
    ``V r_k`` against the ``_centred_powers`` (1, y, y^2, log y), with a mixture's
    responsibilities ``r_k`` from ``outer_responsibilities``.  ``gamma`` is a
    respondents' model, so it carries no tilt."""
    logs, lo, _ = _moment_columns(gamma)
    shift, powers = _centred_powers(y_donors, logs)
    r = outer_responsibilities(gamma, y_donors, columns) if gamma.k > 1 else np.ones((1, 1, 1))
    return [_component_sums(gamma, columns, shift, (r * v) @ powers[:, lo]) for v in weights]


def _donor_log_c(gamma: OutcomeSpec, data: Dataset) -> np.ndarray:
    """log C(y_j) for every donor j, computed once per unique value."""
    values, inverse = np.unique(data.y_observed, return_inverse=True)
    return _log_c_at(gamma, values, data)[inverse]


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
    for rows, _ in _blocks(*base.shape):
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


def sample_per_row(
    spec: OutcomeSpec, columns, rng: np.random.Generator
) -> np.ndarray:
    """One outcome per row, each row's parameters evaluated on the rows that
    picked a component: ``expfam.sample`` as it was before it took a draw count."""
    n = len(next(iter(columns.values())))
    if spec.k == 1:
        pick = np.zeros(n, dtype=int)
    else:
        probs = np.exp(_log_mix_weights(spec, columns)).T  # (n, K)
        cum = np.cumsum(probs, axis=1)
        u = rng.random(n)
        pick = np.sum(u[:, None] >= cum, axis=1)
        pick = np.clip(pick, 0, spec.k - 1)
    out = np.empty(n)
    for k in range(spec.k):
        rows = pick == k
        if not np.any(rows):
            continue
        sub = {name: np.asarray(col)[rows] for name, col in columns.items()}
        theta = _effective_theta(spec, k, sub)
        if spec.family is Family.NORMAL:
            sigma = math.sqrt(float(spec.components[k].dispersion))
            out[rows] = rng.normal(theta, sigma)
        elif spec.family is Family.BERNOULLI:
            out[rows] = (rng.random(theta.size) < propensity_from_log_odds(-theta)).astype(float)
        elif spec.family is Family.POISSON:
            out[rows] = rng.poisson(np.exp(theta)).astype(float)
        else:
            s = float(spec.components[k].dispersion)
            _check_theta_domain(Family.GAMMA, theta)
            out[rows] = rng.gamma(shape=s, scale=1.0 / (s * theta))
    return out


def tiled_parametric_pool(
    gamma: OutcomeSpec, data: Dataset, m_draws: int, rng: np.random.Generator
) -> np.ndarray:
    """``fiem._parametric_pool`` by repeating every missing unit's covariates
    ``m_draws`` times and drawing once per repeated row."""
    tiled = {k: np.repeat(v, m_draws) for k, v in data.missing_columns().items()}
    return sample_per_row(gamma, tiled, rng).reshape(data.n_missing, m_draws)


def one_level_root(data: Dataset, gamma: OutcomeSpec, h_basis):
    """The donor fit's root by Newton on the full grid alone, from the ignorable start.

    ``em_fit``'s solve with no coarse level and no EM fallback: the same
    equation, start, step cap and convergence test at the default
    ``FiControls``.  Returns
    ``(phi, steps)``; raises FitError when it does not converge.
    """
    phi = _initial_phi(h_basis, data)
    kernel = _donor_kernel(gamma, data)[0]
    arrays = _score_arrays(phi, data)

    def system(x):
        p = phi.with_phi(x)
        return _evaluate(p, arrays, replace(kernel, beta=p.beta), True)[:2]

    controls = FiControls()
    steps = min(MAX_NEWTON_STEPS, controls.max_em_iter)
    x, path, converged = _newton(phi.phi, system, steps, controls.tol_score, controls.tol_phi)
    if not converged:
        raise FitError("the one-level solve did not converge")
    return x, len(path) - 1


def _logsumexp_blocks(blocks, n_cols: int) -> np.ndarray:
    """``expfam._logsumexp0`` of the row blocks stacked, in one pass over them.

    A running column max rescales the running sum whenever it rises;
    columns that are ``-inf`` throughout stay ``-inf``.  The blocks are
    read, not written: ``exp(a - shift)`` goes to a scratch buffer that
    grows to the largest block.
    """
    top, total = np.full(n_cols, -np.inf), np.zeros(n_cols)
    shift = np.zeros(n_cols)
    scratch = np.empty((0, n_cols))
    for a in blocks:
        new_top = np.maximum(top, a.max(axis=0))
        shift = np.where(np.isfinite(new_top), new_top, 0.0)
        total *= np.exp(top - shift)
        if a.shape[0] > scratch.shape[0]:
            scratch = np.empty(a.shape)
        tmp = np.subtract(a, shift, out=scratch[: a.shape[0]])
        total += np.exp(tmp, out=tmp).sum(axis=0)
        top = new_top
    with np.errstate(divide="ignore"):
        return np.where(np.isfinite(top), shift + np.log(total), top)


def _log_density_blocks(gamma: OutcomeSpec, y: np.ndarray, columns, n_rows: int):
    """``(rows, log(pi_k f_k(y | x_r)))`` for each row block of the K*``n_rows`` rows (k, r),
    each one matmul of the rows' factors ``(slope, offset, one-hot k)`` with ``(y, 1,
    log c_0(y), ..., log c_{K-1}(y))``."""
    slope, offset, log_c = log_density_factors(gamma, y, columns)
    k, n = slope.shape
    left = np.column_stack([slope.ravel(), offset.ravel(), np.repeat(np.eye(k), n, axis=0)])
    right = np.vstack([y, np.ones_like(y), log_c])
    for rows, (buffer,) in _blocks(left.shape[0], right.shape[1], 1):
        yield rows, np.matmul(left[rows], right, out=buffer)


def online_log_c(gamma: OutcomeSpec, values: np.ndarray, data: Dataset) -> np.ndarray:
    """log C at every value by an online log-sum-exp over row blocks of the K*n1
    factored respondent rows: ``fiem._log_c_at``'s exact walk as it was before it
    shared the points-major walk of ``d log C/d gamma``."""
    blocks = _log_density_blocks(gamma, values, data.respondent_columns(), data.n_respondents)
    return _logsumexp_blocks((b for _, b in blocks), values.size)


def grad_log_c_walk(gamma: OutcomeSpec, y_u: np.ndarray, data: Dataset):
    """``variance._grad_log_c`` as it was before it shared ``log C``'s walk: its own
    factor layout (the rows' ``(slope, offset, one-hot k)`` less the first one-hot
    column) and its own points-major blocks."""
    resp_cols, n1 = data.respondent_columns(), data.n_respondents
    logs, lo, _ = _moment_columns(gamma)
    shift = float(np.mean(y_u))
    slope, offset, _ = log_density_factors(gamma, y_u, resp_cols)
    k, n = slope.shape
    left = np.column_stack([slope.ravel(), offset.ravel(), np.repeat(np.eye(k), n, axis=0)])
    right = np.ascontiguousarray(np.delete(left, 2, axis=1).T)

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
        points = np.ascontiguousarray(_value_rows(gamma, t).T)
        for rows, (p,) in _blocks(t.size, right.shape[1], 1):
            np.matmul(points[rows], right, out=p)
            p -= p.max(axis=1, keepdims=True)
            np.exp(p, out=p)
            b = (p @ a) / p.sum(axis=1, keepdims=True)
            out[rows] = np.einsum("rkq,rk->rq", b.reshape(-1, len(lo), q), phi[rows])
        return out

    return at


def exact_log_c(gamma: OutcomeSpec, values: np.ndarray, data: Dataset) -> np.ndarray:
    """log C at every value by the walk of respondent blocks, on any number of values:
    ``fiem._log_c_at`` as it was before it interpolated in y, with a mixture's log
    densities from ``log_density_outer``, as before its rows were factored."""
    resp_cols, n1 = data.respondent_columns(), data.n_respondents
    if gamma.k > 1:
        blocks = (log_density_outer(gamma, values, _take(resp_cols, rows))
                  for rows, _ in _blocks(n1, values.size))
    else:
        blocks = (block for _, block in _log_density_blocks(gamma, values, resp_cols, n1))
    return _logsumexp_blocks(blocks, values.size)


def exact_via_c(gamma: OutcomeSpec, values, c, log_c, data: Dataset) -> np.ndarray:
    """``sum_j c_j d log C(y_j)/d gamma`` by the walk of respondent blocks: per
    respondent the moments of ``c_j P(l | y_j)``, from the exact ``log_c`` at the
    values, then ``_one_component_sums``; the per-respondent walk that
    ``variance._mu_y_grad_gamma`` ran before it interpolated in y.  A mixture's
    block is one responsibility pass, as ``_mu_y_grad_gamma`` walked it before its
    rows were factored."""
    resp_cols, n1 = data.respondent_columns(), data.n_respondents
    if gamma.k > 1:
        via_c = 0.0
        for rows, _ in _blocks(n1, values.size):
            log_f, pieces = _responsibilities(gamma, values[None, :], _take(resp_cols, rows))
            p = np.exp(log_f - log_c) * c
            via_c += _mixture_sums(gamma, pieces, (p,))[0].sum(axis=0)
        return via_c
    logs, lo, _ = _moment_columns(gamma)
    shift, powers = _centred_powers(values, logs)
    weighted = powers[:, lo] * c[:, None]
    m = np.empty((n1, len(lo)))
    for rows, p in _log_density_blocks(gamma, values, resp_cols, n1):
        p -= log_c
        m[rows] = np.exp(p, out=p) @ weighted
    return _one_component_sums(gamma, resp_cols, shift, m).sum(axis=0)


def walked_missing_pieces(phi, gamma: OutcomeSpec, weights, data: Dataset, score_sums=None):
    """``variance._missing_pieces`` by a walk of its own at ``phi``, as it was before
    it read the kernel sums that came with the weights.

    One walk of the donor kernel reduces, block by block, ``s0bar``, the
    ``score_sums`` of (w, w pi, w pi y), and for ``V_ij = w_ij (y_j -
    ybar_i)`` the per-value ``c_j = sum_i V_ij`` and ``sum_ij V_ij
    s1(x_i, y_j)``, with ``ybar`` the weights'; one component from the
    blocks' moments against the centred powers, a mixture from each
    block's responsibility pass (``mixture_score_sums``), or from
    ``score_sums`` where it is given, whatever the model.
    """
    miss_cols = data.missing_columns()
    b_miss = phi.h_basis.design(miss_cols)
    y_u = weights.values
    n0, q = b_miss.shape[0], flatten_params(gamma).size
    logs, lo, hi = _moment_columns(gamma)
    shift, powers = _centred_powers(y_u, logs)
    t = weights.ybar - shift
    m_u, m_wp = np.empty((n0, powers.shape[1])), np.empty((n0, powers.shape[1]))
    c = np.zeros(y_u.size)
    if score_sums is None and gamma.k > 1:
        score_sums = mixture_score_sums
    sums = [np.empty((n0, q)) for _ in range(4)]  # of (w, w pi, w pi y, V), by score_sums
    for rows, _, u, wp, *_ in _donor_blocks(phi, b_miss, weights.kernel):
        m_u[rows] = u @ powers
        s = m_u[rows, 0]
        col = u.T @ np.column_stack([1.0 / s, t[rows] / s])
        c += powers[:, 1] * col[:, 0] - col[:, 1]
        np.multiply(u, wp, out=wp)  # u pi
        m_wp[rows] = wp @ powers
        if score_sums is not None:
            v = (y_u[None, :] - weights.ybar[rows, None]) * u
            block = score_sums(gamma, y_u, _take(miss_cols, rows), (u, wp, wp * y_u, v))
            for out, r in zip(sums, block):
                out[rows] = r / s[:, None]
    s = m_u[:, :1].copy()
    m_u /= s
    m_wp /= s
    s0bar = -np.column_stack([m_wp[:, :1] * b_miss, m_wp[:, 1] + shift * m_wp[:, 0]])
    if score_sums is None:
        moments = (
            m_u[:, lo],
            m_wp[:, lo],
            m_wp[:, hi] + shift * m_wp[:, lo],
            m_u[:, hi] - t[:, None] * m_u[:, lo],
        )
        sums = [_one_component_sums(gamma, miss_cols, shift, m) for m in moments]
    *sums, r_v = sums
    return b_miss, s0bar, np.column_stack([b_miss, weights.ybar]), sums, c, r_v.sum(axis=0)

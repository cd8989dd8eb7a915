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

The coarse level: every Newton evaluation walks the whole missing-unit
x value grid, so a large one-component donor fit first solves the same
equation on a coarse grid with the same unit slopes.  The sorted values
are cut at ``COARSE_BINS`` equal-count and as many equal-width edges,
and each bin becomes the two-node Gauss rule of its value weights
``exp(e_j)``, which matches the bin's moments 0-3; the log weights of a
unit are smooth in y, so the coarse root lands within about 1e-7 of the
full one (s1, n=6000), and its solve stops once the next step is below
``COARSE_STEP``.  That root is only a start: the full grid's solve
runs from it with the same tolerances, convergence test and EM fallback
(EM still from the ignorable start), so the root is the full grid's, and
its Newton steps, about one instead of five, are what the trace counts.
Where the coarse solve does not converge the full one starts from the
ignorable start.  The coarse level exists only where it has at most a
quarter as many nodes as there are values; mixtures, the parametric
engine, binary outcomes and pools of up to about 4000 values take the
one-level solve.

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

Memory: every walk of a grid goes through ``_blocks``, which cuts the
rows into blocks of about ``CELLS`` grid cells, and at least
``MIN_BLOCK_ROWS`` rows so that per-block work over the value axis (the
running column max of ``log C``, the variance's per-value sums) is
shared by several rows on the largest grids, and allocates the pass's
block buffers once, so that each block is written into the same memory.
On it, ``_weight_blocks`` yields each block's weights, rebuilt from the
factors by ``_LogWeights``, and the donor kernel ``_donor_blocks`` adds
the propensities; the solver and the variance code reduce these, and
``log C`` is an online logsumexp over row blocks of respondents, kept
once per unique value.

The cell: a block's weights are left unnormalized, ``u = exp(logw -
rowmax)``, one ``exp`` per cell.  Every per-unit reduction is linear in
the unit's row, so it runs on ``u``, and the row sum, the ones column of
the same moment matmul that gives the weighted donor mean and spread, is
divided out once per unit.  The propensity is ``1 / (1 + a_i b_j)`` from
odds factors taken once per pass (``response.propensity_from_odds``), so
it costs no ``exp`` per cell; a pass whose factors leave the floating
range uses the log-odds form.  The solve's last evaluation is at the
root, so ``em_fit`` keeps the unit moments it reduced there and needs no
separate pass for them.  So a one-component fit stores only vectors over
units and unique donor values, plus a few block buffers; only the EM
fallback holds its iteration's (n_missing, unique values) weights.  A
mixture's log density has no such factors, so its fit stores one
(n_missing, unique values) array of ``log f - log C``; ``_LogWeights``
builds a block from whichever of the two it holds, so its readers do not
tell them apart.

An alternative "parametric" engine draws a fixed per-unit pool of M
imputed values from the respondents' density and weights it by the
nonresponse odds alone (``-beta*y``, no base); it exists for
cross-checking the donor scheme and is not used for variance estimation.
The pool is ``expfam.sample`` with M draws per missing unit: each unit's
parameters are evaluated once on its own covariates and repeated over its
draws, so the pool costs O(n_missing*M) time and memory and no design is
built per draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .dataio import Dataset
from .expfam import Family, OutcomeSpec, log_density_factors, log_density_outer, sample
from .respondent import FitError, RespondentFit, _newton, fit_glm
from .response import ResponseSpec, odds_factor, propensity_from_log_odds, propensity_from_odds

__all__ = [
    "FiControls",
    "FractionalWeights",
    "FitResult",
    "fractional_weights",
    "mean_score",
    "score_jacobian",
    "solve_mean_score",
    "em_fit",
    "estimate_mu_y",
]


MAX_NEWTON_STEPS = 50  # step cap of every Newton solve of the mean score equation


@dataclass(frozen=True)
class FiControls:
    """Stopping rules of the solves of the mean score equation.

    Every solve is ``respondent._newton``.  ``em_fit`` converges when the
    max-abs score ``S(phi; w(beta))`` is at most ``tol_score`` and the next
    step at most ``tol_phi`` in every parameter, within
    ``min(MAX_NEWTON_STEPS, max_em_iter)`` steps.  Where it does not, EM
    from the same start runs until an iteration moves phi by at most
    ``tol_phi`` (within ``max_em_iter`` iterations), and the same solve
    starts again from EM's phi.  Fixed-weight solves stop at
    ``tol_score`` within ``MAX_NEWTON_STEPS`` steps.
    """

    tol_phi: float = 1e-8
    tol_score: float = 1e-8
    max_em_iter: int = 500


class FractionalWeights:
    """Normalized donor weights for every missing unit.

    The weights are ``kernel``, a ``_LogWeights`` over the values
    ``values = kernel.donor_y``: for the donor engine the donors' unique
    values, with ``inverse`` mapping each donor to its value, and for the
    parametric engine an (n_missing, M) array of per-unit imputed pools.
    ``kernel`` and ``values`` are what the solver and the variance code
    reduce.  The property ``w`` is the per-donor array, rows summing to
    one, built on each read (a value's weight split evenly among its
    donors) and never kept.  ``ybar`` and ``spread`` are each unit's
    weighted donor mean and centred second moment ``sum_j w_ij (y_j -
    ybar_i)^2``: ``moments`` when given (``em_fit`` passes the ones its
    solver reduced at these weights), else computed once here by
    ``_unit_moments``.  ``n_missing`` counts the missing units, the
    kernel's rows.  ``log_c`` is the donor engine's
    ``log C(y)`` at each of the values, under the respondents' model the
    weights were built with, kept for the variance of the outcome mean.
    """

    def __init__(
        self,
        n_missing: int,
        kernel: "_LogWeights",
        log_c: Optional[np.ndarray] = None,
        inverse: Optional[np.ndarray] = None,
        moments: Optional[tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        self.n_missing = int(n_missing)
        self.log_c = log_c
        self.kernel = kernel
        self.values = kernel.donor_y
        self.inverse = inverse
        if moments is None:
            moments = _unit_moments(self.kernel, self.values, self.n_missing)
        self.ybar, self.spread = moments

    @property
    def w(self) -> np.ndarray:
        full = self.kernel[: self.n_missing]
        if self.inverse is None:
            return full
        return full[:, self.inverse] / np.bincount(self.inverse)[self.inverse]


@dataclass
class FitResult:
    """The root of the mean score equation, with the weights there.

    ``em_fit`` returns one only for a converged solve.  ``weights`` are
    the fractional weights at ``phi_hat``, which the point estimate of
    the outcome mean and both variances reduce; ``mean_score_norm`` and
    ``trace`` describe the solve on the full donor grid, and
    ``em_iterations`` counts the trace's steps (a coarse start's steps are
    not among them).
    """

    phi_hat: ResponseSpec
    weights: FractionalWeights
    mean_score_norm: float
    trace: tuple[tuple[int, float, float], ...] = ()

    @property
    def phi(self) -> np.ndarray:
        return self.phi_hat.phi

    @property
    def em_iterations(self) -> int:
        return len(self.trace)


# ---------------------------------------------------------------------------
# the donor kernel: row blocks of the missing-unit x donor grid
# ---------------------------------------------------------------------------

CELLS = 1 << 16  # grid cells per row block; a block of 64k doubles fits in cache
MIN_BLOCK_ROWS = 4  # walks that do per-block work over every column amortize it over these


def _blocks(n_rows: int, n_cols: int, buffers: int = 0):
    """``(rows, views)`` for each slice of ``max(MIN_BLOCK_ROWS, CELLS // n_cols)`` rows of ``range(n_rows)``.

    ``views`` holds the block's leading rows of ``buffers`` arrays of
    (rows, ``n_cols``) that the pass allocates once, so that each block is
    written into the same memory; this is the one place that allocates
    block buffers.
    """
    step = max(MIN_BLOCK_ROWS, CELLS // max(n_cols, 1))
    room = [np.empty((min(step, n_rows), n_cols)) for _ in range(buffers)]
    for start in range(0, n_rows, step):
        rows = slice(start, min(start + step, n_rows))
        yield rows, [buffer[: rows.stop - start] for buffer in room]


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


def _exp_rows(logw: np.ndarray, first: int = 0) -> np.ndarray:
    """In-place ``exp(logw - rowmax)``: each row's weights up to their sum.

    ``first`` is the missing-unit index of row 0, for the error message.
    """
    if logw.size == 0:
        return np.zeros_like(logw)
    row_max = np.max(logw, axis=1)
    _check_covered(np.isfinite(row_max), first)
    logw -= row_max[:, None]
    return np.exp(logw, out=logw)


def _normalize_rows(logw: np.ndarray, first: int = 0) -> np.ndarray:
    """``_exp_rows`` with each row divided by its sum, in place."""
    w = _exp_rows(logw, first)
    w /= w.sum(axis=1, keepdims=True)
    return w


@dataclass(frozen=True)
class _LogWeights:
    """The weights ``exp(base - beta*y)`` of each missing unit, built block by block.

    The columns are the values ``donor_y``.  ``base`` is an (n_missing,
    values) array; or, with ``slope`` given, the column term ``e`` of a
    rank-one grid whose row i is ``slope_i*y + e``, the one-component
    donor base up to a row constant that the normalization cancels; or
    None, standing for zero, in the parametric engine, whose weights come
    from ``-beta*y`` alone.  ``block`` gives a block's rows unnormalized,
    ``exp(logw - rowmax)``, for the passes that reduce them and divide
    each unit's sums by its row sum; indexing gives them normalized.
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
        """The normalized weights of ``rows``: each row sums to one."""
        return _normalize_rows(self._log_block(rows), rows.start or 0)

    def block(self, rows: slice, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The unnormalized weights of ``rows``, written into ``out`` when it is given."""
        return _exp_rows(self._log_block(rows, out), rows.start or 0)

    def _log_block(self, rows: slice, out: Optional[np.ndarray] = None) -> np.ndarray:
        y = self.donor_y if self.donor_y.ndim == 1 else self.donor_y[rows]
        if self.slope is not None:
            left, right = self._factors
            return np.matmul(left[rows], right, out=out)
        if self.base is None:
            return np.multiply(y, -self.beta, out=out)
        return np.subtract(self.base[rows], self.beta * y, out=out)


def _weight_blocks(w, y: np.ndarray, n_rows: int, spare: int = 0):
    """``(rows, y, u, *spares)`` for each row block of the ``n_rows`` missing units.

    ``y`` is the block's donor values (the shared vector, or its rows of
    per-unit pools) and ``u`` its weights up to a positive factor per
    row, in a buffer of the pass that the caller may overwrite: the
    unnormalized rows that a ``_LogWeights`` builds, or a copy of the
    rows of a weight array.  Each reduction divides a unit's sums by its
    sum of ``u``.  ``spares`` are ``spare`` more block buffers for the
    caller.  Buffers are rewritten by the next block.
    """
    for rows, (u, *spares) in _blocks(n_rows, y.shape[-1], 1 + spare):
        if isinstance(w, _LogWeights):
            u = w.block(rows, u)
        else:
            np.copyto(u, w[rows])
        yield (rows, y if y.ndim == 1 else y[rows], u, *spares)


def _donor_blocks(
    phi: ResponseSpec, b_miss: np.ndarray, donor_y: np.ndarray, w, spare: int = 0
):
    """The donor kernel: ``(rows, y, u, pi, *spares)`` for each row block of missing units.

    ``_weight_blocks`` plus ``pi``, the propensity ``P(delta=1 | x_i, y)``
    at every donor value, in a buffer of the pass that the caller may
    overwrite.  It is ``1 / (1 + a_i b_j)`` from the odds factors ``a =
    exp(-lin)`` and ``b = exp(-beta*y)``, taken once per pass (per block
    for per-unit pools); where a factor is 0 or inf, the log-odds form.
    """
    lin = b_miss @ np.asarray(phi.alpha)
    a = odds_factor(-lin)
    shared = donor_y.ndim == 1
    b = odds_factor(-phi.beta * donor_y) if shared else None
    for rows, y, u, pi, *spares in _weight_blocks(w, donor_y, b_miss.shape[0], spare + 1):
        b_rows = b if shared else odds_factor(-phi.beta * y)
        if a is not None and b_rows is not None:
            propensity_from_odds(a[rows, None], b_rows, out=pi)
        else:
            np.subtract(-lin[rows, None], phi.beta * y, out=pi)  # log-odds
            propensity_from_log_odds(pi, out=pi)
        yield (rows, y, u, pi, *spares)


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
    """``(rows, log f(y | x_r))`` for each row block of the ``n_rows`` rows of ``columns``.

    A one-component block is rebuilt from ``log_density_factors``, taken
    once for all rows, into one buffer of the pass that the caller may
    overwrite and the next block rewrites; a mixture block is its
    ``log_density_outer``.
    """
    if gamma.k > 1:
        for rows, _ in _blocks(n_rows, y.size):
            yield rows, log_density_outer(gamma, y, _take(columns, rows))
        return
    slope, offset, log_c_y = log_density_factors(gamma, y, columns)
    left = np.column_stack([slope, offset, np.ones_like(slope)])
    right = np.vstack([y, np.ones_like(y), log_c_y])
    for rows, (buffer,) in _blocks(n_rows, y.size, 1):
        yield rows, np.matmul(left[rows], right, out=buffer)


def _log_c_at(gamma: OutcomeSpec, y: np.ndarray, data: Dataset) -> np.ndarray:
    """log C(y) = log sum_l f(y | x_l) over respondents l at each value, by blocks of them."""
    blocks = _log_density_blocks(gamma, y, data.respondent_columns(), data.n_respondents)
    return _logsumexp_blocks((block for _, block in blocks), y.size)


def _donor_kernel(gamma: OutcomeSpec, data: Dataset):
    """The donor engine's weights at beta = 0, the donors' value index and log C.

    Returns ``(kernel, inverse, log_c)``: a ``_LogWeights`` over the
    donors' unique values, each weighted by its multiplicity m so that
    it stands for all its donors, the index of each donor's value, and
    ``log C`` at each value.  For one component the kernel keeps the
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
    return kernel, inverse, log_c


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
        data.n_missing,
        log_c=log_c,
        kernel=replace(kernel, beta=phi.beta),
        inverse=inverse,
    )


# ---------------------------------------------------------------------------
# the coarse level: a warm start for the one-component solve
# ---------------------------------------------------------------------------

COARSE_BINS = 256  # equal-count bins, and as many equal-width ones, cut the coarse grid
# the coarse solve stops at this next step: its root is only a start, about
# 1e-7 from the full grid's (s1, n=6000), so solving it finer is wasted
COARSE_STEP = 1e-6


def _coarse_starts(y: np.ndarray) -> np.ndarray:
    """First index of each coarse bin of the sorted values ``y``.

    The bins are cut at the union of ``COARSE_BINS`` equal-count edges,
    which resolve where the values are dense, and as many equal-width
    edges, which keep bins in the sparse tails narrow.
    """
    width_edges = np.linspace(y[0], y[-1], COARSE_BINS + 1)[1:-1]
    return np.unique(np.concatenate([
        np.arange(COARSE_BINS) * y.size // COARSE_BINS,
        np.searchsorted(y, width_edges),
    ]))


def _gauss_pairs(y: np.ndarray, e: np.ndarray, starts: np.ndarray):
    """The two-node Gauss rule of each bin of the values ``y`` under weights ``exp(e)``.

    Returns ``(nodes, log_weights)``, each (bins, 2).  Centred on the
    bin's weighted mean and in units of its width, with variance ``v``
    and third central moment ``s``, the nodes are the roots ``t`` of the
    degree-2 orthogonal polynomial ``t^2 - (s/v) t - v`` (Golub & Welsch
    1969), and the weights split the bin's mass so that the mean is
    kept.  The rule
    matches the bin's moments 0-3, its nodes lie within the bin, and its
    weights are positive.  A bin of one value keeps it as its first node
    and gives the second weight zero (log weight ``-inf``).
    """
    sizes = np.diff(np.append(starts, y.size))
    which = np.repeat(np.arange(starts.size), sizes)
    first, last = y[starts], y[starts + sizes - 1]
    width = np.where(last > first, last - first, 1.0)  # the rule is solved in units of it
    top = np.maximum.reduceat(e, starts)
    v = np.exp(e - top[which])
    mass = np.add.reduceat(v, starts)
    mean = np.add.reduceat(v * y, starts) / mass
    d = (y - mean[which]) / width[which]
    vd2 = v * d * d
    var = np.add.reduceat(vd2, starts) / mass
    half = 0.5 * np.divide(np.add.reduceat(vd2 * d, starts) / mass, var,
                           out=np.zeros_like(var), where=var > 0)
    root = np.sqrt(half * half + var)
    # the root of larger magnitude first, the other from their product -v
    big = half + np.copysign(root, half)
    small = np.divide(-var, big, out=np.zeros_like(var), where=big != 0)
    lo, hi = np.minimum(big, small), np.maximum(big, small)
    gap = np.where(hi > lo, hi - lo, 1.0)
    shares = np.column_stack([hi / gap, -lo / gap])
    shares[hi == lo] = 0.5
    nodes = mean[:, None] + width[:, None] * np.column_stack([lo, hi])
    nodes = np.clip(nodes, first[:, None], last[:, None])
    log_w = (top + np.log(mass))[:, None] + np.log(shares)
    one = sizes == 1
    nodes[one, 0], log_w[one, 0], log_w[one, 1] = first[one], e[starts[one]], -np.inf
    return nodes, log_w


def _coarse_kernel(kernel: "_LogWeights") -> Optional["_LogWeights"]:
    """The coarse level of a one-component donor kernel, or None where it has none.

    Each coarse bin of the kernel's values is replaced by its two-node
    Gauss rule under the value weights ``exp(e)``, with the units' slopes
    kept.  Only a one-component kernel (with ``slope``) whose rule has at
    most a quarter as many nodes as there are values has one.  Each
    equal-count bin holds a node, so fewer than ``4 * COARSE_BINS`` values
    never have one.
    """
    y = kernel.donor_y
    if kernel.slope is None or y.size < 4 * COARSE_BINS or not np.all(np.isfinite(kernel.base)):
        return None
    starts = _coarse_starts(y)
    singles = np.count_nonzero(np.diff(np.append(starts, y.size)) == 1)
    if 4 * (2 * starts.size - singles) > y.size:
        return None
    nodes, log_w = _gauss_pairs(y, kernel.base, starts)
    keep = np.isfinite(log_w)
    return _LogWeights(log_w[keep], kernel.beta, nodes[keep], kernel.slope)


def _centred(y: np.ndarray):
    """``(shift, powers)``: the values' mean, and the columns (1, y - shift, (y - shift)^2).

    ``powers`` is None for per-unit pools.  Moments about the mean do not
    cancel as raw ones do.
    """
    shift = float(np.mean(y)) if y.size else 0.0
    if y.ndim != 1:
        return shift, None
    y_c = y - shift
    return shift, np.column_stack([np.ones_like(y_c), y_c, y_c**2])


def _mean_and_spread(m: np.ndarray, shift: float):
    """Each unit's weighted donor mean and centred second moment.

    ``m`` holds the unit's sums of ``u`` against ``_centred``'s powers; its
    first column, the row sum, normalizes them.
    """
    mean_c = m[:, 1] / m[:, 0]
    return shift + mean_c, m[:, 2] / m[:, 0] - mean_c**2


def _unit_moments(w, y: np.ndarray, n_missing: int):
    """Per-unit weighted donor mean and centred second moment, by row blocks of ``w``.

    The reduction of ``_evaluate``, in a pass of its own.
    """
    shift, powers = _centred(y)
    m = np.empty((n_missing, 3))
    for rows, y_b, u in _weight_blocks(w, y, n_missing):
        m[rows] = _power_sums(u, y_b, powers, shift)
    return _mean_and_spread(m, shift)


def _parametric_pool(
    gamma: OutcomeSpec, data: Dataset, m_draws: int, rng: np.random.Generator
) -> np.ndarray:
    """Each missing unit's pool of ``m_draws`` values drawn from the
    respondents' density, shape (n_missing, m_draws)."""
    draws = sample(gamma, data.missing_columns(), rng, m_draws)
    return draws.reshape(data.n_missing, m_draws)


# ---------------------------------------------------------------------------
# mean score and its Jacobian
# ---------------------------------------------------------------------------


@dataclass
class _ScoreArrays:
    """Design pieces shared by the score and its Jacobian."""

    z_resp: np.ndarray  # (n1, L+1) respondent design incl. outcome column
    b_miss: np.ndarray  # (n0, L) missing-unit covariate design


def _score_arrays(phi: ResponseSpec, data: Dataset) -> _ScoreArrays:
    resp_cols = data.respondent_columns()
    z_resp = phi.design(resp_cols, data.y_observed)
    b_miss = phi.h_basis.design(data.missing_columns())
    return _ScoreArrays(z_resp, b_miss)


def _row_dot(a: np.ndarray, donor_y: np.ndarray) -> np.ndarray:
    """Per-unit ``sum_j a_ij y_ij`` for shared or per-unit donor values."""
    if donor_y.ndim == 1:
        return a @ donor_y
    return np.einsum("ij,ij->i", a, donor_y)


def _power_sums(v: np.ndarray, y: np.ndarray, powers, shift: float = 0.0) -> np.ndarray:
    """Per-unit sums of ``v`` against (1, y - shift, (y - shift)^2), as (units, 3).

    One matmul with the shared donors' ``powers`` matrix, which holds
    those columns; row dots with a block's per-unit pools ``y`` when
    there is none.
    """
    if powers is not None:
        return v @ powers
    y = y - shift
    return np.column_stack([v.sum(axis=1), _row_dot(v, y), _row_dot(v, y * y)])


def _score_and_jacobian(phi, arrays, w, donor_y, weights_move: bool):
    """Mean score at phi for donor weights ``w``, and its Jacobian.

    ``w`` is an (n_missing, donors) weight array or a ``_LogWeights``;
    either is reduced block by block through ``_donor_blocks``.  With
    ``weights_move`` the Jacobian includes the weights' dependence on
    beta, ``dw_ij/dbeta = -w_ij (y_j - ybar_i)``; otherwise it holds the
    weights fixed.
    """
    return _evaluate(phi, arrays, w, donor_y, weights_move)[:2]


def _evaluate(phi, arrays, w, donor_y, weights_move: bool):
    """``_score_and_jacobian`` and, reduced in the same pass, ``_unit_moments``."""
    z = arrays.z_resp
    p_resp = propensity_from_log_odds(z @ -phi.phi)
    score = z.T @ (1.0 - p_resp)  # delta = 1
    jac = -(z.T @ (z * (p_resp * (1.0 - p_resp))[:, None]))
    b = arrays.b_miss
    n0, L = b.shape  # L: position of the outcome column
    moments = (np.empty(0), np.empty(0))
    if n0:
        # per unit: sums of u against (1, y_c, y_c^2), and of u pi and of
        # u pi (1 - pi) against (1, y, y^2); u's row sum divides them all
        m_u, m_wp, m_q = (np.empty((n0, 3)) for _ in range(3))
        shift, centred = _centred(donor_y)
        powers = None
        if donor_y.ndim == 1:
            powers = np.column_stack([np.ones_like(donor_y), donor_y, donor_y**2])
        for rows, y, u, pi in _donor_blocks(phi, b, donor_y, w):
            m_u[rows] = _power_sums(u, y, centred, shift)
            wp = np.multiply(u, pi, out=u)  # delta = 0: residual -pi
            q = np.multiply(wp, np.subtract(1.0, pi, out=pi), out=pi)
            m_wp[rows] = _power_sums(wp, y, powers)
            m_q[rows] = _power_sums(q, y, powers)
        moments = _mean_and_spread(m_u, shift)
        ybar = moments[0]
        m_wp /= m_u[:, :1]
        m_q /= m_u[:, :1]
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
    return score, jac, moments


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
    ``MAX_NEWTON_STEPS`` steps.
    """
    arrays = _score_arrays(phi, data)
    return _fixed_weight_solve(phi, arrays, weights.kernel, weights.values, controls)[0]


def _fixed_weight_solve(phi, arrays, w, donor_y, controls: FiControls):
    """``solve_mean_score`` on prepared arrays; returns (phi, max-abs score)."""

    def system(x):
        return _score_and_jacobian(phi.with_phi(x), arrays, w, donor_y, False)

    # as an M-step this needs no step test: EM's own test on phi follows
    x, path, converged = _newton(phi.phi, system, MAX_NEWTON_STEPS, controls.tol_score)
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
    controls: FiControls = FiControls(),
    engine: str = "donor",
    m_draws: int = 500,
    rng: Optional[np.random.Generator] = None,
) -> FitResult:
    """Solve the fractional-imputation mean score equation for (alpha, beta).

    Damped Newton on ``S(phi; w(beta)) = 0`` with the exact Jacobian and
    the weights recomputed at every trial point, from the ignorable
    logistic fit, or from the root of the same solve on the coarse grid
    where the donor kernel has one (``_coarse_kernel``) and that solve
    reaches a next step below ``COARSE_STEP``.  Where it does not
    converge (see FiControls), EM from the ignorable start gives the same
    solve a second start; FitError is raised when EM or that solve does
    not converge.
    ``mean_score_norm`` is the max-abs ``S(phi_hat; w(beta_hat))``;
    ``trace`` and ``em_iterations`` list and count the full grid's Newton
    steps, any EM iterations and the second solve's steps; the coarse
    solve's steps are not among them.  No identifiability
    check is made here: ``fimnar fit`` gates on the verdict before it
    calls this.
    """
    gamma = gamma_fit.spec
    phi = _initial_phi(h_basis, data)

    if engine == "donor":
        kernel, inverse, log_c = _donor_kernel(gamma, data)
    elif engine == "parametric":
        rng = rng or np.random.default_rng(0)
        pool = _parametric_pool(gamma, data, m_draws, rng)
        # proposal equals the respondents' density, so only the odds factor
        # survives in the self-normalized weights
        kernel, inverse, log_c = _LogWeights(None, 0.0, pool), None, None
    else:
        raise ValueError(f"unknown imputation engine {engine!r}")

    arrays = _score_arrays(phi, data)
    last = {}  # the point of the latest evaluation, and the unit moments reduced there

    def solve(x, grid=kernel, tols=(controls.tol_score, controls.tol_phi)):
        def system(x):
            p = phi.with_phi(x)
            w = replace(grid, beta=p.beta)
            score, jac, last["moments"] = _evaluate(p, arrays, w, grid.donor_y, True)
            last["x"] = x
            return score, jac

        steps = min(MAX_NEWTON_STEPS, controls.max_em_iter)
        return _newton(x, system, steps, *tols)

    start = phi.phi
    coarse = _coarse_kernel(kernel)
    if coarse is not None:
        # only a start: the full grid's solve decides the root
        coarse_x, _, coarse_converged = solve(start, coarse, (math.inf, COARSE_STEP))
        if coarse_converged:
            start = coarse_x
    x, path, converged = solve(start)
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
            _, step, norm = path[-1]
            met = norm <= controls.tol_score
            raise FitError(
                f"Newton from EM's phi did not converge (last step {step:.3g}, score {norm:.3g})"
                + ("; the score met tol_score, only the step did not settle" if met else ""),
                trace=tuple(trace),
            )
    phi_hat = phi.with_phi(x)
    # a converged _newton evaluates its root last; the point is checked, not assumed
    at_root = np.array_equal(last.get("x"), x)
    weights = FractionalWeights(
        data.n_missing,
        log_c=log_c,
        kernel=replace(kernel, beta=phi_hat.beta),
        inverse=inverse,
        moments=last["moments"] if at_root else None,
    )
    return FitResult(
        phi_hat=phi_hat,
        weights=weights,
        mean_score_norm=path[-1][2],
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

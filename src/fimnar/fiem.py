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
it.  Each of its K components has ``log(pi_k f_k(y | x_i)) =
slope_ki*y + offset_ki + log c_k(y)`` (``expfam.log_density_factors``),
so component k's term of the weights is the rank-one grid ``exp((slope_ki
- beta)*y_j + offset_ki + e_kj)`` with ``e_kj = log c_k(y_j) - log
C(y_j)``: K vectors over missing units and K over donors, all computed
once per fit, and the weights are the sum of the K grids.  One
component's row constant ``offset_i`` cancels when a unit's weights are
normalized, so it keeps none.  The donors are
collapsed to their unique values, each carrying its multiplicity in
``e``; this is exact, because a weight depends on the donor only through
its value.

Memory: every walk of a grid goes through ``_blocks``, which cuts the
rows into blocks of about ``CELLS`` grid cells, and at least
``MIN_BLOCK_ROWS`` rows so that per-block work over the value axis (the
variance's per-value sums) is shared by several rows on the largest
grids, and allocates the pass's block buffers once, so that each block
is written into the same memory.  Each grid has one walk.  The missing
unit x value grid: ``_weight_blocks`` yields each block's weights,
rebuilt from a ``_LogWeights`` (the only form of weights any walk takes),
and the donor kernel ``_donor_blocks`` adds the propensities; the solver
and the variance code reduce these.  The point x respondent-row grid:
``_respondent_blocks`` yields, per block of points in y, each point's
softmax numerators over the K*n1 factored respondent rows (component,
respondent); their row log-sum-exp is ``log C`` (``_respondent_lse``) and
their mean of the score coefficients the variance's ``d log C/d gamma``.

``log C``: it is a smooth function of the one scalar y, so on at least
``4 * CHEB_POINTS`` values it is walked exactly only at the
``CHEB_TAIL`` smallest and largest values and at nested
Chebyshev-Lobatto points in y between them, doubled from ``CHEB_FIRST``
up to ``CHEB_POINTS`` until the interpolant on the earlier points
predicts the new ones within ``LOG_C_TOL``, and interpolated to the
other values (``_chebyshev``): O((n1 + values) * points) instead of
O(n1 * values).
Below that size, and where ``CHEB_POINTS`` points miss the tolerance,
the exact walk runs at the values, so a failed interpolant wastes at
most a quarter of it (``_smooth_in_y``).  The variance's ``d log C/d
gamma`` is taken the same way.  The missing-unit walks are not: their
propensity ``1 / (1 + a_i b_j)`` makes each cell depend on two scalars.

The cell: a block's weights are left unnormalized, ``u = exp(logw -
rowmax)``, one ``exp`` per cell and component: a mixture's block is ``u =
sum_k u_k``, ``u_k = exp(L_k - rowmax)`` with one row max shared by its
K log grids ``L_k``, and ``u_k / u`` is component k's responsibility.
Every per-unit reduction is linear in
the unit's row, so it runs on ``u``, and the row sum, the ones column of
the same moment matmul that gives the weighted donor mean and spread, is
divided out once per unit.  The propensity is ``1 / (1 + a_i b_j)`` from
odds factors taken once per pass (``response.propensity_from_odds``), so
it costs no ``exp`` per cell; a pass whose factors leave the floating
range uses the log-odds form.  Every walk at given response
parameters is ``_reduce``: per block it reduces ``u`` and ``u pi``
against one centred value-power matrix (``_centred_powers``: ``(1, y_c,
y_c^2, y_c^3)``, and ``(log y, y_c log y)`` for the gamma family), and
on the full grid also the per-value sums ``c_j = sum_i w_ij (y_j -
ybar_i)`` and, for a mixture, ``u_k`` and ``u_k pi`` against the same
matrix.  The solve's last evaluation is at the root, so ``em_fit`` keeps
those sums (``_KernelSums``) with the weights, and the unit moments and
both variances read them with no walk of their own.  So a fit stores
only vectors over units and unique donor values, plus a few block
buffers; the EM fallback's M-steps walk the kernel at the E-step's beta
too, so no fit holds an (n_missing, values) array.

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
from functools import cached_property, reduce
from typing import Optional

import numpy as np

from .dataio import Dataset
from .expfam import Family, OutcomeSpec, log_base_measure, log_density_factors, sample
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
    The donor kernel is K rank-one grids, one per component of the
    respondents' model, so no (n_missing, values) array is kept for a
    mixture either.  ``kernel`` and ``values`` are what the solver and
    the variance code reduce.  The property ``w`` is the per-donor array,
    rows summing to one, built on each read (a value's weight split
    evenly among its donors) and never kept.  ``sums`` is the
    ``_KernelSums`` of one walk of the donor kernel at the response
    parameters the weights were built for: ``em_fit`` passes the ones its
    solve reduced at the root, and ``fractional_weights`` reduces them at
    its ``phi``.  ``ybar`` and ``spread``, each unit's weighted donor mean
    and centred second moment ``sum_j w_ij (y_j - ybar_i)^2``, come from
    them, and the variance reads the rest (for a mixture, each
    component's sums too).  ``n_missing`` counts the missing units, the
    kernel's rows.
    """

    def __init__(
        self,
        n_missing: int,
        kernel: "_LogWeights",
        sums: "_KernelSums",
        inverse: Optional[np.ndarray] = None,
    ) -> None:
        self.n_missing = int(n_missing)
        self.kernel = kernel
        self.values = kernel.donor_y
        self.inverse = inverse
        self.sums = sums
        self.ybar = sums.shift + sums.w[:, 1]
        self.spread = sums.w[:, 2] - sums.w[:, 1] ** 2

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


@dataclass(frozen=True)
class _LogWeights:
    """The weights of each missing unit over the values ``donor_y``, built block by block.

    With ``slope`` given, each of the K components of the respondents'
    model is a rank-one grid: unit i's log weight at value y is ``log
    sum_k exp(L_k)`` with ``L_k = (slope_ki - beta)*y + base_k(y) +
    offset_ki``, where ``slope`` and ``offset`` are (K, n_missing) and
    ``base`` is (K, values), ``log c_k(y) - log C(y) + log m`` for the
    donor kernel.  One component's offset is a row constant that the
    normalization cancels, so it is None there.  Without ``slope``,
    ``base`` is None, standing for zero, in the parametric engine, whose
    weights come from ``-beta*y`` alone.  ``block`` gives a block's rows
    unnormalized, ``exp(logw - rowmax)``, for the passes that reduce them
    and divide each unit's sums by its row sum; indexing gives them
    normalized.
    """

    base: Optional[np.ndarray]
    beta: float
    donor_y: np.ndarray
    slope: Optional[np.ndarray] = None
    offset: Optional[np.ndarray] = None

    @property
    def k(self) -> int:
        """The number of components: the block buffers a mixture block needs beside ``u``."""
        return 1 if self.slope is None else self.slope.shape[0]

    @cached_property
    def _factors(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per component, ``(slope_k - beta, 1[, offset_k])`` by unit and ``(y, base_k[, 1])``.

        A block of ``L_k`` is one matmul of the two.
        """
        factors = []
        for k in range(self.k):
            left = [self.slope[k] - self.beta, np.ones_like(self.slope[k])]
            right = [self.donor_y, self.base[k]]
            if self.offset is not None:
                left.append(self.offset[k])
                right.append(np.ones_like(self.donor_y))
            factors.append((np.column_stack(left), np.vstack(right)))
        return factors

    def __getitem__(self, rows: slice) -> np.ndarray:
        """The normalized weights of ``rows``: each row sums to one."""
        u = self.block(rows)
        u /= u.sum(axis=1, keepdims=True)
        return u

    def block(self, rows: slice, out: Optional[np.ndarray] = None, parts=()) -> np.ndarray:
        """The unnormalized weights ``u`` of ``rows``, written into ``out`` when it is given.

        A mixture's block is ``u = sum_k u_k`` with ``u_k = exp(L_k - m)``
        and ``m`` each row's largest ``L_k`` over components and values,
        so ``u_k / u`` is component k's responsibility; each ``u_k`` is
        left in its buffer of ``parts`` when they are given.
        """
        first = rows.start or 0
        if self.slope is None:
            y = self.donor_y if self.donor_y.ndim == 1 else self.donor_y[rows]
            return _exp_rows(np.multiply(y, -self.beta, out=out), first)
        buffers = (out,) if self.k == 1 else parts or (None,) * self.k
        logs = [
            np.matmul(left[rows], right, out=b) for (left, right), b in zip(self._factors, buffers)
        ]
        top = reduce(np.maximum, (log.max(axis=1) for log in logs))
        _check_covered(np.isfinite(top), first)
        u = None
        for log in logs:
            log -= top[:, None]
            np.exp(log, out=log)
            u = log if u is None else np.add(u, log, out=out)
        return u


def _weight_blocks(w: _LogWeights, n_rows: int, spare: int = 0):
    """``(rows, y, u, *spares, *parts)`` for each row block of the ``n_rows`` missing units.

    ``y`` is the block's donor values (the kernel's shared vector, or its
    rows of per-unit pools) and ``u`` the block's unnormalized weights
    that ``w.block`` builds, in a buffer of the pass that the caller may
    overwrite; each reduction divides a unit's sums by its sum of ``u``.
    ``spares`` are ``spare`` more block buffers for the caller, and
    ``parts`` a mixture kernel's K component weights ``u_k``, which sum
    to ``u`` (none for one component); the caller may overwrite them
    too.  Buffers are rewritten by the next block.
    """
    y = w.donor_y
    parts = w.k if w.k > 1 else 0
    for rows, (u, *rest) in _blocks(n_rows, y.shape[-1], 1 + spare + parts):
        u = w.block(rows, u, rest[spare:])
        yield (rows, y if y.ndim == 1 else y[rows], u, *rest)


def _donor_blocks(phi: ResponseSpec, b_miss: np.ndarray, w: _LogWeights):
    """The donor kernel: ``(rows, y, u, pi, *parts)`` for each row block of missing units.

    ``_weight_blocks`` plus ``pi``, the propensity ``P(delta=1 | x_i, y)``
    at every donor value, in a buffer of the pass that the caller may
    overwrite.  It is ``1 / (1 + a_i b_j)`` from the odds factors ``a =
    exp(-lin)`` and ``b = exp(-beta*y)``, taken once per pass (per block
    for per-unit pools); where a factor is 0 or inf, the log-odds form.
    """
    lin = b_miss @ np.asarray(phi.alpha)
    a = odds_factor(-lin)
    shared = w.donor_y.ndim == 1
    b = odds_factor(-phi.beta * w.donor_y) if shared else None
    for rows, y, u, pi, *parts in _weight_blocks(w, b_miss.shape[0], 1):
        b_rows = b if shared else odds_factor(-phi.beta * y)
        if a is not None and b_rows is not None:
            propensity_from_odds(a[rows, None], b_rows, out=pi)
        else:
            np.subtract(-lin[rows, None], phi.beta * y, out=pi)  # log-odds
            propensity_from_log_odds(pi, out=pi)
        yield (rows, y, u, pi, *parts)


def _respondent_factors(gamma: OutcomeSpec, y: np.ndarray, columns):
    """``(factors, log_c)``: the K*n respondent rows (k, r) as the factors every walk of them reads.

    ``factors`` is (K + 1, K*n), with rows ``slope_kr``, ``offset_kr`` and,
    for each component k >= 1, the indicator of k's rows, so that
    ``_value_rows(gamma, t).T @ factors`` holds ``log(pi_k f_k(t | x_r)) -
    log c_0(t)`` at any points ``t``; ``log_c`` is the (K, values) terms
    ``log c_k(y)`` of ``expfam.log_density_factors``, whose support check
    runs on ``y``.
    """
    slope, offset, log_c = log_density_factors(gamma, y, columns)
    k, n = slope.shape
    return np.vstack([slope.ravel(), offset.ravel(), np.repeat(np.eye(k)[1:], n, axis=1)]), log_c


def _value_rows(gamma: OutcomeSpec, t: np.ndarray) -> np.ndarray:
    """``(t, 1, log c_k(t) - log c_0(t) for k >= 1)``: what ``_respondent_factors``
    multiply to give ``log(pi_k f_k(t | x_r)) - log c_0(t)``, at any points ``t``
    (a mixture is normal)."""
    rows = [t, np.ones_like(t)]
    if gamma.k > 1:
        log_c = log_base_measure(gamma, t)
        rows.extend(log_c[1:] - log_c[0])
    return np.vstack(rows)


def _respondent_blocks(gamma: OutcomeSpec, factors: np.ndarray, t: np.ndarray):
    """``(rows, p, top)`` for each block of the points ``t``, over the respondent rows.

    ``p`` is the block's ``exp(L - top)`` for ``L = log(pi_k f_k(t | x_r))
    - log c_0(t)`` over the K*n rows of ``factors``, in a buffer of the
    pass that the caller may overwrite, and ``top`` (points, 1) each
    point's largest ``L``, or 0 where every ``L`` is ``-inf``.  The one walk
    of the points x respondent-rows grid: ``log C`` is its row
    log-sum-exp and ``d log C/d gamma`` a softmax mean over it.
    """
    points = np.ascontiguousarray(_value_rows(gamma, t).T)
    for rows, (p,) in _blocks(t.size, factors.shape[1], 1):
        np.matmul(points[rows], factors, out=p)
        top = p.max(axis=1, keepdims=True)
        top[~np.isfinite(top)] = 0.0
        p -= top
        np.exp(p, out=p)
        yield rows, p, top


def _respondent_lse(gamma: OutcomeSpec, factors: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``log C(t) - log c_0(t)``: the log-sum-exp of ``_respondent_blocks`` at the points ``t``.

    ``-inf`` where every row is, with no warning.
    """
    out = np.empty(t.size)
    with np.errstate(divide="ignore"):
        for rows, p, top in _respondent_blocks(gamma, factors, t):
            out[rows] = top[:, 0] + np.log(p.sum(axis=1))
    return out


# ---------------------------------------------------------------------------
# smooth functions of the one scalar y: Chebyshev interpolation
# ---------------------------------------------------------------------------

CHEB_POINTS = 513  # most Chebyshev points a function of y is walked at, 2**9 + 1
CHEB_FIRST = 17  # the first level's points; each level doubles the intervals
# the smallest and largest values that are walked exactly: the respondents
# are sparse there, so log C can turn sharply between two lone tail values
# (s1 at n=6000: 7 of 16 fits missed LOG_C_TOL at 513 points over the whole
# range, none with these tails walked exactly)
CHEB_TAIL = 16
LOG_C_TOL = 1e-10  # absolute, on the log C that a level's points predict at the next level's


def _chebyshev_points(lo: float, hi: float) -> np.ndarray:
    """The ``CHEB_POINTS`` Chebyshev-Lobatto points of [lo, hi], ascending.

    A level of ``k + 1`` points is every ``(CHEB_POINTS - 1) // k``-th of
    them, so the levels nest exactly.
    """
    m = CHEB_POINTS - 1
    x = np.sin(0.5 * np.pi * np.arange(-m, m + 1, 2) / m)  # symmetric about 0
    nodes = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x
    nodes[0], nodes[-1] = lo, hi
    return nodes


def _barycentric(nodes: np.ndarray, f: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The polynomial through ``(nodes, f)`` at ``y``, by row blocks of (y, nodes).

    ``nodes`` are ascending Chebyshev-Lobatto points and ``f`` is (nodes,
    columns).  The second-kind barycentric formula (Berrut & Trefethen
    2004) with weights ``(-1)^k``, halved at the ends: per block one
    reciprocal of ``y - nodes`` and one matmul with the weighted ``f``
    and the weights, numerator and denominator together.  At a node it
    returns ``f`` there exactly.
    """
    w = np.ones(nodes.size)
    w[1::2] = -1.0
    w[[0, -1]] *= 0.5
    wf = np.column_stack([w[:, None] * f, w])
    out = np.empty((y.size, f.shape[1]))
    with np.errstate(divide="ignore", invalid="ignore"):  # at a node; overwritten below
        for rows, (d,) in _blocks(y.size, nodes.size, 1):
            np.subtract(y[rows, None], nodes, out=d)
            sums = np.reciprocal(d, out=d) @ wf
            out[rows] = sums[:, :-1] / sums[:, -1:]
    node = np.minimum(np.searchsorted(nodes, y), nodes.size - 1)
    hit = nodes[node] == y
    out[hit] = f[node[hit]]
    return out


def _chebyshev(exact, y: np.ndarray, atol: float, rtol: float) -> Optional[np.ndarray]:
    """``exact(y)`` at the sorted values ``y``, interpolated in y, or None.

    ``exact`` maps a vector of points to an array with one row per
    point.  The ``CHEB_TAIL`` smallest and largest values are walked
    exactly; between them the interpolant runs on Chebyshev-Lobatto
    points.  From ``CHEB_FIRST`` points the intervals double, up to
    ``CHEB_POINTS`` points; after each level the interpolant on the
    points before it predicts the level's new points, and once every
    prediction is within ``atol`` plus ``rtol`` times its column's
    largest magnitude on the first level, the interpolant through every
    point walked is evaluated at the values (Trefethen 2013,
    *Approximation Theory and Approximation Practice*).  What is
    interpolated is ``exact`` less its chord between the end points,
    which is added back exactly: the rounding of the barycentric sums
    scales with the magnitude they sum, and a log-sum-exp of large terms
    is mostly its chord.  None when ``CHEB_POINTS`` points do not meet
    the tolerance.
    """
    inner = y[CHEB_TAIL : y.size - CHEB_TAIL]
    lo, hi = inner[0], inner[-1]
    grid = _chebyshev_points(lo, hi)
    step = (CHEB_POINTS - 1) // (CHEB_FIRST - 1)
    first = exact(grid[::step])
    f = first.reshape(first.shape[0], -1)
    tol = atol + rtol * np.max(np.abs(f), axis=0)
    start, rise = f[0], (f[-1] - f[0]) / (hi - lo)

    def chord(t):
        return start + (t - lo)[:, None] * rise

    f = f - chord(grid[::step])
    while step > 1:
        new = grid[step // 2 :: step]
        f_new = exact(new).reshape(new.size, -1) - chord(new)
        guess = _barycentric(grid[::step], f, new)
        merged = np.empty((f.shape[0] + new.size, f.shape[1]))
        merged[::2], merged[1::2] = f, f_new
        f, step = merged, step // 2
        if np.all(np.abs(guess - f_new) <= tol):
            fitted = _barycentric(grid[::step], f, inner) + chord(inner)
            fitted = fitted.reshape(inner.shape + first.shape[1:])
            return np.concatenate([exact(y[:CHEB_TAIL]), fitted, exact(y[y.size - CHEB_TAIL :])])
    return None


def _smooth_in_y(exact, y: np.ndarray, atol: float, rtol: float) -> np.ndarray:
    """``exact(y)``, by ``_chebyshev`` where ``y`` holds at least ``4 * CHEB_POINTS`` values.

    So a function whose interpolant fails wastes at most a quarter of
    the exact walk at ``y``, which runs then and below that size.
    """
    if y.size >= 4 * CHEB_POINTS:
        fitted = _chebyshev(exact, y, atol, rtol)
        if fitted is not None:
            return fitted
    return exact(y)


def _log_c_at(gamma: OutcomeSpec, y: np.ndarray, data: Dataset) -> np.ndarray:
    """log C(y) = log sum_l f(y | x_l) over respondents l at the sorted values ``y``.

    A function of y alone: ``_respondent_lse`` over the K*n1 factored
    rows (k, l), taken through ``_smooth_in_y`` (exact below the size
    gate or where the interpolant fails), plus ``log c_0(y)`` at the
    values: for one component it need not exist between them (a Poisson
    node is no integer).
    """
    factors, log_c = _respondent_factors(gamma, y, data.respondent_columns())
    return _smooth_in_y(lambda t: _respondent_lse(gamma, factors, t), y, LOG_C_TOL, 0.0) + log_c[0]


def _donor_kernel(gamma: OutcomeSpec, data: Dataset):
    """The donor engine's weights at beta = 0 and the donors' value index.

    Returns ``(kernel, inverse)``: a ``_LogWeights`` over the donors'
    unique values, each weighted by its multiplicity m so that it stands
    for all its donors, and the index of each donor's value.  The kernel
    keeps, per component k of the respondents' model, the factors
    ``slope_k`` (and for a mixture ``offset_k``) over missing units and
    ``log c_k(y) - log C(y) + log m`` over values
    (``expfam.log_density_factors``).
    """
    if data.n_respondents < 1:
        raise FitError("at least one respondent donor is required")
    values, inverse, counts = np.unique(
        data.y_observed, return_inverse=True, return_counts=True
    )
    log_c = _log_c_at(gamma, values, data)
    slope, offset, log_c_y = log_density_factors(gamma, values, data.missing_columns())
    # the offset cancels from one component's weights, but a unit whose
    # density vanishes everywhere shows only there
    _check_covered(np.any(np.isfinite(slope) & np.isfinite(offset), axis=0))
    base = log_c_y + (np.log(counts) - log_c)
    kernel = _LogWeights(base, 0.0, values, slope, offset if gamma.k > 1 else None)
    return kernel, inverse


def fractional_weights(
    phi: ResponseSpec, gamma: OutcomeSpec, data: Dataset
) -> FractionalWeights:
    """Donor weights at the given response parameters.

    Computed in log space and exponentiated after subtracting each
    row's maximum, with the ``_KernelSums`` of one walk at ``phi``.
    Raises FitError when some missing unit has zero density at every
    donor value.
    """
    kernel, inverse = _donor_kernel(gamma, data)
    kernel = replace(kernel, beta=phi.beta)
    return FractionalWeights(data.n_missing, kernel, _kept_sums(phi, kernel, gamma, data), inverse)


# ---------------------------------------------------------------------------
# the coarse level: a warm start for the one-component solve
# ---------------------------------------------------------------------------

COARSE_BINS = 256  # fewest equal-count bins, and as many equal-width ones, of the coarse grid
COARSE_BIN_VALUES = 64  # beyond this many values per equal-count bin, the bins grow
# the coarse solve stops at this next step: its root is only a start, about
# 1e-7 from the full grid's (s1, n=6000), so solving it finer is wasted
COARSE_STEP = 1e-6


def _coarse_starts(y: np.ndarray) -> np.ndarray:
    """First index of each coarse bin of the sorted values ``y``.

    The bins are cut at the union of ``bins`` equal-count edges, which
    resolve where the values are dense, and as many equal-width edges,
    which keep bins in the sparse tails narrow.  ``bins`` is
    ``COARSE_BINS``, or one per ``COARSE_BIN_VALUES`` values where that
    is more, so that a bin's width, and with it the coarse root's
    distance from the full one, stops growing with the values.
    """
    bins = max(COARSE_BINS, y.size // COARSE_BIN_VALUES)
    width_edges = np.linspace(y[0], y[-1], bins + 1)[1:-1]
    return np.unique(np.concatenate([
        np.arange(bins) * y.size // bins,
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
    most a quarter as many nodes as there are values has one; a mixture's
    per-unit functions are no longer ``exp(slope*y)`` times one value
    weight.  Each equal-count bin holds a node, so fewer than ``4 *
    COARSE_BINS`` values never have one.
    """
    y = kernel.donor_y
    if kernel.slope is None or kernel.k > 1 or y.size < 4 * COARSE_BINS:
        return None
    (e,) = kernel.base
    if not np.all(np.isfinite(e)):
        return None
    starts = _coarse_starts(y)
    singles = np.count_nonzero(np.diff(np.append(starts, y.size)) == 1)
    if 4 * (2 * starts.size - singles) > y.size:
        return None
    nodes, log_w = _gauss_pairs(y, e, starts)
    keep = np.isfinite(log_w)
    return _LogWeights(log_w[keep][None], kernel.beta, nodes[keep], kernel.slope)


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


def _centred_powers(y: np.ndarray, logs: bool = False, shift: Optional[float] = None):
    """``(shift, powers)``: the value-power matrix that a walk reduces its weights against.

    ``powers`` has the columns ``(1, y_c, y_c^2, y_c^3)`` of ``y_c = y -
    shift``, with ``shift`` the values' mean unless given, and with
    ``logs`` (the gamma family) also ``(log y, y_c log y)``; it is None
    for per-unit pools.  Moments about the mean do not cancel as raw ones
    do.
    """
    if shift is None:
        shift = float(np.mean(y)) if y.size else 0.0
    if y.ndim != 1:
        return shift, None
    y_c = y - shift
    columns = [np.ones_like(y_c), y_c, y_c**2, y_c**3]
    if logs:
        log_y = np.log(y)
        columns += [log_y, y_c * log_y]
    # column-major: a block's matmul with it runs about a third faster
    return shift, np.asfortranarray(np.column_stack(columns))


@dataclass(frozen=True)
class _KernelSums:
    """What one walk of the donor kernel at the response parameters ``phi`` reduces.

    ``w`` and ``wp`` are each unit's sums of its normalized weights, and
    of the weights times the propensity, against the columns of the
    walk's ``_centred_powers`` about ``shift`` (for per-unit pools,
    against ``(1, y_c, y_c^2)``); their first column is the row sum.
    ``c`` is, per value, ``c_j = sum_i w_ij (y_j - ybar_i)``, or None
    where the walk did not reduce it.  For a mixture kernel, ``parts``
    holds, per component k, the same sums as ``w`` and ``wp`` of the
    weights times k's responsibility, shape (2, K, n_missing, columns),
    wherever ``c`` was reduced; else it is None.
    """

    phi: np.ndarray
    shift: float
    w: np.ndarray
    wp: np.ndarray
    c: Optional[np.ndarray] = None
    parts: Optional[np.ndarray] = None


def _reduce(phi, b_miss, w: _LogWeights, powers, jacobian=False, per_value=False):
    """One walk of the donor kernel at ``phi``: ``(_KernelSums, q)``.

    ``powers`` are the ``_centred_powers`` of ``w``'s values.  Per block of
    unnormalized weights ``u`` and propensities ``pi`` it reduces ``u``
    and ``u pi`` against the power matrix, one matmul each, and every sum
    is divided by its unit's row sum of ``u`` at the end.
    With ``jacobian``, ``q`` holds the sums of ``w pi (1 - pi)`` against
    ``(1, y_c, y_c^2)``; with ``per_value`` on shared values, ``c`` is
    reduced in the same block as ``(1/s, t/s) @ u`` for the row sums
    ``s`` and ``t = ybar - shift``, and a mixture kernel's component
    weights ``u_k`` and ``u_k pi`` are reduced as ``u`` and ``u pi`` are.
    """
    shift, matrix = powers
    y, n0 = w.donor_y, b_miss.shape[0]
    width = 3 if matrix is None else matrix.shape[1]
    m_u, m_wp = np.empty((n0, width)), np.empty((n0, width))
    m_q = np.empty((n0, 3)) if jacobian else None
    per_value = per_value and matrix is not None
    m_parts = None
    if per_value:  # per value: sum_i w_ij and sum_i w_ij t_i
        cols, col_block = np.zeros((2, y.size)), np.empty((2, y.size))
        if w.k > 1:
            m_parts = np.empty((2, w.k, n0, width))
    for rows, y_b, u, pi, *parts in _donor_blocks(phi, b_miss, w):
        if matrix is None:  # per-unit pools: row dots with the block's centred values
            y_c = y_b - shift
            y_c2 = y_c * y_c

            def sums(v, k=3):
                return np.column_stack([v.sum(axis=1), _row_dot(v, y_c), _row_dot(v, y_c2)])
        else:
            def sums(v, k=width):
                return v @ matrix[:, :k]
        m = m_u[rows] = sums(u)
        s = m[:, 0]
        t = m[:, 1] / s
        if per_value:
            left = np.empty((2, s.size))
            np.divide(1.0, s, out=left[0])
            np.multiply(t, left[0], out=left[1])
            cols += np.matmul(left, u, out=col_block)
            if m_parts is not None:
                for k, u_k in enumerate(parts):
                    m_parts[0, k, rows] = sums(u_k)
                    m_parts[1, k, rows] = sums(np.multiply(u_k, pi, out=u_k))
        wp = np.multiply(u, pi, out=u)  # delta = 0: residual -pi
        if jacobian:
            m_q[rows] = sums(np.multiply(wp, np.subtract(1.0, pi, out=pi), out=pi), 3)
        m_wp[rows] = sums(wp)
    s = m_u[:, :1].copy()
    for m in (m_u, m_wp) + ((m_q,) if jacobian else ()) + ((m_parts,) if m_parts is not None else ()):
        m /= s
    c = matrix[:, 1] * cols[0] - cols[1] if per_value else None
    return _KernelSums(phi.phi, shift, m_u, m_wp, c, m_parts), m_q


def _kept_sums(phi: ResponseSpec, kernel: "_LogWeights", gamma: OutcomeSpec, data: Dataset):
    """The ``_KernelSums`` that weights under ``gamma`` keep, from a walk of their own at ``phi``.

    The power matrix holds the gamma family's log columns, and ``c`` (with
    a mixture's component sums) is reduced.
    """
    b_miss = phi.h_basis.design(data.missing_columns())
    powers = _centred_powers(kernel.donor_y, gamma.family is Family.GAMMA)
    return _reduce(phi, b_miss, kernel, powers, per_value=True)[0]


def _score_and_jacobian(phi, arrays, w: _LogWeights, weights_move: bool):
    """Mean score at phi for donor weights ``w``, and its Jacobian.

    ``w`` is reduced block by block through ``_donor_blocks``.  With
    ``weights_move`` the Jacobian includes the weights' dependence on
    beta, ``dw_ij/dbeta = -w_ij (y_j - ybar_i)``; otherwise it holds the
    weights fixed.
    """
    return _evaluate(phi, arrays, w, weights_move)[:2]


def _evaluate(phi, arrays, w: _LogWeights, weights_move: bool, powers=None, per_value=False):
    """``_score_and_jacobian`` and, from the same walk, ``_reduce``'s ``_KernelSums``.

    ``powers`` defaults to the ``_centred_powers`` of ``w``'s values.  The
    score and Jacobian need the raw sums of ``w pi`` and ``w pi (1 -
    pi)`` against ``(1, y, y^2)``, which follow from the centred ones
    with ``y = y_c + shift``.
    """
    z = arrays.z_resp
    p_resp = propensity_from_log_odds(z @ -phi.phi)
    score = z.T @ (1.0 - p_resp)  # delta = 1
    jac = -(z.T @ (z * (p_resp * (1.0 - p_resp))[:, None]))
    b = arrays.b_miss
    L = b.shape[1]  # position of the outcome column
    if powers is None:
        powers = _centred_powers(w.donor_y)
    sums, m_q = _reduce(phi, b, w, powers, jacobian=True, per_value=per_value)
    shift, t = sums.shift, sums.w[:, 1]  # t = ybar - shift
    row, wpy_c, wpy2_c = sums.wp[:, :3].T
    q0, qy_c, qy2_c = m_q.T
    qy = qy_c + shift * q0
    score[:L] -= b.T @ row
    score[L] -= float(np.sum(wpy_c + shift * row))
    jac[:L, :L] -= b.T @ (b * q0[:, None])
    cross = b.T @ qy
    jac[:L, L] -= cross
    jac[L, :L] -= cross
    jac[L, L] -= float(np.sum(qy2_c + shift * (qy_c + qy)))
    if weights_move:
        # per unit: sum_j w_ij (y_j - ybar_i) pi_ij, and the same times y_j
        d = wpy_c - t * row
        jac[:L, L] += b.T @ d
        jac[L, L] += float(np.sum(wpy2_c - t * wpy_c + shift * d))
    return score, jac, sums


def mean_score(
    phi: ResponseSpec, weights: FractionalWeights, data: Dataset
) -> np.ndarray:
    """Weighted mean score: respondent scores plus donor-averaged scores."""
    arrays = _score_arrays(phi, data)
    return _score_and_jacobian(phi, arrays, weights.kernel, False)[0]


def score_jacobian(
    phi: ResponseSpec, weights: FractionalWeights, data: Dataset
) -> np.ndarray:
    """d mean_score / d phi with the weights held fixed (negative definite)."""
    arrays = _score_arrays(phi, data)
    return _score_and_jacobian(phi, arrays, weights.kernel, False)[1]


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
    return _fixed_weight_solve(phi, arrays, weights.kernel, controls)[0]


def _fixed_weight_solve(phi, arrays, w: _LogWeights, controls: FiControls):
    """``solve_mean_score`` on prepared arrays; returns (phi, max-abs score)."""

    def system(x):
        return _score_and_jacobian(phi.with_phi(x), arrays, w, False)

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
    not converge, and before any kernel is built when the respondents'
    normal model has zero variance.
    ``mean_score_norm`` is the max-abs ``S(phi_hat; w(beta_hat))``;
    ``trace`` and ``em_iterations`` list and count the full grid's Newton
    steps, any EM iterations and the second solve's steps; the coarse
    solve's steps are not among them.  The weights keep the
    ``_KernelSums`` of the full grid's last evaluation where it was at
    the root, which a converged solve's is, and else of a walk of their
    own there (``_kept_sums``).  No identifiability
    check is made here: ``fimnar fit`` gates on the verdict before it
    calls this.
    """
    gamma = gamma_fit.spec
    if gamma.family is Family.NORMAL and any(c.dispersion == 0.0 for c in gamma.components):
        # fit_glm returns it where the complete cases fit exactly; its
        # density is a point mass that no donor weight can be built from
        raise FitError(
            "the respondents' normal model has zero variance (it fits the "
            "complete cases exactly), so it gives the donors no density"
        )
    phi = _initial_phi(h_basis, data)

    if engine == "donor":
        kernel, inverse = _donor_kernel(gamma, data)
    elif engine == "parametric":
        rng = rng or np.random.default_rng(0)
        pool = _parametric_pool(gamma, data, m_draws, rng)
        # proposal equals the respondents' density, so only the odds factor
        # survives in the self-normalized weights
        kernel, inverse = _LogWeights(None, 0.0, pool), None
    else:
        raise ValueError(f"unknown imputation engine {engine!r}")

    arrays = _score_arrays(phi, data)
    # the full grid's evaluations reduce what the variance reads at the root
    powers = _centred_powers(kernel.donor_y, gamma.family is Family.GAMMA)
    last = {}  # the point of the latest evaluation, and the kernel sums reduced there

    def solve(x, grid=kernel, tols=(controls.tol_score, controls.tol_phi), powers=powers,
              per_value=True):
        def system(x):
            p = phi.with_phi(x)
            w = replace(grid, beta=p.beta)
            score, jac, last["sums"] = _evaluate(p, arrays, w, True, powers, per_value)
            last["x"] = x
            return score, jac

        steps = min(MAX_NEWTON_STEPS, controls.max_em_iter)
        return _newton(x, system, steps, *tols)

    start = phi.phi
    coarse = _coarse_kernel(kernel)
    if coarse is not None:
        # only a start: the full grid's solve decides the root
        coarse_x, _, coarse_converged = solve(
            start, coarse, (math.inf, COARSE_STEP), _centred_powers(coarse.donor_y), False
        )
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
    kernel = replace(kernel, beta=phi_hat.beta)
    # a converged _newton evaluates its root last; the point is checked, not assumed
    at_root = np.array_equal(last.get("x"), x)
    sums = last["sums"] if at_root else _kept_sums(phi_hat, kernel, gamma, data)
    return FitResult(
        phi_hat=phi_hat,
        weights=FractionalWeights(data.n_missing, kernel, sums, inverse),
        mean_score_norm=path[-1][2],
        trace=tuple(trace),
    )


def _em(phi, arrays, kernel: _LogWeights, controls: FiControls):
    """EM: weights at the current beta, then the fixed-weight solve, until phi settles.

    Returns ``(phi, trace)``; raises FitError after
    ``controls.max_em_iter`` iterations.  Each iteration's weights are
    ``kernel`` at its beta, which the M-step's evaluations walk block by
    block as every solve does; no iteration holds them as an array.
    """
    trace: list[tuple[int, float, float]] = []
    for iteration in range(1, controls.max_em_iter + 1):
        w = replace(kernel, beta=phi.beta)
        new_phi, score_norm = _fixed_weight_solve(phi, arrays, w, controls)
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

"""Reference paths that only tests call: the stored donor grid, finite-difference
scores and per-row sampling.

The package computes the donor weights block by block from the factors
of ``fiem._donor_kernel``, every outcome-model score in closed form, and
a parametric pool from each unit's own parameters; these are the
independent versions the tests compare them with.
"""

import math
from typing import Optional

import numpy as np

from fimnar.dataio import Dataset
from fimnar.expfam import (
    Family,
    OutcomeSpec,
    _check_theta_domain,
    _effective_theta,
    _log_mix_weights,
    flatten_params,
    log_density,
    log_density_outer,
    unflatten_params,
)
from fimnar.fiem import _blocks, _log_c_at, _normalize_rows, _take
from fimnar.response import propensity_from_log_odds

FD_STEP_GAMMA = 1e-4  # relative step of the finite-difference score check


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

"""Logistic response mechanism: propensity, nonresponse odds, and score.

The probability of observing the outcome is
``1 / (1 + exp(-(h(x; alpha) + beta*y)))`` with ``h`` linear in ``alpha``
over a monomial basis.  For this link the score of the response-indicator
likelihood reduces to ``(delta - propensity)`` times the design vector
``(basis values, y)``, which is all the estimation machinery needs.
``propensity_from_log_odds`` evaluates that propensity from the
nonresponse log-odds ``-(h + beta*y)``, and is the package's one logistic:
the Bernoulli mean and the simulated response probability call it too.
On a grid of units by outcome values the nonresponse odds factor as
``a_i b_j`` with ``a_i = exp(-h_i)`` and ``b_j = exp(-beta*y_j)``, so
``propensity_from_odds`` evaluates the grid's propensities as
``1 / (1 + a_i b_j)``, with no ``exp`` per cell, from factors that
``odds_factor`` takes once per pass; where a factor is 0 or inf, the pass
uses the log-odds form instead.  The package needs no scipy for either,
nor anywhere else at run time."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional

import numpy as np

from .basis import BasisSet

__all__ = ["ResponseSpec", "LP_CLAMP", "odds_factor", "propensity_from_log_odds",
           "propensity_from_odds"]

# The GLM Newton fits (``respondent._canonical_system``) clip ``x @ coef``
# here, so the Bernoulli and Poisson means stay finite when a step
# overshoots; there the logistic is within 1e-15 of 0 or 1.  The
# propensity needs no clamp: it is exactly 0 where exp overflows.
LP_CLAMP = 35.0


def propensity_from_log_odds(log_odds, out=None) -> np.ndarray:
    """``1 / (1 + exp(log_odds))``, in ``out`` (which may be ``log_odds``) if given.

    Where exp overflows the propensity is exactly 0, with no warning.
    """
    with np.errstate(over="ignore"):
        out = np.exp(log_odds, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def odds_factor(log_odds) -> Optional[np.ndarray]:
    """``exp(log_odds)``, or None when some entry over- or underflows to inf or 0.

    A factor of ``propensity_from_odds``; None sends the caller to the
    log-odds form, because a product of 0 and inf has no value.
    """
    with np.errstate(over="ignore", under="ignore"):
        factor = np.exp(log_odds)
    if np.all(factor > 0.0) and np.all(np.isfinite(factor)):
        return factor
    return None


def propensity_from_odds(a, b, out=None) -> np.ndarray:
    """``1 / (1 + a*b)``, broadcast, in ``out`` if given.

    With ``a = exp(r)`` and ``b = exp(c)`` from ``odds_factor`` this is
    ``propensity_from_log_odds(r + c)`` to rounding, with no ``exp``;
    where the product overflows the propensity is exactly 0, with no
    warning.
    """
    with np.errstate(over="ignore", under="ignore"):
        out = np.multiply(a, b, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


@dataclass(frozen=True)
class ResponseSpec:
    """Logistic response model ``logit P(delta=1|x,y) = h(x;alpha) + beta*y``."""

    h_basis: BasisSet
    alpha: tuple[float, ...]
    beta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        if len(self.alpha) != len(self.h_basis):
            raise ValueError(
                f"{len(self.alpha)} alpha coefficients for "
                f"{len(self.h_basis)} basis terms"
            )

    @property
    def phi(self) -> np.ndarray:
        """Stacked parameter vector (alpha..., beta)."""
        return np.asarray(self.alpha + (self.beta,))

    def with_phi(self, phi: np.ndarray) -> "ResponseSpec":
        phi = np.asarray(phi, dtype=float)
        return replace(self, alpha=tuple(phi[:-1]), beta=float(phi[-1]))

    def h(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        return self.h_basis.design(columns) @ np.asarray(self.alpha)

    def log_odds(self, columns, y) -> np.ndarray:
        """Log-odds of nonresponse, ``-(h + beta*y)``."""
        return -(self.h(columns) + self.beta * np.asarray(y, dtype=float))

    def propensity(self, columns, y) -> np.ndarray:
        """P(delta=1 | x, y); exactly 0 or 1 where it saturates."""
        log_odds = self.log_odds(columns, y)
        return propensity_from_log_odds(log_odds, out=log_odds)

    def odds(self, columns, y) -> np.ndarray:
        """Odds of nonresponse P(delta=0|x,y) / P(delta=1|x,y); inf on overflow."""
        with np.errstate(over="ignore"):
            return np.exp(self.log_odds(columns, y))

    def design(self, columns, y) -> np.ndarray:
        """Score design vector per row: (basis values, y)."""
        return np.column_stack(
            [self.h_basis.design(columns), np.asarray(y, dtype=float)]
        )

    def score_vector(self, columns, y, delta) -> np.ndarray:
        """(delta - propensity) times the design vector, one row per unit."""
        delta = np.asarray(delta, dtype=float)
        resid = delta - self.propensity(columns, y)
        return resid[:, None] * self.design(columns, y)

"""Logistic response mechanism: propensity, nonresponse odds, and score.

The probability of observing the outcome is
``1 / (1 + exp(-(h(x; alpha) + beta*y)))`` with ``h`` linear in ``alpha``
over a monomial basis.  For this link the score of the response-indicator
likelihood reduces to ``(delta - propensity)`` times the design vector
``(basis values, y)``, which is all the estimation machinery needs.
``propensity_from_log_odds`` evaluates that propensity from the
nonresponse log-odds ``-(h + beta*y)``, and is the package's one logistic:
the Bernoulli mean and the simulated response probability call it too.
The package needs no scipy for it; only ``simulate``'s complete-case
interval (``sim.cc_mu_y``) loads ``scipy.special``, for a t quantile."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .basis import BasisSet

__all__ = ["ResponseSpec", "LP_CLAMP", "propensity_from_log_odds"]

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

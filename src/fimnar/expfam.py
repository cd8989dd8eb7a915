"""Exponential-family outcome models, mixtures, and closed-form tilting.

A respondents' outcome density is written as
``exp(tau * (y*theta - b(theta)) + c(y; tau))`` with a per-family
cumulant ``b``, link from the basis-linear predictor to ``theta``, and
dispersion folded into ``tau``.  Multiplying such a density by
``exp(-beta*y)`` and renormalizing stays in the family with natural
parameter ``theta - beta/tau``; this is the nonrespondents' density
under a logistic response mechanism, so tilting is exact and never
requires numerical integration.

Mixtures tilt component-wise; the mixing weights pick up the factor
``exp(-tau*b(theta) + tau*b(theta - beta/tau))`` which generally
depends on the covariates, so a tilted spec keeps its original
components and carries the accumulated tilt in ``tilt_beta``.  All
evaluation helpers apply the tilt on the fly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

import numpy as np
from scipy.special import expit, gammaln

from .basis import BasisSet, parse_formula

__all__ = [
    "Family",
    "Component",
    "OutcomeSpec",
    "SupportError",
    "TiltDomainError",
    "density",
    "log_density",
    "log_density_outer",
    "log_density_factors",
    "log_odds_normalizer",
    "tilt",
    "mean",
    "sample",
    "flatten_params",
    "unflatten_params",
    "n_free_params",
    "spec_to_dict",
    "spec_from_dict",
]

_LOG_2PI = math.log(2.0 * math.pi)


class Family(str, enum.Enum):
    NORMAL = "normal"
    BERNOULLI = "bernoulli"
    GAMMA = "gamma"
    POISSON = "poisson"


class SupportError(ValueError):
    """An outcome value lies outside the family's support."""


class TiltDomainError(ValueError):
    """Tilted natural parameter left the cumulant's domain.

    Signals that the odds integral ``E[exp(-beta*Y) | x]`` diverges at
    the offending covariate value.
    """


@dataclass(frozen=True)
class Component:
    """One mixture component: mean basis, coefficients, dispersion.

    ``dispersion`` is the variance ``sigma^2`` for normal components and
    the shape ``s`` for gamma; Bernoulli and Poisson carry none.
    """

    basis: BasisSet
    coef: tuple[float, ...]
    dispersion: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "coef", tuple(float(c) for c in self.coef))
        if len(self.coef) != len(self.basis):
            raise ValueError(
                f"{len(self.coef)} coefficients for {len(self.basis)} basis terms"
            )

    def eta(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        return self.basis.design(columns) @ np.asarray(self.coef)


@dataclass(frozen=True)
class OutcomeSpec:
    """Exponential-family outcome model, possibly a normal mixture.

    ``weights`` are the mixing proportions (length K, summing to one);
    ``tilt_beta`` accumulates exponential tilts, zero for a respondents'
    model.  Mixtures with K >= 2 are supported for the normal family
    only.
    """

    family: Family
    components: tuple[Component, ...]
    weights: tuple[float, ...] = field(default=())
    tilt_beta: float = 0.0

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("at least one component required")
        if not self.weights:
            object.__setattr__(
                self, "weights", tuple([1.0 / len(self.components)] * len(self.components))
            )
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.weights) != len(self.components):
            raise ValueError("one mixing weight per component required")
        if any(w < 0 for w in self.weights):
            raise ValueError("mixing weights must be nonnegative")
        if abs(sum(self.weights) - 1.0) > 1e-8:
            raise ValueError("mixing weights must sum to one")
        if self.k > 1 and self.family is not Family.NORMAL:
            raise ValueError("mixtures are supported for the normal family only")
        for comp in self.components:
            if self.family is Family.NORMAL:
                # zero is allowed as the boundary MLE of a noise-free fit;
                # such a spec reports parameters but cannot be evaluated
                if comp.dispersion is None or comp.dispersion < 0:
                    raise ValueError("normal components need nonnegative variance")
            elif self.family is Family.GAMMA:
                if comp.dispersion is None or comp.dispersion <= 0:
                    raise ValueError("gamma components need a positive shape")
            elif comp.dispersion is not None:
                raise ValueError(
                    f"{self.family.value} components carry no dispersion"
                )

    @property
    def k(self) -> int:
        return len(self.components)

    def tau(self, index: int) -> float:
        return _tau(self.family, self.components[index].dispersion)


# ---------------------------------------------------------------------------
# per-family primitives
# ---------------------------------------------------------------------------


def _tau(family: Family, dispersion: Optional[float]) -> float:
    if family is Family.NORMAL:
        return 1.0 / float(dispersion)  # type: ignore[arg-type]
    if family is Family.GAMMA:
        return -float(dispersion)  # type: ignore[arg-type]
    return 1.0


def _b(family: Family, theta: np.ndarray) -> np.ndarray:
    if family is Family.NORMAL:
        return 0.5 * theta**2
    if family is Family.BERNOULLI:
        return np.logaddexp(0.0, theta)
    if family is Family.POISSON:
        return np.exp(theta)
    return np.log(theta)


def _b_prime(family: Family, theta: np.ndarray) -> np.ndarray:
    if family is Family.NORMAL:
        return theta
    if family is Family.BERNOULLI:
        return expit(theta)
    if family is Family.POISSON:
        return np.exp(theta)
    return 1.0 / theta


def _theta_base(family: Family, eta: np.ndarray) -> np.ndarray:
    """Link from the linear predictor to the natural parameter."""
    if family is Family.GAMMA:
        return np.exp(-eta)
    return eta


def _log_c(family: Family, y: np.ndarray, tau: float) -> np.ndarray:
    if family is Family.NORMAL:
        return -0.5 * tau * y**2 + 0.5 * (math.log(tau) - _LOG_2PI)
    if family is Family.BERNOULLI:
        return np.zeros_like(y, dtype=float)
    if family is Family.POISSON:
        return -gammaln(y + 1.0)
    s = -tau
    return s * math.log(s) - gammaln(s) + (s - 1.0) * np.log(y)


def _check_support(family: Family, y: np.ndarray) -> None:
    y = np.asarray(y, dtype=float)
    if family is Family.BERNOULLI:
        if not np.all((y == 0.0) | (y == 1.0)):
            raise SupportError("Bernoulli outcomes must lie in {0, 1}")
    elif family is Family.GAMMA:
        if not np.all(y > 0.0):
            raise SupportError("gamma outcomes must be positive")
    elif family is Family.POISSON:
        if not np.all((y >= 0.0) & (y == np.floor(y))):
            raise SupportError("Poisson outcomes must be nonnegative integers")
    else:
        if not np.all(np.isfinite(y)):
            raise SupportError("normal outcomes must be finite")


def _effective_theta(spec: OutcomeSpec, index: int, columns) -> np.ndarray:
    """Natural parameter of component `index`, tilt applied, domain-checked."""
    theta = _theta_base(spec.family, spec.components[index].eta(columns))
    if spec.tilt_beta != 0.0:
        theta = theta - spec.tilt_beta / spec.tau(index)
        _check_theta_domain(spec.family, theta)
    return theta


def _check_theta_domain(family: Family, theta: np.ndarray) -> None:
    if family is Family.GAMMA and np.any(theta <= 0.0):
        raise TiltDomainError(
            "tilted gamma natural parameter is not positive; the odds "
            "integral diverges at some covariate values"
        )


def _log_mix_weights(spec: OutcomeSpec, columns) -> np.ndarray:
    """Log mixing weights at each row, shape (K, n); tilt re-weights them."""
    n = len(next(iter(columns.values())))
    logw = np.log(np.asarray(spec.weights))[:, None] * np.ones((1, n))
    if spec.tilt_beta != 0.0:
        for k in range(spec.k):
            theta0 = _theta_base(spec.family, spec.components[k].eta(columns))
            tau = spec.tau(k)
            theta1 = theta0 - spec.tilt_beta / tau
            _check_theta_domain(spec.family, theta1)
            logw[k] += tau * (_b(spec.family, theta1) - _b(spec.family, theta0))
        logw -= _logsumexp0(logw)[None]
    return logw


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------


def _logsumexp0(a: np.ndarray) -> np.ndarray:
    """logsumexp over axis 0; tolerates rows of all -inf."""
    top = np.max(a, axis=0)
    finite = np.isfinite(top)
    safe_top = np.where(finite, top, 0.0)
    out = safe_top + np.log(np.sum(np.exp(a - safe_top[None]), axis=0))
    return np.where(finite, out, top)


def _log_density(spec: OutcomeSpec, y, columns, outer: bool) -> np.ndarray:
    """Log density of y[i] under row i's model, or with ``outer`` of every
    y value under every row's model, shape (n, m)."""
    y = np.asarray(y, dtype=float)
    _check_support(spec.family, y)

    def component(k: int) -> np.ndarray:
        theta = _effective_theta(spec, k, columns)
        if outer:
            theta = theta[:, None]
        tau = spec.tau(k)
        return tau * (y * theta - _b(spec.family, theta)) + _log_c(spec.family, y, tau)

    if spec.k == 1:
        return component(0)
    logw = _log_mix_weights(spec, columns)  # (K, n)
    if outer:
        logw = logw[:, :, None]
    parts = np.empty(np.broadcast_shapes(logw.shape, y.shape))
    for k in range(spec.k):
        parts[k] = component(k)
    return _logsumexp0(parts + logw)


def log_density(spec: OutcomeSpec, y, columns: Mapping[str, np.ndarray]) -> np.ndarray:
    """Pointwise log density: y[i] evaluated under the row i model."""
    return _log_density(spec, y, columns, outer=False)


def log_density_outer(
    spec: OutcomeSpec, y_values: np.ndarray, columns: Mapping[str, np.ndarray]
) -> np.ndarray:
    """Log density of every y value under every row's model, shape (n, m)."""
    return _log_density(spec, y_values, columns, outer=True)


def log_density_factors(
    spec: OutcomeSpec, y_values: np.ndarray, columns: Mapping[str, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A one-component ``log_density_outer`` as ``slope[:, None]*y + offset[:, None] + log_c``.

    Returns the row slope ``tau*theta``, the row offset ``-tau*b(theta)``
    and the column term ``log c(y)``: the formula of ``_log_density``'s
    ``component``, so that an (n, m) grid of log densities is never needed.
    The support check runs once on ``y_values``.
    """
    if spec.k != 1:
        raise ValueError("a mixture's log density has no rank-one factors")
    y = np.asarray(y_values, dtype=float)
    _check_support(spec.family, y)
    theta = _effective_theta(spec, 0, columns)
    tau = spec.tau(0)
    return tau * theta, -tau * _b(spec.family, theta), _log_c(spec.family, y, tau)


def density(spec: OutcomeSpec, y, columns: Mapping[str, np.ndarray]) -> np.ndarray:
    """Mixture density f(y | x), nonnegative."""
    return np.exp(log_density(spec, y, columns))


# ---------------------------------------------------------------------------
# tilting and the odds normalizer
# ---------------------------------------------------------------------------


def tilt(spec: OutcomeSpec, beta: float) -> OutcomeSpec:
    """Density proportional to ``f(y|x) * exp(-beta*y)``, same family.

    The natural parameter of every component shifts by ``-beta/tau`` and
    mixture weights are re-normalized at evaluation time.  Tilting by 0
    returns an identical spec; tilting by beta then -beta restores the
    original exactly.
    """
    return replace(spec, tilt_beta=spec.tilt_beta + float(beta))


def log_odds_normalizer(
    spec: OutcomeSpec, beta: float, columns: Mapping[str, np.ndarray]
) -> np.ndarray:
    """log E[exp(-beta*Y) | x] under the outcome model, one per row.

    Computed in closed form from the cumulant:
    ``logsumexp_k(log pi_k(x) - tau_k b(theta_k) + tau_k b(theta_k - beta/tau_k))``.
    Raises TiltDomainError when the integral diverges.
    """
    beta = float(beta)
    logw = _log_mix_weights(spec, columns)
    n = logw.shape[1]
    out = np.empty((spec.k, n))
    for k in range(spec.k):
        theta = _effective_theta(spec, k, columns)
        tau = spec.tau(k)
        shifted = theta - beta / tau
        _check_theta_domain(spec.family, shifted)
        out[k] = tau * (_b(spec.family, shifted) - _b(spec.family, theta))
    return _logsumexp0(out + logw)


# ---------------------------------------------------------------------------
# moments and sampling
# ---------------------------------------------------------------------------


def component_means(spec: OutcomeSpec, columns) -> np.ndarray:
    """Per-component conditional means, shape (K, n)."""
    return np.stack(
        [_b_prime(spec.family, _effective_theta(spec, k, columns)) for k in range(spec.k)]
    )


def mean(spec: OutcomeSpec, columns: Mapping[str, np.ndarray]) -> np.ndarray:
    """Conditional mean E[Y | x] per row."""
    return np.sum(np.exp(_log_mix_weights(spec, columns)) * component_means(spec, columns), axis=0)


def sample(
    spec: OutcomeSpec, columns: Mapping[str, np.ndarray], rng: np.random.Generator
) -> np.ndarray:
    """Draw one outcome per row; mixture components chosen per row."""
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
            sigma = math.sqrt(float(spec.components[k].dispersion))  # type: ignore[arg-type]
            out[rows] = rng.normal(theta, sigma)
        elif spec.family is Family.BERNOULLI:
            out[rows] = (rng.random(theta.size) < expit(theta)).astype(float)
        elif spec.family is Family.POISSON:
            out[rows] = rng.poisson(np.exp(theta)).astype(float)
        else:
            s = float(spec.components[k].dispersion)  # type: ignore[arg-type]
            _check_theta_domain(Family.GAMMA, theta)
            out[rows] = rng.gamma(shape=s, scale=1.0 / (s * theta))
    return out


# ---------------------------------------------------------------------------
# parameter vector view (used by finite-difference score code and EM)
# ---------------------------------------------------------------------------


def flatten_params(spec: OutcomeSpec) -> np.ndarray:
    """Free parameters as one vector: coefs, dispersions, first K-1 weights."""
    parts: list[float] = []
    for comp in spec.components:
        parts.extend(comp.coef)
    for comp in spec.components:
        if comp.dispersion is not None:
            parts.append(comp.dispersion)
    if spec.k > 1:
        parts.extend(spec.weights[:-1])
    return np.asarray(parts, dtype=float)


def unflatten_params(spec: OutcomeSpec, vec: np.ndarray) -> OutcomeSpec:
    """Rebuild a spec of the same shape from a flat parameter vector."""
    vec = np.asarray(vec, dtype=float)
    pos = 0
    comps: list[Component] = []
    for comp in spec.components:
        m = len(comp.coef)
        comps.append(replace(comp, coef=tuple(vec[pos : pos + m])))
        pos += m
    has_disp = spec.components[0].dispersion is not None
    if has_disp:
        comps = [
            replace(c, dispersion=float(vec[pos + i])) for i, c in enumerate(comps)
        ]
        pos += len(comps)
    if spec.k > 1:
        head = vec[pos : pos + spec.k - 1]
        pos += spec.k - 1
        weights = tuple(head) + (1.0 - float(np.sum(head)),)
    else:
        weights = spec.weights
    if pos != vec.size:
        raise ValueError("parameter vector has wrong length")
    return replace(spec, components=tuple(comps), weights=weights)


def n_free_params(spec: OutcomeSpec) -> int:
    """Free parameter count: sum of basis sizes + dispersions + (K-1)."""
    return flatten_params(spec).size


# ---------------------------------------------------------------------------
# config serialization
# ---------------------------------------------------------------------------


def spec_to_dict(spec: OutcomeSpec) -> dict:
    return {
        "family": spec.family.value,
        "k": spec.k,
        "weights": list(spec.weights),
        "tilt_beta": spec.tilt_beta,
        "components": [
            {
                "mean": comp.basis.render(),
                "coef": list(comp.coef),
                "dispersion": comp.dispersion,
            }
            for comp in spec.components
        ],
    }


def spec_from_dict(payload: Mapping, kinds) -> OutcomeSpec:
    family = Family(payload["family"])
    comps = []
    for entry in payload["components"]:
        basis = parse_formula(entry["mean"], kinds)
        coef = entry.get("coef")
        if coef is None:
            coef = [0.0] * len(basis)
        comps.append(Component(basis, tuple(coef), entry.get("dispersion")))
    weights = tuple(payload.get("weights") or ())
    return OutcomeSpec(
        family,
        tuple(comps),
        weights,
        float(payload.get("tilt_beta", 0.0)),
    )

"""Run configuration: JSON schema for models, data layout, and controls.

A configuration is parsed and checked once, at load: the data layout
becomes a ``DataSchema``, the response basis and every candidate's
component formulas become ``BasisSet``s, and each candidate becomes the
``OutcomeSpec`` its declared values give.  A malformed layout, formula or
candidate is a ``ConfigError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .basis import BasisSet, CovariateKind, FormulaError, binary, categorical, continuous, parse_formula
from .dataio import DataSchema
from .expfam import Component, Family, OutcomeSpec
from .fiem import FiControls

__all__ = ["ConfigError", "RunConfig", "OutcomeCandidate", "load_config", "parse_config"]


class ConfigError(ValueError):
    """Malformed run configuration."""


@dataclass(frozen=True)
class OutcomeCandidate:
    """One candidate outcome model from the config grid, built at load.

    ``formulas`` are the component mean formulas as written.  ``spec``
    holds the declared coefficients and dispersions, or unit placeholders
    where none are declared, and ``has_values`` says whether every one was
    declared.
    """

    formulas: tuple[str, ...]
    spec: OutcomeSpec
    has_values: bool

    @property
    def bases(self) -> tuple[BasisSet, ...]:
        return tuple(comp.basis for comp in self.spec.components)


@dataclass(frozen=True)
class RunConfig:
    """A parsed run configuration.

    ``schema`` is the data layout: covariate kinds, outcome and indicator
    columns, and the covariates that ``fimnar fit --standardize`` z-scores.
    """

    schema: DataSchema
    h_basis: BasisSet
    candidates: tuple[OutcomeCandidate, ...]
    sign_beta_known: bool
    controls: FiControls
    engine: str
    m_draws: int
    restarts: int
    seed: int


def _parse_kind(raw) -> CovariateKind:
    if isinstance(raw, str):
        if raw == "continuous":
            return continuous()
        if raw == "binary":
            return binary()
        raise ConfigError(f"covariate kind {raw!r} needs levels; use an object")
    if isinstance(raw, Mapping):
        kind = raw.get("kind", "categorical")
        if kind == "categorical":
            levels = raw.get("levels")
            if not levels:
                raise ConfigError("categorical covariates need a levels list")
            return categorical(levels)
        if kind == "continuous":
            return continuous()
        if kind == "binary":
            return binary()
    raise ConfigError(f"cannot interpret covariate kind {raw!r}")


def _parse_formula(text: str, kinds: Mapping[str, CovariateKind]) -> BasisSet:
    try:
        return parse_formula(text, kinds)
    except FormulaError as err:
        raise ConfigError(str(err)) from err


def _parse_candidate(raw, default_family: Family, kinds: Mapping, index: int) -> OutcomeCandidate:
    """The candidate ``raw``; any error in it is a ConfigError naming candidate ``index``."""
    try:
        return _build_candidate(raw, default_family, kinds)
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"malformed configuration: outcome candidate {index}: {err}") from err


def _build_candidate(raw, default_family: Family, kinds: Mapping) -> OutcomeCandidate:
    family = Family(raw.get("family", default_family.value))
    entries = raw.get("components")
    if not entries:
        raise ConfigError("a components list is required")
    entries = [{"mean": e} if isinstance(e, str) else e for e in entries]
    weights = raw.get("weights")
    if weights is None:
        weights = [1.0 / len(entries)] * len(entries)
    for k, weight in enumerate(weights):
        # a zero component is no mixture component; its log weight has no value
        if not float(weight) > 0.0:
            raise ConfigError(f"mixing weight {k} is {weight!r}; every weight must be positive")
    dispersed = family in (Family.NORMAL, Family.GAMMA)
    comps, has_values = [], True
    for entry in entries:
        basis = _parse_formula(entry["mean"], kinds)
        coef, disp = entry.get("coef"), entry.get("dispersion")
        has_values &= coef is not None and (disp is not None or not dispersed)
        if coef is None:
            coef = [1.0] * len(basis.terms)
        if disp is None and dispersed:
            disp = 1.0
        comps.append((basis, tuple(coef), disp))
    spec = OutcomeSpec(family, tuple(Component(*c) for c in comps), tuple(weights))
    return OutcomeCandidate(tuple(e["mean"] for e in entries), spec, has_values)


def parse_config(payload: Mapping) -> RunConfig:
    try:
        kinds = {name: _parse_kind(raw) for name, raw in payload["covariates"].items()}
        outcome = payload["outcome"]
        default_family = Family(outcome["family"])
        raw_candidates = outcome.get("candidates")
        if raw_candidates is None:
            raw_candidates = [
                {"components": outcome["components"], "weights": outcome.get("weights")}
            ]
        candidates = tuple(
            _parse_candidate(
                raw if isinstance(raw, Mapping) else {"components": raw},
                default_family,
                kinds,
                index,
            )
            for index, raw in enumerate(raw_candidates)
        )
        controls_raw = payload.get("controls", {})
        controls = FiControls(
            tol_phi=float(controls_raw.get("tol", 1e-8)),
            tol_score=float(controls_raw.get("score_tol", 1e-8)),
            max_em_iter=int(controls_raw.get("max_iter", 500)),
        )
        config = RunConfig(
            schema=DataSchema(
                kinds=kinds,
                y=payload.get("y", "y"),
                delta=payload.get("delta"),
                standardize=tuple(payload.get("standardize", ())),
            ),
            h_basis=_parse_formula(payload["response"]["h"], kinds),
            candidates=candidates,
            sign_beta_known=bool(payload.get("sign_beta_known", False)),
            controls=controls,
            engine=str(controls_raw.get("engine", "donor")),
            m_draws=int(controls_raw.get("m_draws", 500)),
            restarts=int(controls_raw.get("restarts", 10)),
            seed=int(payload.get("seed", 0)),
        )
    except (KeyError, TypeError, ValueError) as err:
        if isinstance(err, ConfigError):
            raise
        raise ConfigError(f"malformed configuration: {err}") from err
    if config.engine not in ("donor", "parametric"):
        raise ConfigError(f"unknown imputation engine {config.engine!r}")
    if config.m_draws < 1:
        raise ConfigError(f"controls.m_draws must be at least 1, got {config.m_draws}")
    return config


def load_config(path) -> RunConfig:
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"configuration is not valid JSON: {err}") from err
    return parse_config(payload)

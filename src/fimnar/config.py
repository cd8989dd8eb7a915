"""Run configuration: JSON schema for models, data layout, and controls."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional

from .basis import BasisSet, CovariateKind, FormulaError, binary, categorical, continuous, parse_formula
from .dataio import DataSchema
from .expfam import Component, Family, OutcomeSpec
from .fiem import FiControls

__all__ = ["ConfigError", "RunConfig", "OutcomeCandidate", "load_config", "parse_config"]


class ConfigError(ValueError):
    """Malformed run configuration."""


@dataclass(frozen=True)
class OutcomeCandidate:
    """One candidate outcome model from the config grid."""

    family: Family
    formulas: tuple[str, ...]
    coefs: tuple[Optional[tuple[float, ...]], ...]
    dispersions: tuple[Optional[float], ...]
    weights: tuple[float, ...]

    @property
    def k(self) -> int:
        return len(self.formulas)

    def bases(self, kinds) -> tuple[BasisSet, ...]:
        return tuple(parse_formula(f, kinds) for f in self.formulas)

    def has_values(self) -> bool:
        if any(c is None for c in self.coefs):
            return False
        if self.family in (Family.NORMAL, Family.GAMMA):
            return all(d is not None for d in self.dispersions)
        return True

    def spec(self, kinds) -> OutcomeSpec:
        """Spec with declared values (or unit placeholders in their absence)."""
        comps = []
        for formula, coef, disp in zip(self.formulas, self.coefs, self.dispersions):
            basis = parse_formula(formula, kinds)
            if coef is None:
                coef = tuple(1.0 for _ in basis.terms)
            if disp is None and self.family in (Family.NORMAL, Family.GAMMA):
                disp = 1.0
            comps.append(Component(basis, tuple(coef), disp))
        return OutcomeSpec(self.family, tuple(comps), self.weights)


@dataclass(frozen=True)
class RunConfig:
    kinds: dict[str, CovariateKind]
    y: str
    delta: Optional[str]
    standardize: tuple[str, ...]
    response_h: str
    candidates: tuple[OutcomeCandidate, ...]
    sign_beta_known: bool
    controls: FiControls
    engine: str
    m_draws: int
    restarts: int
    seed: int

    def schema(self) -> DataSchema:
        return DataSchema(
            kinds=self.kinds,
            y=self.y,
            delta=self.delta,
            standardize=self.standardize,
        )

    def h_basis(self) -> BasisSet:
        return parse_formula(self.response_h, self.kinds)


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


def _parse_candidate(raw, default_family: Family, index: int) -> OutcomeCandidate:
    family = Family(raw.get("family", default_family.value))
    entries = raw.get("components")
    if not entries:
        raise ConfigError("an outcome candidate needs a components list")
    formulas, coefs, disps = [], [], []
    for entry in entries:
        if isinstance(entry, str):
            formulas.append(entry)
            coefs.append(None)
            disps.append(None)
        else:
            formulas.append(entry["mean"])
            coef = entry.get("coef")
            coefs.append(tuple(coef) if coef is not None else None)
            disps.append(entry.get("dispersion"))
    weights = raw.get("weights")
    if weights is None:
        weights = tuple([1.0 / len(formulas)] * len(formulas))
    for k, weight in enumerate(weights):
        # a zero component is no mixture component; its log weight has no value
        if not float(weight) > 0.0:
            raise ConfigError(
                f"outcome candidate {index}: mixing weight {k} is {weight!r}; "
                "every weight must be positive"
            )
    return OutcomeCandidate(
        family, tuple(formulas), tuple(coefs), tuple(disps), tuple(weights)
    )


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
            kinds=kinds,
            y=payload.get("y", "y"),
            delta=payload.get("delta"),
            standardize=tuple(payload.get("standardize", ())),
            response_h=payload["response"]["h"],
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
    # fail fast on unparseable formulas
    try:
        config.h_basis()
        for cand in config.candidates:
            cand.bases(config.kinds)
    except FormulaError as err:
        raise ConfigError(str(err)) from err
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

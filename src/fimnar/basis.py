"""Monomial basis sets with optional categorical gates.

All model structure in this package (outcome mean functions and the
covariate part of the response mechanism) is expressed through small
ordered sets of basis functions.  Each basis function is a monomial,
a product of integer powers of covariates, optionally gated on one
level of a categorical grouping column so that per-level sub-models
can live in a single formula, e.g. ``[z=1](1 + x) + [z=2](1 + x)``.

Basis sets are immutable after construction and canonically ordered,
so downstream output (identifiability certificates, reports) is
deterministic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

import numpy as np

__all__ = [
    "CovariateKind",
    "BasisTerm",
    "BasisSet",
    "FormulaError",
    "parse_formula",
    "set_difference",
    "continuous",
    "binary",
    "categorical",
]


class FormulaError(ValueError):
    """Raised for malformed formulas or inconsistent covariate kinds."""


@dataclass(frozen=True)
class CovariateKind:
    """Declared kind of a covariate: continuous, binary, or categorical."""

    kind: str
    levels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("continuous", "binary", "categorical"):
            raise FormulaError(f"unknown covariate kind {self.kind!r}")
        if self.kind == "categorical" and len(self.levels) < 2:
            raise FormulaError("categorical covariates need at least two levels")
        if self.kind != "categorical" and self.levels:
            raise FormulaError(f"{self.kind} covariates do not carry levels")

    @property
    def is_continuous(self) -> bool:
        return self.kind == "continuous"

    def n_values(self) -> Optional[int]:
        """Number of attainable values; None for continuous covariates."""
        if self.kind == "continuous":
            return None
        if self.kind == "binary":
            return 2
        return len(self.levels)


def continuous() -> CovariateKind:
    return CovariateKind("continuous")


def binary() -> CovariateKind:
    return CovariateKind("binary")


def categorical(levels: Iterable) -> CovariateKind:
    return CovariateKind("categorical", tuple(str(v) for v in levels))


@dataclass(frozen=True)
class BasisTerm:
    """One monomial ``prod_i x_i^{s_i}``, optionally gated on ``[col=level]``.

    ``exponents`` is a sorted tuple of (covariate name, positive power)
    pairs; the empty tuple is the constant term 1.  Two terms are equal
    iff their exponents and gate agree.
    """

    exponents: tuple[tuple[str, int], ...] = ()
    gate: Optional[tuple[str, str]] = None

    def __post_init__(self) -> None:
        for name, power in self.exponents:
            if power <= 0 or int(power) != power:
                raise FormulaError(
                    f"exponent of {name!r} must be a positive integer, got {power}"
                )
        canon = tuple(sorted((n, int(p)) for n, p in self.exponents))
        object.__setattr__(self, "exponents", canon)

    @property
    def is_constant(self) -> bool:
        return not self.exponents and self.gate is None

    @property
    def degree(self) -> int:
        return sum(p for _, p in self.exponents)

    def covariates(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.exponents)

    def references_continuous(self, kinds: Mapping[str, CovariateKind]) -> bool:
        return any(kinds[n].is_continuous for n, _ in self.exponents)

    def ungated(self) -> "BasisTerm":
        return BasisTerm(self.exponents, None)

    def evaluate(
        self, columns: Mapping[str, np.ndarray], kinds: Mapping[str, CovariateKind]
    ) -> np.ndarray:
        """Evaluate the term on column arrays; returns a float vector.

        A gate compares a categorical column with its level as a string,
        and a binary or continuous one, stored as floats, with the level's
        number.
        """
        n = len(next(iter(columns.values())))
        out = np.ones(n)
        for name, power in self.exponents:
            out *= np.asarray(columns[name], dtype=float) ** power
        if self.gate is not None:
            col, level = self.gate
            if kinds[col].kind == "categorical":
                out *= np.asarray(columns[col]).astype(str) == level
            else:
                out *= np.asarray(columns[col], dtype=float) == float(level)
        return out

    def render(self) -> str:
        if not self.exponents:
            body = "1"
        else:
            body = "*".join(
                name if power == 1 else f"{name}^{power}"
                for name, power in self.exponents
            )
        if self.gate is None:
            return body
        return f"[{self.gate[0]}={self.gate[1]}]{body}"

    def _sort_key(self):
        gate = self.gate if self.gate is not None else ("", "")
        return (gate, self.covariates(), self.degree, self.exponents)


@dataclass(frozen=True)
class BasisSet:
    """Canonically ordered, duplicate-free collection of basis terms."""

    terms: tuple[BasisTerm, ...]
    kinds: Mapping[str, CovariateKind] = field(default_factory=dict)

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.terms, key=BasisTerm._sort_key))
        if len(set(ordered)) != len(ordered):
            dupes = sorted(
                {t.render() for t in ordered if ordered.count(t) > 1}
            )
            raise FormulaError(f"duplicate basis terms: {', '.join(dupes)}")
        object.__setattr__(self, "terms", ordered)
        object.__setattr__(self, "kinds", dict(self.kinds))
        for t in self.terms:
            for name, _ in t.exponents:
                kind = self.kinds.get(name)
                if kind is None:
                    raise FormulaError(f"unknown covariate {name!r}")
                if kind.kind == "categorical":
                    raise FormulaError(
                        f"categorical covariate {name!r} may only appear in a gate"
                    )
            if t.gate is not None:
                col, level = t.gate
                kind = self.kinds.get(col)
                if kind is None:
                    raise FormulaError(f"unknown gate column {col!r}")
                valid = kind.levels if kind.kind == "categorical" else ("0", "1")
                if level not in valid:
                    raise FormulaError(
                        f"gate level {level!r} not among levels of {col!r}"
                    )

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, term: BasisTerm) -> bool:
        return term in self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, BasisSet):
            return NotImplemented
        return self.terms == other.terms and dict(self.kinds) == dict(other.kinds)

    def design(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        """Stack term values into an (n, len(self)) design matrix."""
        if not self.terms:
            n = len(next(iter(columns.values())))
            return np.empty((n, 0))
        return np.column_stack([t.evaluate(columns, self.kinds) for t in self.terms])

    def render(self) -> str:
        return " + ".join(t.render() for t in self.terms)

    def covariates(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for t in self.terms:
            for name, _ in t.exponents:
                seen.setdefault(name)
            if t.gate is not None:
                seen.setdefault(t.gate[0])
        return tuple(sorted(seen))

    def gate_levels(self) -> tuple[tuple[str, str], ...]:
        """Distinct gates appearing in the set, in canonical order."""
        seen: dict[tuple[str, str], None] = {}
        for t in self.terms:
            if t.gate is not None:
                seen.setdefault(t.gate)
        return tuple(sorted(seen))

    def for_gate(self, gate: Optional[tuple[str, str]]) -> "BasisSet":
        """Sub-basis of terms carrying `gate`, with the gate stripped."""
        picked = tuple(t.ungated() for t in self.terms if t.gate == gate)
        return BasisSet(picked, self.kinds)


_TOKEN = re.compile(
    r"\s*(?:(?P<plus>\+)|(?P<times>\*)|(?P<caret>\^)|(?P<lpar>\()|(?P<rpar>\))"
    r"|(?P<gate>\[\s*(?P<gcol>[A-Za-z_]\w*)\s*=\s*(?P<glev>[^\]\s]+)\s*\])"
    r"|(?P<name>[A-Za-z_]\w*)|(?P<num>-?\d+(?:\.\d+)?))"
)


def _tokenize(spec: str) -> list[tuple[str, object]]:
    tokens: list[tuple[str, object]] = []
    pos = 0
    while pos < len(spec):
        m = _TOKEN.match(spec, pos)
        if m is None or m.end() == pos:
            raise FormulaError(f"unexpected character at {spec[pos:]!r}")
        pos = m.end()
        if m.lastgroup in (None, "glev", "gcol"):
            kind = "gate"
        else:
            kind = m.lastgroup
        if kind == "gate":
            tokens.append(("gate", (m.group("gcol"), m.group("glev"))))
        else:
            tokens.append((kind, m.group(kind)))
    return tokens


class _Parser:
    """Recursive-descent parser for `term ("+" term)*` formulas."""

    def __init__(self, tokens: list[tuple[str, object]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self, kind: str) -> object:
        if self.peek() != kind:
            raise FormulaError(
                f"expected {kind} at token {self.pos} of formula"
            )
        value = self.tokens[self.pos][1]
        self.pos += 1
        return value

    def parse_formula(self) -> list[BasisTerm]:
        terms = self.parse_element()
        while self.peek() == "plus":
            self.take("plus")
            terms.extend(self.parse_element())
        if self.pos != len(self.tokens):
            raise FormulaError("trailing tokens in formula")
        return terms

    def parse_element(self) -> list[BasisTerm]:
        gate: Optional[tuple[str, str]] = None
        if self.peek() == "gate":
            col, lev = self.take("gate")  # type: ignore[misc]
            gate = (str(col), str(lev))
        if self.peek() == "lpar":
            self.take("lpar")
            terms = [self.parse_product()]
            while self.peek() == "plus":
                self.take("plus")
                terms.append(self.parse_product())
            self.take("rpar")
        else:
            terms = [self.parse_product()]
        return [BasisTerm(t.exponents, gate) for t in terms]

    def parse_product(self) -> BasisTerm:
        exps: dict[str, int] = {}
        self.parse_factor(exps)
        while self.peek() == "times":
            self.take("times")
            self.parse_factor(exps)
        return BasisTerm(tuple(exps.items()))

    def parse_factor(self, exps: dict[str, int]) -> None:
        kind = self.peek()
        if kind == "num":
            value = str(self.take("num"))
            if value != "1":
                raise FormulaError(
                    f"numeric factor {value!r} is not allowed; only the constant 1"
                )
            return
        if kind != "name":
            raise FormulaError("expected a covariate name or 1")
        name = str(self.take("name"))
        power = 1
        if self.peek() == "caret":
            self.take("caret")
            if self.peek() != "num":
                raise FormulaError(f"missing exponent after {name}^")
            raw = str(self.take("num"))
            try:
                power = int(raw)
            except ValueError:
                raise FormulaError(f"exponent {raw!r} is not an integer") from None
            if power < 0:
                raise FormulaError(f"negative exponent {power} on {name!r}")
        if power > 0:
            exps[name] = exps.get(name, 0) + power


def parse_formula(spec: str, kinds: Mapping[str, CovariateKind]) -> BasisSet:
    """Parse a formula string into a canonical, deduplicated BasisSet.

    Grammar: ``element ("+" element)*`` where an element is a product of
    ``name``/``name^k`` factors or the constant ``1``, optionally wrapped
    in parentheses and prefixed with a ``[col=level]`` gate that
    distributes over the group.
    """
    terms = _Parser(_tokenize(spec)).parse_formula()
    # Deduplicate while keeping one copy; repeated identical terms in the
    # source formula collapse silently (x + x is still the basis {x}).
    unique: dict[BasisTerm, None] = {}
    for t in terms:
        unique.setdefault(t)
    return BasisSet(tuple(unique), kinds)


def set_difference(outcome_basis: BasisSet, h_basis: BasisSet) -> BasisSet:
    """Outcome terms not present in the response basis or equal to 1.

    This is the class of "extra" mean-structure terms that the response
    mechanism cannot absorb; a non-empty result is the main lever for
    proving identifiability.
    """
    if dict(outcome_basis.kinds) != dict(h_basis.kinds):
        raise FormulaError("basis sets declare different covariate kinds")
    picked = tuple(
        t
        for t in outcome_basis.terms
        if t not in h_basis.terms and not t.is_constant
    )
    return BasisSet(picked, outcome_basis.kinds)

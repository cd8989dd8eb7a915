"""Identifiability checker for the logistic-response / exp-family model.

Given the structure of the respondents' outcome model (basis sets,
family, mixture layout) and the response mechanism's covariate basis,
the checker decides whether the joint model is provably identifiable
under the sufficient conditions available for this model class, and
produces a human-readable certificate either way.

Verdicts are three-valued.  The available conditions are sufficient,
not necessary, so a failed condition normally yields ``NOT_PROVABLE``;
``PROVABLY_UNIDENTIFIABLE`` is emitted only for the known
counterexample patterns (a two-component mirror-image mixture, and the
two-component linear mixture whose variance/weight relation
``sigma^2/2 + log pi`` coincides across components).

Each rule is written once: ``_check_bases`` holds the one-component
rules and serves every gate level, ``check_model`` the mixture rules.
The spec's coefficient values decide which terms are present, the
negation-asymmetry condition and the linear-mixture conditions; with
``values_known=False`` only what the declared structure forces counts.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

import numpy as np

from .basis import BasisSet, BasisTerm, CovariateKind, set_difference
from .expfam import Family, OutcomeSpec

__all__ = [
    "Status",
    "Rule",
    "IdentifyVerdict",
    "check_single",
    "check_mixture",
    "check_model",
    "permutation_certificate",
]

COEF_TOL = 1e-9  # tolerance for comparisons on user-entered parameter values


class Status(enum.Enum):
    PROVABLY_IDENTIFIABLE = "provably-identifiable"
    NOT_PROVABLE = "not-provable"
    PROVABLY_UNIDENTIFIABLE = "provably-unidentifiable"


class Rule(str, enum.Enum):
    """Which sufficient condition (or counterexample pattern) fired."""

    THM1 = "Thm1"
    COR1 = "Cor1"
    THM3_C2_C3 = "Thm3(C2,C3)"
    THM3_C2_C4 = "Thm3(C2,C4)"
    THM4 = "Thm4"
    THM5 = "Thm5"
    DISCRETE_COUNT = "DiscreteCount"
    EXAMPLE1 = "Example1"
    EXAMPLE5 = "Example5"
    EXAMPLE6 = "Example6"
    NONE = "none"


@dataclass(frozen=True)
class IdentifyVerdict:
    status: Status
    rule: Rule
    certificate: str
    notes: tuple[str, ...] = ()

    @property
    def exit_code(self) -> int:
        return {
            Status.PROVABLY_IDENTIFIABLE: 0,
            Status.NOT_PROVABLE: 2,
            Status.PROVABLY_UNIDENTIFIABLE: 3,
        }[self.status]

    def describe(self) -> str:
        lines = [
            f"status: {self.status.value}",
            f"rule: {self.rule.value}",
            f"certificate: {self.certificate}",
        ]
        lines.extend(f"note: {n}" for n in self.notes)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

_REEVALUATE = ("re-evaluate with fitted values",)


def _not_provable(certificate: str, notes: tuple[str, ...] = ()) -> IdentifyVerdict:
    """A failed condition that no rule of its own names."""
    return IdentifyVerdict(Status.NOT_PROVABLE, Rule.NONE, certificate, notes)


def _active_terms(comp, values_known: bool = True) -> tuple[BasisTerm, ...]:
    """Terms whose coefficient is meaningfully nonzero.

    With known values, a declared term whose entered coefficient is
    exactly zero contributes nothing to the mean and must not be
    allowed to certify identifiability.  In structure-only mode every
    declared term is treated as present with an unknown nonzero
    coefficient.
    """
    if not values_known:
        return comp.basis.terms
    return tuple(
        t
        for t, c in zip(comp.basis.terms, comp.coef)
        if abs(c) > COEF_TOL or t.is_constant
    )


def _continuous_terms(basis: BasisSet, kinds) -> tuple[BasisTerm, ...]:
    return tuple(t for t in basis.terms if t.references_continuous(kinds))


def _referenced_covariates(*bases: BasisSet) -> tuple[str, ...]:
    names: dict[str, None] = {}
    for b in bases:
        for n in b.covariates():
            names.setdefault(n)
    return tuple(sorted(names))


def _discrete_count(
    h: BasisSet, names: Sequence[str], kinds: Mapping[str, CovariateKind]
) -> Optional[IdentifyVerdict]:
    """Unknowns (alpha, beta) against attainable covariate cells.

    None when a covariate is continuous: the count then proves nothing.
    """
    cells = 1
    for name in names:
        n = kinds[name].n_values()
        if n is None:
            return None
        cells *= n
    unknowns = len(h) + 1  # alpha coefficients plus beta
    status = Status.PROVABLY_IDENTIFIABLE if unknowns <= cells else Status.NOT_PROVABLE
    cert = f"{unknowns} unknowns (alpha, beta) vs {cells} attainable covariate values"
    return IdentifyVerdict(status, Rule.DISCRETE_COUNT, cert)


# ---------------------------------------------------------------------------
# single-component checker
# ---------------------------------------------------------------------------


def _check_bases(family: Family, mean_basis: BasisSet, h: BasisSet, kinds) -> IdentifyVerdict:
    """The one-component rules on an ungated mean basis and response basis."""
    names = _referenced_covariates(mean_basis, h)
    if family is Family.NORMAL:
        cont = _continuous_terms(set_difference(mean_basis, h), kinds)
        if cont:
            return IdentifyVerdict(
                Status.PROVABLY_IDENTIFIABLE,
                Rule.COR1,
                f"mean term {cont[0].render()} is continuous and outside the response basis",
            )
        return _discrete_count(h, names, kinds) or IdentifyVerdict(
            Status.NOT_PROVABLE,
            Rule.EXAMPLE1,
            "every continuous mean term is absorbed by the response basis",
        )

    # non-identity cumulant: continuous content on both sides suffices
    cont_h = _continuous_terms(h, kinds)
    cont_mean = _continuous_terms(mean_basis, kinds)
    if cont_h and cont_mean:
        return IdentifyVerdict(
            Status.PROVABLY_IDENTIFIABLE,
            Rule.THM1,
            f"continuous terms {cont_h[0].render()} (response) and "
            f"{cont_mean[0].render()} (mean) with a non-linear cumulant",
        )
    return _discrete_count(h, names, kinds) or _not_provable(
        "no continuous terms on both the response and mean side"
    )


def _merge_level_basis(basis: BasisSet, gate) -> BasisSet:
    """Terms active at one gate level: level-gated plus shared ungated."""
    level = basis.for_gate(gate).terms
    shared = basis.for_gate(None).terms
    merged = tuple(dict.fromkeys(level + shared))
    return BasisSet(merged, basis.kinds)


def check_single(
    outcome: OutcomeSpec,
    h: BasisSet,
    kinds: Mapping[str, CovariateKind],
    values_known: bool = True,
) -> IdentifyVerdict:
    """Identifiability check for a one-component outcome model.

    Normal/identity-link models are identifiable as soon as the mean
    structure contains a continuous-covariate term the response basis
    lacks.  Bernoulli, gamma, and Poisson models (non-linear cumulant)
    are identifiable when both the response basis and the mean basis
    involve continuous covariates.  All-discrete covariates fall back
    to counting unknowns against attainable covariate cells.

    Gated models are checked per gate level, on the level's gated terms
    plus the shared ungated ones: one identifiable level identifies the
    shared ``beta``.  With ``values_known=False`` the check runs on the
    declared structure, treating every declared term as carrying an
    unknown nonzero coefficient.
    """
    if outcome.k != 1:
        raise ValueError("check_single requires a one-component outcome model")
    comp = outcome.components[0]
    mean_basis = BasisSet(_active_terms(comp, values_known), comp.basis.kinds)
    gates = sorted(set(mean_basis.gate_levels()) | set(h.gate_levels()))
    if not gates:
        return _check_bases(outcome.family, mean_basis, h, kinds)

    fails: list[str] = []
    for gate in gates:
        verdict = _check_bases(
            outcome.family, _merge_level_basis(mean_basis, gate), _merge_level_basis(h, gate), kinds
        )
        level = f"[{gate[0]}={gate[1]}]"
        if verdict.status is Status.PROVABLY_IDENTIFIABLE:
            cert = f"level {level}: {verdict.certificate}"
            return IdentifyVerdict(verdict.status, verdict.rule, cert)
        fails.append(f"{level}: {verdict.certificate}")
    return _not_provable("no gate level is provably identifiable; " + "; ".join(fails))


# ---------------------------------------------------------------------------
# permutation certificate for K >= 3 linear mixtures
# ---------------------------------------------------------------------------


def permutation_certificate(
    slopes: Sequence[float],
) -> Optional[tuple[np.ndarray, float]]:
    """Search for a permutation P and scalar r with (P + I) slopes = r 1.

    Returns the violating pair when one exists (the sufficient
    condition on first-order coefficients then fails) and None
    otherwise.  The search is exhaustive over all K! permutations and
    exact: comparisons run in rational arithmetic on the binary values
    of the inputs, so scaling by powers of two cannot change the
    answer.  K = 2 always yields the swap certificate.
    """
    slopes = list(slopes)
    k = len(slopes)
    if k < 2:
        raise ValueError("at least two slopes required")
    exact = [Fraction(float(s)) for s in slopes]
    if len(set(exact)) != k:
        raise ValueError("slopes must be pairwise distinct")
    for perm in itertools.permutations(range(k)):
        sums = [exact[perm[i]] + exact[i] for i in range(k)]
        if all(s == sums[0] for s in sums):
            p = np.zeros((k, k))
            for i, j in enumerate(perm):
                p[i, j] = 1.0
            return p, float(sums[0])
    return None


# ---------------------------------------------------------------------------
# mixture checker
# ---------------------------------------------------------------------------


def _mixture_m_coefficients(outcome: OutcomeSpec, m_terms) -> np.ndarray:
    """Per-component coefficient vectors over the given terms (0 where absent)."""
    rows = np.zeros((outcome.k, len(m_terms)))
    for i, comp in enumerate(outcome.components):
        lookup = dict(zip(comp.basis.terms, comp.coef))
        for j, t in enumerate(m_terms):
            rows[i, j] = lookup.get(t, 0.0)
    return rows


def _multisets_differ(rows: np.ndarray, other: np.ndarray) -> bool:
    """True when the two row multisets differ beyond COEF_TOL."""
    a = sorted(map(tuple, np.round(rows / COEF_TOL) * COEF_TOL))
    b = sorted(map(tuple, np.round(other / COEF_TOL) * COEF_TOL))
    return not np.allclose(np.asarray(a), np.asarray(b), atol=COEF_TOL)


def _shared_relation(outcome: OutcomeSpec) -> Optional[float]:
    """``sigma^2/2 + log pi`` of two components when it is equal across them.

    The Example 5 and Example 6 counterexamples both hinge on it.
    """
    (c1, c2), (p1, p2) = outcome.components, outcome.weights
    lhs = 0.5 * float(c1.dispersion) + math.log(p1)
    rhs = 0.5 * float(c2.dispersion) + math.log(p2)
    return lhs if abs(lhs - rhs) <= COEF_TOL else None


def _slope_term(h: BasisSet) -> Optional[BasisTerm]:
    """The term x when the response basis is exactly {1, x}, else None."""
    if len(h) != 2 or not h.terms[0].is_constant:
        return None
    x = h.terms[1]
    return x if x.gate is None and x.degree == 1 else None


def _structural_c4(outcome: OutcomeSpec, m_terms) -> bool:
    """Can the negation-asymmetry condition be certified from structure?

    Treating declared coefficients as unknown nonzero values, a mirror
    pairing requires a support-preserving permutation of the components
    whose cycles all have even length (odd cycles force zero
    coefficients).  Grouping components by their extra-term support,
    such a permutation exists iff every group with nonempty support has
    even size, so an odd group certifies the condition.
    """
    supports: dict[frozenset, int] = {}
    for comp in outcome.components:
        support = frozenset(t for t in comp.basis.terms if t in m_terms)
        supports[support] = supports.get(support, 0) + 1
    return any(support and count % 2 == 1 for support, count in supports.items())


def check_model(
    outcome: OutcomeSpec,
    h: BasisSet,
    kinds: Mapping[str, CovariateKind],
    sign_beta_known: bool = False,
    values_known: bool = True,
) -> IdentifyVerdict:
    """Identifiability check for any outcome model.

    A one-component model goes to ``check_single``.  A mixture is a
    normal mixture (``OutcomeSpec`` admits no other).  When every
    covariate is discrete the unknowns are counted against the
    attainable cells; otherwise the decision order, assuming continuous
    covariates (C1), is:

    1. The mean structures contain extra terms outside the response
       basis (C2).  Then a known sign of beta (C3) or an asymmetric
       multiset of extra-term coefficient vectors (C4) proves
       identifiability.  The two-component mirror pattern with matching
       ``sigma^2/2 + log pi`` is provably unidentifiable.
    2. No extra terms, all means intercept-plus-slope in one covariate:
       K >= 3 uses the permutation search on the slope vector, K = 2
       uses the three value-dependent slope/variance/weight conditions.
    3. Anything else is not provable.

    In structure-only mode (``values_known=False``) the value-dependent
    branches return NOT_PROVABLE with a note asking for a post-fit
    re-evaluation; the negation-asymmetry condition is still certified
    when the components' extra-term supports force it.
    """
    if outcome.k == 1:
        return check_single(outcome, h, kinds, values_known)

    terms = (t for comp in outcome.components for t in _active_terms(comp, values_known))
    union = BasisSet(tuple(dict.fromkeys(terms)), outcome.components[0].basis.kinds)
    names = _referenced_covariates(union, h)
    if not all(kinds[n].is_continuous for n in names):
        return _discrete_count(h, names, kinds) or _not_provable(
            "C1 fails: covariates are not all continuous"
        )

    m_terms = set_difference(union, h).terms
    if m_terms:
        m_list = ", ".join(t.render() for t in m_terms)
        if sign_beta_known:
            return IdentifyVerdict(
                Status.PROVABLY_IDENTIFIABLE,
                Rule.THM3_C2_C3,
                f"extra mean terms {{{m_list}}} with the sign of beta known",
            )
        if not values_known:
            if _structural_c4(outcome, m_terms):
                return IdentifyVerdict(
                    Status.PROVABLY_IDENTIFIABLE,
                    Rule.THM3_C2_C4,
                    f"extra mean terms {{{m_list}}}; the components' extra-term "
                    "supports rule out a mirror pairing",
                    ("assumes every declared extra term has a nonzero coefficient",),
                )
            return _not_provable(
                f"extra mean terms {{{m_list}}} but the negation-asymmetry "
                "condition depends on coefficient values",
                _REEVALUATE,
            )
        rows = _mixture_m_coefficients(outcome, m_terms)
        if _multisets_differ(rows, -rows):
            return IdentifyVerdict(
                Status.PROVABLY_IDENTIFIABLE,
                Rule.THM3_C2_C4,
                f"extra mean terms {{{m_list}}}; coefficient multiset is not "
                "symmetric under negation",
            )
        # mirror-image two-component pattern
        if (
            outcome.k == 2
            and np.allclose(rows[1], -rows[0], atol=COEF_TOL)
            and (relation := _shared_relation(outcome)) is not None
        ):
            return IdentifyVerdict(
                Status.PROVABLY_UNIDENTIFIABLE,
                Rule.EXAMPLE5,
                f"mirror-image means over {{{m_list}}} with sigma^2/2 + log pi "
                f"equal across components ({relation:.6g})",
            )
        return _not_provable(
            f"extra mean terms {{{m_list}}} but beta sign unknown and the "
            "coefficient multiset is symmetric under negation"
        )

    # no extra terms: every mean lies in the response basis, so the means
    # are intercept-plus-slope in one covariate exactly when it is {1, x}
    slope = _slope_term(h)
    if slope is None:
        return _not_provable(
            "C2 fails (no extra mean terms) and the means are not all "
            "intercept-plus-slope in a single covariate"
        )
    if not values_known:
        if sign_beta_known and outcome.k >= 3:
            return IdentifyVerdict(
                Status.PROVABLY_IDENTIFIABLE,
                Rule.THM4,
                "linear mixture with the sign of beta known",
                ("assumes pairwise-distinct component slopes",),
            )
        return _not_provable(
            "two-component linear conditions depend on coefficient values"
            if sign_beta_known
            else "C2 fails (no extra mean terms); the remaining linear-mixture "
            "conditions depend on coefficient values",
            _REEVALUATE,
        )
    slopes = _mixture_m_coefficients(outcome, (slope,))[:, 0].tolist()
    if outcome.k == 2:
        return _check_two_component_linear(outcome, slopes)
    if len({Fraction(s) for s in slopes}) != outcome.k:
        return _not_provable("C2 fails and the first-order coefficients are not pairwise distinct")
    if sign_beta_known:
        return IdentifyVerdict(
            Status.PROVABLY_IDENTIFIABLE,
            Rule.THM4,
            "linear mixture with distinct slopes and the sign of beta known",
        )
    cert = permutation_certificate(slopes)
    if cert is None:
        return IdentifyVerdict(
            Status.PROVABLY_IDENTIFIABLE,
            Rule.THM4,
            "no permutation P and scalar r solve (P + I) slopes = r 1",
        )
    p, r = cert
    perm = tuple(int(np.argmax(row)) for row in p)
    return IdentifyVerdict(
        Status.NOT_PROVABLE,
        Rule.THM4,
        f"permutation {perm} with r = {r:.6g} solves (P + I) slopes = r 1",
    )


def _check_two_component_linear(outcome: OutcomeSpec, slopes) -> IdentifyVerdict:
    notes = (
        "assumes the response-basis slope alpha_1 is nonzero",
        "assumes both component slopes are nonzero (checked on entered values)",
    )
    k11, k12 = slopes
    if abs(k11) <= COEF_TOL or abs(k12) <= COEF_TOL:
        return _not_provable(
            "a component slope is zero; the two-component conditions do not apply", notes
        )
    if abs(k11 - k12) <= COEF_TOL:
        return IdentifyVerdict(
            Status.NOT_PROVABLE,
            Rule.THM5,
            "condition 1 fails: the component slopes coincide",
            notes,
        )
    relation = _shared_relation(outcome)
    if relation is not None:
        return IdentifyVerdict(
            Status.PROVABLY_UNIDENTIFIABLE,
            Rule.EXAMPLE6,
            "C2 fails (no extra mean terms) and sigma^2/2 + log pi is equal "
            f"across components ({relation:.6g})",
            notes,
        )
    s1, s2 = (float(c.dispersion) for c in outcome.components)
    p1, p2 = outcome.weights
    if abs(s1 - s2) <= COEF_TOL:
        # condition 2: equal variances require unequal weights, and the
        # Example-6 relation above already covers the violation
        cert = "distinct slopes, equal variances, distinct weights"
    elif (math.log(p2) - math.log(p1)) / (s1 - s2) <= COEF_TOL:
        cert = "distinct slopes and (log pi_2 - log pi_1)/(sigma_1^2 - sigma_2^2) <= 0"
    else:
        return IdentifyVerdict(
            Status.NOT_PROVABLE,
            Rule.THM5,
            "condition 3 fails: (log pi_2 - log pi_1)/(sigma_1^2 - sigma_2^2) > 0, "
            "so some beta makes the mixture unidentifiable",
            notes,
        )
    return IdentifyVerdict(Status.PROVABLY_IDENTIFIABLE, Rule.THM5, cert, notes)


# the mixture checker is the same dispatch under its own name
check_mixture = check_model

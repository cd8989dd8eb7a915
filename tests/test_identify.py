import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fimnar.basis import binary, categorical, continuous, parse_formula
from fimnar.expfam import Component, Family, OutcomeSpec
from fimnar.identify import (
    Rule,
    Status,
    check_mixture,
    check_model,
    check_single,
    permutation_certificate,
)

CONT = {"x": continuous()}
BIN = {"x": binary()}


def normal_single(formula, coef, var=1.0, kinds=CONT):
    basis = parse_formula(formula, kinds)
    return OutcomeSpec(Family.NORMAL, (Component(basis, coef, var),))


def normal_mixture(entries, weights, kinds=CONT):
    comps = tuple(
        Component(parse_formula(f, kinds), coef, var) for f, coef, var in entries
    )
    return OutcomeSpec(Family.NORMAL, comps, weights=tuple(weights))


def h(formula, kinds=CONT):
    return parse_formula(formula, kinds)


# ---------------------------------------------------------------------------
# single outcome models (quadratic-mean normal example, three regimes)
# ---------------------------------------------------------------------------


def test_quadratic_mean_continuous_x_identifiable():
    out = normal_single("1 + x + x^2", (0.0, 0.4, 1.0))
    v = check_single(out, h("1 + x"), CONT)
    assert v.status is Status.PROVABLY_IDENTIFIABLE
    assert v.rule is Rule.COR1
    assert "x^2" in v.certificate


def test_linear_mean_continuous_x_not_provable():
    out = normal_single("1 + x", (0.0, 0.4))
    v = check_single(out, h("1 + x"), CONT)
    assert v.status is Status.NOT_PROVABLE


def test_zero_quadratic_coefficient_drops_the_term():
    # the declared basis has x^2 but the entered coefficient is zero
    out = normal_single("1 + x + x^2", (0.0, 0.4, 0.0))
    v = check_single(out, h("1 + x"), CONT)
    assert v.status is Status.NOT_PROVABLE


def test_quadratic_mean_binary_x_counting_deficit():
    out = normal_single("1 + x + x^2", (0.0, 0.4, 1.0), kinds=BIN)
    v = check_single(out, h("1 + x", BIN), BIN)
    assert v.status is Status.NOT_PROVABLE
    assert v.rule is Rule.DISCRETE_COUNT
    assert "3 unknowns" in v.certificate and "2 attainable" in v.certificate


def test_discrete_count_can_prove_identifiability():
    # one response coefficient plus beta = 2 unknowns, 2 attainable values
    out = normal_single("1 + x", (0.0, 0.4), kinds=BIN)
    v = check_single(out, h("1", BIN), BIN)
    assert v.status is Status.PROVABLY_IDENTIFIABLE
    assert v.rule is Rule.DISCRETE_COUNT


@pytest.mark.parametrize(
    "family, dispersion",
    [(Family.BERNOULLI, None), (Family.GAMMA, 2.0), (Family.POISSON, None)],
)
def test_nonlinear_cumulant_families_with_continuous_terms(family, dispersion):
    basis = parse_formula("1 + x", CONT)
    out = OutcomeSpec(family, (Component(basis, (0.1, 0.7), dispersion),))
    v = check_single(out, h("1 + x"), CONT)
    assert v.status is Status.PROVABLY_IDENTIFIABLE
    assert v.rule is Rule.THM1


@pytest.mark.parametrize("family", [Family.BERNOULLI, Family.POISSON])
@pytest.mark.parametrize(
    "response, status, certificate",
    [
        ("1", Status.PROVABLY_IDENTIFIABLE,
         "2 unknowns (alpha, beta) vs 2 attainable covariate values"),
        ("1 + x", Status.NOT_PROVABLE,
         "3 unknowns (alpha, beta) vs 2 attainable covariate values"),
    ],
)
def test_discrete_count_for_a_non_linear_cumulant(family, response, status, certificate):
    out = OutcomeSpec(family, (Component(parse_formula("1 + x", BIN), (0.0, 0.4)),))
    v = check_single(out, h(response, BIN), BIN)
    assert v.status is status
    assert v.rule is Rule.DISCRETE_COUNT
    assert v.certificate == certificate


def test_nonlinear_cumulant_needs_continuous_terms_on_both_sides():
    basis = parse_formula("1 + x", CONT)
    out = OutcomeSpec(Family.BERNOULLI, (Component(basis, (0.1, 0.7)),))
    v = check_single(out, h("1"), CONT)  # constant-only response basis
    assert v.status is Status.NOT_PROVABLE


def test_check_single_rejects_mixtures():
    spec = normal_mixture(
        [("1 + x", (0.0, 1.0), 1.0), ("1 + x", (0.0, 2.0), 1.0)], (0.5, 0.5)
    )
    with pytest.raises(ValueError):
        check_single(spec, h("1 + x"), CONT)


# ---------------------------------------------------------------------------
# gated (per-level) models
# ---------------------------------------------------------------------------

GKINDS = {"x": continuous(), "z": categorical(["1", "2"])}


def test_gated_normal_identifiable_through_one_level():
    out = normal_single(
        "[z=1](1 + x) + [z=2](1 + x + x^2)",
        (1.0, 1.0, 1.0, 1.0, 1.0),
        kinds=GKINDS,
    )
    hb = parse_formula("[z=1](1 + x) + [z=2](1 + x)", GKINDS)
    v = check_single(out, hb, GKINDS)
    assert v.status is Status.PROVABLY_IDENTIFIABLE
    assert "[z=2]" in v.certificate


def test_gated_bernoulli_identifiable():
    basis = parse_formula("[z=1](1 + x) + [z=2](1 + x)", GKINDS)
    out = OutcomeSpec(Family.BERNOULLI, (Component(basis, (1.0,) * 4),))
    hb = parse_formula("[z=1](1 + x) + [z=2](1 + x)", GKINDS)
    v = check_single(out, hb, GKINDS)
    assert v.status is Status.PROVABLY_IDENTIFIABLE


def test_gated_normal_not_provable_when_no_level_has_extra_terms():
    out = normal_single(
        "[z=1](1 + x) + [z=2](1 + x)", (1.0, 1.0, 1.0, 1.0), kinds=GKINDS
    )
    hb = parse_formula("[z=1](1 + x) + [z=2](1 + x)", GKINDS)
    v = check_single(out, hb, GKINDS)
    assert v.status is Status.NOT_PROVABLE


# ---------------------------------------------------------------------------
# permutation certificate
# ---------------------------------------------------------------------------


def oracle_certificate_exists(slopes):
    """Independent rational-arithmetic search over all permutations."""
    exact = [Fraction(float(s)) for s in slopes]
    k = len(exact)
    for perm in itertools.permutations(range(k)):
        r = exact[perm[0]] + exact[0]
        if all(exact[perm[i]] + exact[i] == r for i in range(1, k)):
            return True
    return False


def test_certificate_found_for_arithmetic_slopes():
    cert = permutation_certificate([3.0, 2.0, 1.0])
    assert cert is not None
    p, r = cert
    assert r == 4.0
    # the reversal permutation pairs extremes: (P+I)k = (4, 4, 4)
    assert np.allclose(p @ np.array([3.0, 2.0, 1.0]) + np.array([3.0, 2.0, 1.0]), 4.0)


def test_certificate_absent_for_generic_slopes():
    assert permutation_certificate([5.0, 2.0, 1.0]) is None


def test_two_slopes_always_yield_swap_certificate():
    cert = permutation_certificate([1.0, 2.0])
    assert cert is not None
    p, r = cert
    assert r == 3.0
    assert np.allclose(p, [[0.0, 1.0], [1.0, 0.0]])


def test_certificate_errors():
    with pytest.raises(ValueError):
        permutation_certificate([1.0])
    with pytest.raises(ValueError):
        permutation_certificate([1.0, 1.0, 2.0])


@given(
    st.lists(
        st.integers(-30, 30).map(float), min_size=2, max_size=6, unique=True
    )
)
@settings(max_examples=300)
def test_certificate_matches_rational_oracle(slopes):
    got = permutation_certificate(slopes)
    assert (got is not None) == oracle_certificate_exists(slopes)
    if got is not None:
        p, r = got
        assert np.allclose(p @ np.asarray(slopes) + np.asarray(slopes), r)


@given(
    st.lists(st.integers(-20, 20).map(float), min_size=2, max_size=5, unique=True),
    st.sampled_from([-4.0, -2.0, -1.0, -0.5, 0.5, 2.0, 8.0]),
)
@settings(max_examples=200)
def test_certificate_existence_invariant_to_scaling(slopes, c):
    # powers of two keep float scaling exact, so the homogeneous
    # relation (P+I)k = r 1 is preserved verbatim
    base = permutation_certificate(slopes) is not None
    scaled = permutation_certificate([c * s for s in slopes]) is not None
    assert base == scaled


# ---------------------------------------------------------------------------
# mixtures
# ---------------------------------------------------------------------------


def s3_structure():
    return normal_mixture(
        [("1 + x", (1.0, -1.4), 0.5), ("1 + x + x^2", (-1.5, -0.5, 1.0), 0.5)],
        (0.35, 0.65),
    )


def test_s3_structure_identifiable_by_c2_c4():
    v = check_mixture(s3_structure(), h("1 + x"), CONT)
    assert v.status is Status.PROVABLY_IDENTIFIABLE
    assert v.rule is Rule.THM3_C2_C4
    assert "x^2" in v.certificate


def test_c2_with_known_sign_short_circuits():
    v = check_mixture(s3_structure(), h("1 + x"), CONT, sign_beta_known=True)
    assert v.status is Status.PROVABLY_IDENTIFIABLE
    assert v.rule is Rule.THM3_C2_C3


@pytest.mark.parametrize(
    "entries",
    [
        [("1 + x", (1.0, -1.4), 0.5), ("1 + x + x^2", (-1.5, -0.5, 1.0), 0.5)],
        [("x^2", (1.0,), 1.0), ("x^2", (-1.0,), 1.0), ("x^2", (2.0,), 1.0)],
        [("1 + x", (0.0, 1.0), 1.0), ("x^2", (1.0,), 1.0), ("x^3", (1.0,), 1.0)],
    ],
    ids=["s3", "three-alike", "two-singletons"],
)
def test_structure_only_c4_from_an_odd_support_group(entries):
    # a group of components sharing an extra-term support has odd size,
    # so no mirror pairing of nonzero coefficients exists
    spec = normal_mixture(entries, [1.0 / len(entries)] * len(entries))
    v = check_mixture(spec, h("1 + x"), CONT, values_known=False)
    assert v.status is Status.PROVABLY_IDENTIFIABLE
    assert v.rule is Rule.THM3_C2_C4
    assert "supports rule out a mirror pairing" in v.certificate
    assert v.notes == ("assumes every declared extra term has a nonzero coefficient",)


@pytest.mark.parametrize(
    "entries",
    [
        [("x^2", (1.0,), 1.0), ("x^2", (-1.0,), 1.0)],
        [("x^2", (1.0,), 1.0), ("x^2", (-1.0,), 1.0), ("1 + x", (0.0, 1.0), 1.0)],
        [("x^2", (1.0,), 1.0), ("x^2", (2.0,), 1.0), ("x^3", (1.0,), 1.0), ("x^3", (3.0,), 1.0)],
    ],
    ids=["mirror", "pair-and-empty", "two-pairs"],
)
def test_structure_only_c4_with_even_support_groups_not_provable(entries):
    spec = normal_mixture(entries, [1.0 / len(entries)] * len(entries))
    v = check_mixture(spec, h("1 + x"), CONT, values_known=False)
    assert v.status is Status.NOT_PROVABLE
    assert v.rule is Rule.NONE
    assert "depends on coefficient values" in v.certificate
    assert v.notes == ("re-evaluate with fitted values",)


def mirror_mixture(p1, s1sq, p2, s2sq):
    return normal_mixture(
        [("x^2", (1.0,), s1sq), ("x^2", (-1.0,), s2sq)], (p1, p2)
    )


def test_mirror_mixture_with_matching_relation_unidentifiable():
    # sigma^2/2 + log pi equal across components
    v = check_mixture(mirror_mixture(0.5, 1.0, 0.5, 1.0), h("1 + x"), CONT)
    assert v.status is Status.PROVABLY_UNIDENTIFIABLE
    assert v.rule is Rule.EXAMPLE5


def test_mirror_mixture_asymmetric_relation_case():
    p1, p2 = 0.6, 0.4
    s1sq = 1.0
    s2sq = s1sq + 2.0 * (math.log(p1) - math.log(p2))
    v = check_mixture(mirror_mixture(p1, s1sq, p2, s2sq), h("1 + x"), CONT)
    assert v.status is Status.PROVABLY_UNIDENTIFIABLE


def test_mirror_mixture_without_relation_not_provable():
    v = check_mixture(mirror_mixture(0.5, 1.0, 0.5, 2.0), h("1 + x"), CONT)
    assert v.status is Status.NOT_PROVABLE


def linear_mixture(slopes, variances, weights):
    entries = [
        ("1 + x", (0.0, s), v) for s, v in zip(slopes, variances)
    ]
    return normal_mixture(entries, weights)


def test_two_component_equal_everything_unidentifiable():
    # equal variances and weights force the critical relation; the
    # certificate names the failed C2 condition
    v = check_mixture(linear_mixture([1.0, 2.0], [1.0, 1.0], [0.5, 0.5]), h("1 + x"), CONT)
    assert v.status is Status.PROVABLY_UNIDENTIFIABLE
    assert v.rule is Rule.EXAMPLE6
    assert "C2 fails" in v.certificate


def test_two_component_equal_variance_distinct_weights_identifiable():
    v = check_mixture(linear_mixture([1.0, 2.0], [1.0, 1.0], [0.3, 0.7]), h("1 + x"), CONT)
    assert v.status is Status.PROVABLY_IDENTIFIABLE
    assert v.rule is Rule.THM5
    assert any("alpha_1" in n for n in v.notes)


def test_two_component_condition_three():
    # sigma_1 > sigma_2 with pi_2 < pi_1 gives a negative ratio: identifiable
    v = check_mixture(linear_mixture([1.0, 2.0], [2.0, 1.0], [0.7, 0.3]), h("1 + x"), CONT)
    assert v.status is Status.PROVABLY_IDENTIFIABLE
    # flipping the weights makes the ratio positive: not provable
    v2 = check_mixture(linear_mixture([1.0, 2.0], [2.0, 1.0], [0.3, 0.7]), h("1 + x"), CONT)
    assert v2.status is Status.NOT_PROVABLE


def test_two_component_equal_slopes_fail_condition_one():
    v = check_mixture(linear_mixture([1.5, 1.5], [1.0, 2.0], [0.4, 0.6]), h("1 + x"), CONT)
    assert v.status is Status.NOT_PROVABLE
    assert "condition 1" in v.certificate


def test_three_component_permutation_route():
    v = check_mixture(linear_mixture([5.0, 2.0, 1.0], [1.0] * 3, [0.2, 0.3, 0.5]), h("1 + x"), CONT)
    assert v.status is Status.PROVABLY_IDENTIFIABLE
    assert v.rule is Rule.THM4
    v2 = check_mixture(linear_mixture([3.0, 2.0, 1.0], [1.0] * 3, [0.2, 0.3, 0.5]), h("1 + x"), CONT)
    assert v2.status is Status.NOT_PROVABLE
    assert "permutation" in v2.certificate
    v3 = check_mixture(
        linear_mixture([3.0, 2.0, 1.0], [1.0] * 3, [0.2, 0.3, 0.5]),
        h("1 + x"),
        CONT,
        sign_beta_known=True,
    )
    assert v3.status is Status.PROVABLY_IDENTIFIABLE


@pytest.mark.parametrize(
    "slopes, sign_beta_known, status, rule, certificate, note",
    [
        ([1.0, 2.0], False, Status.NOT_PROVABLE, Rule.NONE,
         "C2 fails (no extra mean terms); the remaining linear-mixture "
         "conditions depend on coefficient values", "re-evaluate with fitted values"),
        ([1.0, 2.0, 5.0], False, Status.NOT_PROVABLE, Rule.NONE,
         "C2 fails (no extra mean terms); the remaining linear-mixture "
         "conditions depend on coefficient values", "re-evaluate with fitted values"),
        ([1.0, 2.0], True, Status.NOT_PROVABLE, Rule.NONE,
         "two-component linear conditions depend on coefficient values",
         "re-evaluate with fitted values"),
        ([1.0, 2.0, 5.0], True, Status.PROVABLY_IDENTIFIABLE, Rule.THM4,
         "linear mixture with the sign of beta known",
         "assumes pairwise-distinct component slopes"),
    ],
    ids=["k2", "k3", "k2-sign-known", "k3-sign-known"],
)
def test_structure_only_linear_mixture(slopes, sign_beta_known, status, rule, certificate, note):
    k = len(slopes)
    spec = linear_mixture(slopes, [1.0] * k, [1.0 / k] * k)
    v = check_mixture(
        spec, h("1 + x"), CONT, sign_beta_known=sign_beta_known, values_known=False
    )
    assert (v.status, v.rule, v.certificate, v.notes) == (status, rule, certificate, (note,))


@pytest.mark.parametrize(
    "spec, sign_beta_known, with_values",
    [
        (mirror_mixture(0.5, 1.0, 0.5, 1.0), False,
         (Status.PROVABLY_UNIDENTIFIABLE, Rule.EXAMPLE5)),
        (mirror_mixture(0.5, 1.0, 0.5, 1.0), True,
         (Status.PROVABLY_IDENTIFIABLE, Rule.THM3_C2_C3)),
        (linear_mixture([1.0, 2.0], [1.0, 1.0], [0.5, 0.5]), False,
         (Status.PROVABLY_UNIDENTIFIABLE, Rule.EXAMPLE6)),
        (linear_mixture([1.0, 2.0], [1.0, 1.0], [0.5, 0.5]), True,
         (Status.PROVABLY_UNIDENTIFIABLE, Rule.EXAMPLE6)),
    ],
    ids=["example5", "example5-sign-known", "example6", "example6-sign-known"],
)
def test_structure_alone_never_proves_unidentifiability(spec, sign_beta_known, with_values):
    # the unidentifiable examples rest on relations among coefficient
    # values, so a structure-only verdict cannot prove them; `fimnar fit`
    # gates on the fitted-values verdict alone
    structure = check_model(
        spec, h("1 + x"), CONT, sign_beta_known=sign_beta_known, values_known=False
    )
    assert structure.status is not Status.PROVABLY_UNIDENTIFIABLE
    v = check_model(spec, h("1 + x"), CONT, sign_beta_known=sign_beta_known)
    assert (v.status, v.rule) == with_values


@pytest.mark.parametrize("sign_beta_known", [False, True])
def test_three_component_equal_slopes_not_provable(sign_beta_known):
    spec = linear_mixture([2.0, 2.0, 5.0], [1.0] * 3, [0.2, 0.3, 0.5])
    v = check_mixture(spec, h("1 + x"), CONT, sign_beta_known=sign_beta_known)
    assert v.status is Status.NOT_PROVABLE
    assert v.rule is Rule.NONE
    assert v.certificate == "C2 fails and the first-order coefficients are not pairwise distinct"


@pytest.mark.parametrize("slopes", [[0.0, 2.0], [2.0, 0.0]])
def test_two_component_zero_slope_not_provable(slopes):
    v = check_mixture(linear_mixture(slopes, [1.0, 2.0], [0.3, 0.7]), h("1 + x"), CONT)
    assert v.status is Status.NOT_PROVABLE
    assert v.rule is Rule.NONE
    assert v.certificate == "a component slope is zero; the two-component conditions do not apply"
    assert len(v.notes) == 2


def test_mixture_without_extra_terms_or_a_linear_form_not_provable():
    spec = normal_mixture(
        [("1 + x + x^2", (0.0, 1.0, 1.0), 1.0), ("1 + x + x^2", (0.0, 2.0, -1.0), 1.0)],
        (0.4, 0.6),
    )
    v = check_mixture(spec, h("1 + x + x^2"), CONT, sign_beta_known=True)
    assert v.status is Status.NOT_PROVABLE
    assert v.rule is Rule.NONE
    assert v.certificate == (
        "C2 fails (no extra mean terms) and the means are not all "
        "intercept-plus-slope in a single covariate"
    )


def test_mixture_with_k1_delegates_to_single():
    out = normal_single("1 + x + x^2", (0.0, 0.4, 1.0))
    assert check_mixture(out, h("1 + x"), CONT) == check_single(out, h("1 + x"), CONT)
    out2 = normal_single("1 + x", (0.0, 0.4))
    assert check_mixture(out2, h("1 + x"), CONT) == check_single(out2, h("1 + x"), CONT)


def test_mixture_requires_continuous_covariates():
    spec = normal_mixture(
        [("1 + x", (0.0, 1.0), 1.0), ("1 + x", (0.0, 2.0), 1.0)],
        (0.4, 0.6),
        kinds=BIN,
    )
    v = check_mixture(spec, h("1 + x", BIN), BIN)
    assert v.status is not Status.PROVABLY_IDENTIFIABLE or v.rule is Rule.DISCRETE_COUNT


def test_mixture_over_mixed_covariates_fails_c1():
    kinds = {"x": continuous(), "b": binary()}
    spec = normal_mixture(
        [("1 + x + b", (0.0, 1.0, 1.0), 1.0), ("1 + x", (0.0, 2.0), 1.0)],
        (0.4, 0.6),
        kinds=kinds,
    )
    v = check_mixture(spec, h("1 + x", kinds), kinds)
    assert v.status is Status.NOT_PROVABLE
    assert v.rule is Rule.NONE
    assert v.certificate == "C1 fails: covariates are not all continuous"


def test_exit_codes():
    identifiable = check_model(s3_structure(), h("1 + x"), CONT)
    assert identifiable.exit_code == 0
    not_provable = check_model(normal_single("1 + x", (0.0, 0.4)), h("1 + x"), CONT)
    assert not_provable.exit_code == 2
    unident = check_model(mirror_mixture(0.5, 1.0, 0.5, 1.0), h("1 + x"), CONT)
    assert unident.exit_code == 3

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fimnar.basis import (
    BasisSet,
    BasisTerm,
    FormulaError,
    binary,
    categorical,
    continuous,
    parse_formula,
    set_difference,
)

KINDS = {
    "x": continuous(),
    "x1": continuous(),
    "x2": continuous(),
    "w": binary(),
    "z": categorical(["1", "2", "3"]),
}


def terms_of(formula):
    return {t.render() for t in parse_formula(formula, KINDS).terms}


def test_parse_simple_polynomial():
    assert terms_of("1 + x + x^2") == {"1", "x", "x^2"}


def test_parse_products_and_powers():
    assert terms_of("1 + x1*x2 + x1^3") == {"1", "x1*x2", "x1^3"}


def test_parse_gated_groups():
    b = parse_formula("[z=1](1 + x) + [z=2](1 + x)", KINDS)
    assert {t.render() for t in b.terms} == {"[z=1]1", "[z=1]x", "[z=2]1", "[z=2]x"}
    assert len(b) == 4


def test_parse_repeated_factor_merges_exponents():
    assert terms_of("x*x + x") == {"x^2", "x"}


def test_parse_deduplicates():
    assert terms_of("x + x + 1") == {"x", "1"}


@pytest.mark.parametrize(
    "bad",
    [
        "1 + q",  # unknown covariate
        "x^-2",  # negative exponent
        "x^1.5",  # non-integer exponent
        "[z=9]x",  # level not declared
        "[q=1]x",  # unknown gate column
        "[z1]x",  # malformed gate
        "2*x",  # numeric factor other than 1
        "z + x",  # categorical used as a monomial factor
        "x +",  # dangling operator
        "(x",  # unbalanced parenthesis
    ],
)
def test_parse_errors(bad):
    with pytest.raises(FormulaError):
        parse_formula(bad, KINDS)


def test_duplicate_terms_rejected_at_construction():
    t = BasisTerm((("x", 1),))
    with pytest.raises(FormulaError):
        BasisSet((t, t), KINDS)


def test_design_evaluates_powers_and_gates():
    cols = {"x": np.array([2.0, -1.0]), "z": np.array(["1", "2"])}
    b = parse_formula("[z=1](1 + x^2)", KINDS)
    d = b.design(cols)
    # rows: z=1 row active, z=2 row gated out
    assert d.tolist() == [[1.0, 4.0], [0.0, 0.0]]


def test_design_gates_binary_and_continuous_columns_numerically():
    # ingest stores binary and continuous columns as floats, so "1.0" must
    # switch on the gate [w=1]; a string comparison left the design all zero
    cols = {"x": np.array([2.0, -1.0]), "w": np.array([1.0, 0.0])}
    d = parse_formula("[w=1](1 + x) + [w=0](1 + x)", KINDS).design(cols)
    assert d.tolist() == [[0.0, 0.0, 1.0, 2.0], [1.0, -1.0, 0.0, 0.0]]
    d = parse_formula("[x=1]1 + [x=0]1", KINDS).design({"x": np.array([1.0, 0.0, 0.5])})
    assert d.tolist() == [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]]


def test_design_empty_basis():
    b = BasisSet((), KINDS)
    assert b.design({"x": np.zeros(3)}).shape == (3, 0)


def test_set_difference_quadratic_term():
    outcome = parse_formula("1 + x + x^2", KINDS)
    h = parse_formula("1 + x", KINDS)
    m = set_difference(outcome, h)
    assert [t.render() for t in m.terms] == ["x^2"]


def test_set_difference_empty_when_nested():
    outcome = parse_formula("1 + x", KINDS)
    h = parse_formula("1 + x", KINDS)
    assert set_difference(outcome, h).terms == ()


def test_set_difference_of_empty_outcome():
    outcome = BasisSet((), KINDS)
    h = parse_formula("1", KINDS)
    assert set_difference(outcome, h).terms == ()


def test_set_difference_requires_matching_kinds():
    outcome = parse_formula("1 + x", KINDS)
    h = parse_formula("1 + x", {"x": continuous()})
    with pytest.raises(FormulaError):
        set_difference(outcome, h)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

_names = st.sampled_from(["x", "x1", "x2", "w"])
_exponents = st.dictionaries(_names, st.integers(1, 4), min_size=0, max_size=3)
_gates = st.one_of(
    st.none(), st.tuples(st.just("z"), st.sampled_from(["1", "2", "3"]))
)
_terms = st.builds(
    lambda exps, gate: BasisTerm(tuple(exps.items()), gate), _exponents, _gates
)
_basis_sets = st.builds(
    lambda ts: BasisSet(tuple(set(ts)), KINDS),
    st.lists(_terms, min_size=1, max_size=6),
)


@given(_basis_sets)
@settings(max_examples=200)
def test_parse_render_round_trip(b):
    assert parse_formula(b.render(), KINDS) == b


@given(_basis_sets, _basis_sets)
@settings(max_examples=200)
def test_set_difference_invariants(outcome, h):
    m = set_difference(outcome, h)
    assert all(t in outcome.terms for t in m.terms)
    assert all(t not in h.terms for t in m.terms)
    assert all(not t.is_constant for t in m.terms)


@given(_basis_sets)
def test_canonical_order_is_stable(b):
    assert BasisSet(tuple(reversed(b.terms)), KINDS) == b

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ATOM_NAMES, formulas, shared_pools
from trivalent.errors import ParseError, ResourceLimitError
from trivalent.formula import (
    And,
    Inference,
    Neg,
    Or,
    Var,
    atoms,
    depth,
    enumerate_formulas,
    parse,
    parse_inference,
    substitute,
    subformulas,
)


def naive_formulas(names, max_depth):
    """Independent oracle: plain recursive enumeration, returned as a set."""
    if max_depth == 0:
        return {Var(n) for n in names}
    smaller = naive_formulas(names, max_depth - 1)
    out = set(smaller)
    out |= {Neg(f) for f in smaller}
    out |= {And(f, g) for f in smaller for g in smaller}
    out |= {Or(f, g) for f in smaller for g in smaller}
    return out


def test_parse_precedence():
    assert parse("~p & q") == And(Neg(Var("p")), Var("q"))
    assert parse("p | q & r") == Or(Var("p"), And(Var("q"), Var("r")))
    assert parse("~~p") == Neg(Neg(Var("p")))
    assert parse("(p | q) & r") == And(Or(Var("p"), Var("q")), Var("r"))


def test_parse_left_associative():
    assert parse("p & q & r") == And(And(Var("p"), Var("q")), Var("r"))
    assert parse("p | q | r") == Or(Or(Var("p"), Var("q")), Var("r"))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse("p &")
    assert exc.value.position == 3
    with pytest.raises(ParseError):
        parse("p $ q")
    with pytest.raises(ParseError):
        parse("(p | q")
    with pytest.raises(ParseError):
        parse("p q")


def test_parse_inference():
    inf = parse_inference("p & ~p => r")
    assert inf.premises == frozenset({And(Var("p"), Neg(Var("p")))})
    assert inf.conclusion == Var("r")

    empty = parse_inference("=> p | ~p")
    assert empty.premises == frozenset()

    dedup = parse_inference("p, p => p")
    assert dedup.premises == frozenset({Var("p")})

    with pytest.raises(ParseError):
        parse_inference("p => q => r")
    with pytest.raises(ParseError):
        parse_inference("p, q")


def test_atoms():
    assert atoms(parse("p | (q & ~q)")) == {"p", "q"}
    assert atoms(Var("p")) == {"p"}
    assert atoms(parse_inference("p & ~p => r")) == {"p", "r"}


def test_substitute_examples():
    sub = {"p": And(Var("q"), Var("q"))}
    assert substitute(parse("~p"), sub) == parse("~(q & q)")
    assert substitute(parse("p | r"), {}) == parse("p | r")
    assert substitute(parse("p | r"), {"p": Var("r")}) == parse("r | r")


@settings(max_examples=150)
@given(formulas())
def test_print_parse_round_trip(f):
    assert parse(str(f)) == f


def test_printing_uses_minimal_parentheses():
    assert str(parse("((~(p & q)) | (r & (s | t))) & ~~p")) == "(~(p & q) | r & (s | t)) & ~~p"
    assert str(parse("(p & q) & r")) == "p & q & r"
    assert str(parse("p & (q & r)")) == "p & (q & r)"
    assert str(parse("p | (q | r)")) == "p | (q | r)"


def test_printing_deep_formulas_never_recurses():
    deep = Var("p")
    for _ in range(5000):
        deep = Neg(deep)
    assert str(deep) == "~" * 5000 + "p"
    # Strings, not formulas: == between two deep formulas still recurses.
    chain = " | ".join(["p & ~q"] * 5000)
    assert str(parse(chain)) == chain


def all_subformulas(f):
    """Oracle: the set of subformulas of ``f``, by recursion."""
    if isinstance(f, Var):
        return {f}
    if isinstance(f, Neg):
        return {f} | all_subformulas(f.child)
    return {f} | all_subformulas(f.left) | all_subformulas(f.right)


@settings(max_examples=100)
@given(shared_pools())
def test_subformulas_lists_each_once_after_its_children(pool_and_names):
    pool, _ = pool_and_names
    listed = subformulas(pool)
    assert len(set(listed)) == len(listed)
    assert set(listed) == set().union(*map(all_subformulas, pool))
    position = {f: i for i, f in enumerate(listed)}
    for f in listed:
        if isinstance(f, Neg):
            assert position[f.child] < position[f]
        elif not isinstance(f, Var):
            assert max(position[f.left], position[f.right]) < position[f]


def compose_substitutions(outer, inner):
    """The substitution mapping f to substitute(substitute(f, inner), outer)."""
    composed = {name: substitute(image, outer) for name, image in inner.items()}
    for name, image in outer.items():
        composed.setdefault(name, image)
    return composed


@settings(max_examples=100)
@given(
    formulas(),
    st.dictionaries(st.sampled_from(ATOM_NAMES), formulas(max_leaves=3), max_size=3),
    st.dictionaries(st.sampled_from(ATOM_NAMES), formulas(max_leaves=3), max_size=3),
)
def test_substitution_composition(f, sigma, tau):
    twice = substitute(substitute(f, sigma), tau)
    assert twice == substitute(f, compose_substitutions(tau, sigma))


@settings(max_examples=100)
@given(formulas(), st.dictionaries(st.sampled_from(ATOM_NAMES), formulas(max_leaves=3)))
def test_substitution_atom_image(f, sigma):
    full = {name: sigma.get(name, Var(name)) for name in atoms(f)}
    image_atoms = set()
    for name in atoms(f):
        image_atoms |= atoms(full[name])
    assert atoms(substitute(f, full)) == image_atoms


def test_enumerate_depth_zero_and_one():
    assert enumerate_formulas(["p"], 0) == [Var("p")]
    assert [str(f) for f in enumerate_formulas(["p"], 1)] == ["p", "~p", "p & p", "p | p"]


def test_enumerate_matches_naive_oracle():
    # frozen from the oracle: 2 atoms + 2 negations + 4 + 4 binary pairs
    assert len(naive_formulas(("p", "q"), 1)) == 12
    for names, d in [(("p",), 2), (("p", "q"), 1), (("p", "q"), 2)]:
        produced = enumerate_formulas(list(names), d)
        assert len(produced) == len(set(produced))
        assert set(produced) == naive_formulas(names, d)


def test_enumerate_deterministic_and_monotone_in_depth():
    first = enumerate_formulas(["q", "p"], 2)
    second = enumerate_formulas(["p", "q"], 2)
    assert first == second
    shallow = enumerate_formulas(["p", "q"], 1)
    assert second[: len(shallow)] == shallow


def test_enumerate_validation_and_cap():
    with pytest.raises(ValueError):
        enumerate_formulas([], 1)
    with pytest.raises(ValueError):
        enumerate_formulas(["p"], -1)
    with pytest.raises(ValueError):
        enumerate_formulas(["not an identifier!"], 1)
    with pytest.raises(ResourceLimitError):
        enumerate_formulas(["p", "q", "r"], 3, max_count=1000)


def test_depth():
    assert depth(Var("p")) == 0
    assert depth(parse("~p")) == 1
    assert depth(parse("p | ~p")) == 2
    assert depth(parse("p & q")) == 1


def test_inference_structural_equality_and_printing():
    a = parse_inference("q, p => r")
    b = Inference([Var("p"), Var("q"), Var("p")], Var("r"))
    assert a == b
    assert hash(a) == hash(b)
    assert str(a) == "p, q => r"
    assert str(parse_inference("=> p")) == "=> p"


def test_var_name_validation():
    with pytest.raises(ValueError):
        Var("")
    with pytest.raises(ValueError):
        Var("2x")

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trivalent.scheme import (
    F,
    I,
    Scheme,
    T,
    VALUES,
    enumerate_bnm_schemes,
    info_leq,
    is_bnm,
    is_boolean_normal,
    is_monotonic,
    monotonicity_violations,
    preset,
    scheme_from_id,
    scheme_from_text,
    scheme_id,
    scheme_to_text,
)

# Full tables, frozen independently; rows are the first argument 1, i, 0
# and columns the second argument 1, i, 0.
STRONG_NEG = {T: F, I: I, F: T}
STRONG_AND = {
    (T, T): T, (T, I): I, (T, F): F,
    (I, T): I, (I, I): I, (I, F): F,
    (F, T): F, (F, I): F, (F, F): F,
}
STRONG_OR = {
    (T, T): T, (T, I): T, (T, F): T,
    (I, T): T, (I, I): I, (I, F): I,
    (F, T): T, (F, I): I, (F, F): F,
}
WEAK_NEG = {T: F, I: I, F: T}
WEAK_AND = {
    (T, T): T, (T, I): I, (T, F): F,
    (I, T): I, (I, I): I, (I, F): I,
    (F, T): F, (F, I): I, (F, F): F,
}
WEAK_OR = {
    (T, T): T, (T, I): I, (T, F): T,
    (I, T): I, (I, I): I, (I, F): I,
    (F, T): T, (F, I): I, (F, F): F,
}


def test_info_order():
    assert info_leq(I, F)
    assert info_leq(I, T)
    assert not info_leq(F, T)
    assert not info_leq(T, F)
    assert all(info_leq(v, v) for v in VALUES)
    assert not info_leq(F, I)


@pytest.mark.parametrize(
    "name,neg,conj,disj",
    [("strong", STRONG_NEG, STRONG_AND, STRONG_OR), ("weak", WEAK_NEG, WEAK_AND, WEAK_OR)],
)
def test_presets_match_frozen_tables(name, neg, conj, disj):
    s = preset(name)
    for a in VALUES:
        assert s.neg(a) is neg[a]
        for b in VALUES:
            assert s.conj(a, b) is conj[(a, b)]
            assert s.disj(a, b) is disj[(a, b)]


def test_middle_free_cells():
    s = preset("middle")
    assert s.conj(F, I) is F
    assert s.conj(I, F) is I
    assert s.disj(T, I) is T
    assert s.disj(I, T) is I
    assert s in set(enumerate_bnm_schemes())


def test_unknown_preset():
    with pytest.raises(ValueError):
        preset("bochvar")


def test_boolean_normality():
    assert is_boolean_normal(preset("strong"))
    assert is_boolean_normal(preset("weak"))
    broken = Scheme((T, I, T), preset("strong").conj_table, preset("strong").disj_table)
    assert not is_boolean_normal(broken)


def test_monotonicity_counterexample():
    # boolean normal, but conj(i,1)=1 breaks monotonicity:
    # (i,1) is below (0,1) in the information order yet 1 is not below 0.
    strong = preset("strong")
    bad_conj = list(strong.conj_table)
    bad_conj[3 * I + T] = T
    bad = Scheme(strong.neg_table, tuple(bad_conj), strong.disj_table)
    assert is_boolean_normal(bad)
    assert not is_monotonic(bad)
    assert ("and", (I, T), (F, T)) in monotonicity_violations(bad)


def test_enumeration_is_exactly_sixteen():
    schemes = enumerate_bnm_schemes()
    assert len(schemes) == 16
    assert len(set(schemes)) == 16
    assert all(is_bnm(s) for s in schemes)
    assert [scheme_id(s) for s in schemes] == list(range(16))


def test_enumeration_returns_a_fresh_list():
    first = enumerate_bnm_schemes()
    first.clear()
    second = enumerate_bnm_schemes()
    second[0] = preset("strong")
    assert [scheme_id(s) for s in enumerate_bnm_schemes()] == list(range(16))


def test_forced_cells():
    for s in enumerate_bnm_schemes():
        assert s.neg(I) is I
        assert s.conj(I, I) is I
        assert s.disj(I, I) is I
        assert s.conj(T, I) is I
        assert s.conj(I, T) is I
        assert s.disj(F, I) is I
        assert s.disj(I, F) is I


def test_scheme_ids_round_trip():
    assert scheme_id(preset("strong")) == 0b1111
    assert scheme_id(preset("weak")) == 0b0000
    assert scheme_id(preset("middle")) == 0b1010
    for code in range(16):
        assert scheme_id(scheme_from_id(code)) == code
    with pytest.raises(ValueError):
        scheme_from_id(16)


def test_name_does_not_affect_equality():
    assert preset("strong") == scheme_from_id(15)
    assert hash(preset("strong")) == hash(scheme_from_id(15))


def test_text_round_trip():
    s = preset("middle")
    again = scheme_from_text(scheme_to_text(s))
    assert again == s
    assert again.name == "middle"


def test_text_rejects_bad_input():
    text = scheme_to_text(preset("strong"))
    with pytest.raises(ValueError, match="missing"):
        scheme_from_text(text.replace("or(1,1) = 1\n", ""))
    with pytest.raises(ValueError, match="duplicate"):
        scheme_from_text(text + "neg(0) = 1\n")
    non_monotone = text.replace("and(i,1) = i", "and(i,1) = 1")
    with pytest.raises(ValueError, match="monotonic"):
        scheme_from_text(non_monotone)
    loaded = scheme_from_text(non_monotone, allow_non_bnm=True)
    assert not is_monotonic(loaded)
    not_normal = text.replace("neg(1) = 0", "neg(1) = 1")
    with pytest.raises(ValueError, match="Boolean normal"):
        scheme_from_text(not_normal)


def _oracle_monotone(s: Scheme) -> bool:
    """Independent componentwise check written directly from the order."""
    strictly_below = {(I, F), (I, T)}

    def leq(a, b):
        return a == b or (a, b) in strictly_below

    for a in VALUES:
        for b in VALUES:
            if leq(a, b) and not leq(s.neg(a), s.neg(b)):
                return False
    for table in (s.conj, s.disj):
        for pair in itertools.product(VALUES, repeat=4):
            a1, a2, b1, b2 = pair
            if leq(a1, b1) and leq(a2, b2) and not leq(table(a1, a2), table(b1, b2)):
                return False
    return True


@settings(max_examples=200)
@given(
    st.tuples(*[st.sampled_from(VALUES)] * 3),
    st.tuples(*[st.sampled_from(VALUES)] * 9),
    st.tuples(*[st.sampled_from(VALUES)] * 9),
)
def test_monotonicity_agrees_with_oracle(neg, conj, disj):
    s = Scheme(neg, conj, disj)
    assert is_monotonic(s) == _oracle_monotone(s)


raw_tables = st.tuples(
    st.tuples(*[st.sampled_from(VALUES)] * 3),
    st.tuples(*[st.sampled_from(VALUES)] * 9),
    st.tuples(*[st.sampled_from(VALUES)] * 9),
)


def _boolean_normal(middle):
    """Tables that are classical on {0, 1}, with the given middle-valued cells
    (one for negation, five each for conjunction and disjunction)."""
    neg_i, conj_cells, disj_cells = middle
    classical = {(F, F), (F, T), (T, F), (T, T)}
    pairs = [(a, b) for a in VALUES for b in VALUES]

    def table(op, cells):
        cells = iter(cells)
        return tuple(op(a, b) if (a, b) in classical else next(cells) for a, b in pairs)

    conj = table(lambda a, b: min(a, b), conj_cells)
    disj = table(lambda a, b: max(a, b), disj_cells)
    return (T, neg_i, F), conj, disj


bnm_tables = st.sampled_from(
    [(s.neg_table, s.conj_table, s.disj_table) for s in enumerate_bnm_schemes()]
)
boolean_normal_tables = st.tuples(
    st.sampled_from(VALUES),
    st.tuples(*[st.sampled_from(VALUES)] * 5),
    st.tuples(*[st.sampled_from(VALUES)] * 5),
).map(_boolean_normal)


@settings(max_examples=300)
@given(st.one_of(raw_tables, boolean_normal_tables, bnm_tables))
def test_is_bnm_memo_agrees_with_both_predicates(tables):
    s = Scheme(*tables)
    expected = is_boolean_normal(s) and is_monotonic(s)
    assert is_bnm(s) == expected
    assert is_bnm(s) == expected

import gc
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bnm_schemes, classical, classical_scan, formulas, inferences, shared_pools
from trivalent import semantics
from trivalent.errors import MissingAtomError, ResourceLimitError
from trivalent.formula import Inference, Or, Var, atoms, parse, parse_inference
from trivalent.scheme import F, I, T, Scheme, enumerate_bnm_schemes
from trivalent.semantics import (
    MAX_STACKED_SCHEMES,
    LogicSpec,
    SS,
    ST,
    STRICT,
    TOLERANT,
    TS,
    TT,
    FormulaStandard,
    Standard,
    Valuation,
    classical_masks,
    classical_verdicts,
    countervaluations,
    eval_formula,
    find_countervaluation,
    formula_masks,
    full_mask,
    is_antitheorem,
    is_classically_valid,
    is_theorem,
    is_valid,
    parse_standard,
    pool_rows,
    satisfies_inference,
    stacked_vectors,
    truth_vector,
    valuation_at,
    verdict_masks,
)

WITNESS = parse_inference("p | (q & ~q) => p & (r | ~r)")

# Any premise and any conclusion formula-standard over {0, i, 1}, empty
# ones included: all 64 standards.
formula_standards = st.frozensets(st.sampled_from([F, I, T])).map(FormulaStandard)
any_standard = st.builds(Standard, formula_standards, formula_standards)


def all_valuations(names):
    """Every valuation over ``names``, in canonical order."""
    ordered = tuple(sorted(set(names)))
    for index in range(3 ** len(ordered)):
        yield valuation_at(ordered, index)


def naive_is_valid(logic, inf):
    """Oracle: direct satisfaction scan with the single-point evaluator."""
    names = sorted(atoms(inf))
    return all(
        satisfies_inference(logic.scheme, v, inf, logic.standard)
        for v in all_valuations(names)
    )


def test_eval_examples(strong, weak):
    v = Valuation.of({"p": I})
    assert eval_formula(strong, v, parse("p | ~p")) is I
    v2 = Valuation.of({"p": T, "q": I})
    assert eval_formula(weak, v2, parse("p | q")) is I
    assert eval_formula(strong, v2, parse("p | q")) is T


@settings(max_examples=100)
@given(bnm_schemes, formulas(), st.data())
def test_two_valued_evaluation_is_classical(scheme, f, data):
    names = sorted(atoms(f))
    picks = data.draw(st.tuples(*[st.sampled_from([F, T])] * len(names)))
    v = Valuation.of(dict(zip(names, picks)))
    assert (eval_formula(scheme, v, f) is T) == classical(f, {n: v.value(n) is T for n in names})
    assert eval_formula(scheme, v, f) in (F, T)


def test_missing_atom(strong):
    with pytest.raises(MissingAtomError):
        eval_formula(strong, Valuation.of({"p": T}), parse("p & q"))


def test_valuation_order_is_canonical():
    # names sorted, value tuples lexicographic with 0 < i < 1 (last varies fastest)
    vals = list(all_valuations(["q", "p"]))
    assert len(vals) == 9
    assert vals[0] == Valuation.of({"p": F, "q": F})
    assert vals[1] == Valuation.of({"p": F, "q": I})
    assert vals[3] == Valuation.of({"p": I, "q": F})
    assert vals[-1] == Valuation.of({"p": T, "q": T})


def test_satisfies_inference_examples(strong):
    explosion = parse_inference("p & ~p => r")
    v = Valuation.of({"p": I, "r": F})
    assert not satisfies_inference(strong, v, explosion, TT)
    assert satisfies_inference(strong, v, explosion, SS)
    all_i = Valuation.of({"p": I, "q": I, "r": I})
    assert not satisfies_inference(strong, all_i, WITNESS, TS)


def test_validity_examples(strong):
    explosion = parse_inference("p & ~p => r")
    assert is_valid(LogicSpec(strong, SS), explosion)
    assert not is_valid(LogicSpec(strong, TT), explosion)
    assert is_valid(LogicSpec(strong, ST), WITNESS)
    assert not is_valid(LogicSpec(strong, SS), WITNESS)
    assert not is_valid(LogicSpec(strong, TT), WITNESS)


def test_ts_is_empty_for_reflexivity():
    reflexive = parse_inference("p => p")
    for scheme in enumerate_bnm_schemes():
        assert not is_valid(LogicSpec(scheme, TS), reflexive)


def test_classical_validity():
    assert is_classically_valid(WITNESS)
    assert is_classically_valid(parse_inference("=> p | ~p"))
    assert not is_classically_valid(parse_inference("p => q"))


def test_countervaluations_are_canonical(strong):
    ss_counter = find_countervaluation(LogicSpec(strong, SS), WITNESS)
    assert ss_counter == Valuation.of({"p": T, "q": F, "r": I})
    tt_counter = find_countervaluation(LogicSpec(strong, TT), WITNESS)
    assert tt_counter == Valuation.of({"p": F, "q": I, "r": F})
    assert find_countervaluation(LogicSpec(strong, SS), parse_inference("p => p")) is None


def test_countervaluation_at_first_and_last_index(strong):
    logic = LogicSpec(strong, SS)
    first = find_countervaluation(logic, parse_inference("=> p"))
    assert first == Valuation.of({"p": F})
    last = find_countervaluation(logic, parse_inference("p, q => ~(p & q)"))
    assert last == Valuation.of({"p": T, "q": T})


def test_theoremhood(strong):
    lem = parse("p | ~p")
    for scheme in enumerate_bnm_schemes():
        assert is_theorem(LogicSpec(scheme, TT), lem)
    assert not is_theorem(LogicSpec(strong, SS), lem)
    assert not is_theorem(LogicSpec(strong, SS), parse("p | ~p | q"))
    assert is_theorem(LogicSpec(strong, ST), lem)


def test_antitheoremhood(strong):
    contradiction = [parse("p & ~p")]
    assert is_antitheorem(LogicSpec(strong, SS), contradiction)
    assert not is_antitheorem(LogicSpec(strong, TT), contradiction)
    assert not is_antitheorem(LogicSpec(strong, SS), [parse("p")])
    assert not is_antitheorem(LogicSpec(strong, SS), [])


@settings(max_examples=150)
@given(bnm_schemes, any_standard, inferences())
def test_validity_agrees_with_satisfaction_oracle(scheme, standard, inf):
    logic = LogicSpec(scheme, standard)
    assert is_valid(logic, inf) == naive_is_valid(logic, inf)


@settings(max_examples=150)
@given(bnm_schemes, any_standard, inferences())
def test_deciders_agree_with_a_valuation_scan(scheme, standard, inf):
    """Oracle: read theoremhood, antitheoremhood and the first
    countervaluation off a scan of ``eval_formula`` values."""
    logic = LogicSpec(scheme, standard)
    premise_ok, conclusion_ok = standard.premise.accepts, standard.conclusion.accepts

    def scan(formulas):
        names = sorted(set().union(*map(atoms, formulas)))
        for values in product([F, I, T], repeat=len(names)):
            v = Valuation.of(zip(names, values))
            yield v, [eval_formula(scheme, v, f) for f in formulas]

    theorem = all(conclusion_ok(value) for _, (value,) in scan([inf.conclusion]))
    assert is_theorem(logic, inf.conclusion) == theorem

    premises = list(inf.premises)
    antitheorem = bool(premises) and not any(
        all(map(premise_ok, values)) for _, values in scan(premises)
    )
    assert is_antitheorem(logic, premises) == antitheorem

    first = next(
        (
            v for v, values in scan([*premises, inf.conclusion])
            if all(map(premise_ok, values[:-1])) and not conclusion_ok(values[-1])
        ),
        None,
    )
    assert find_countervaluation(logic, inf) == first


@settings(max_examples=150)
@given(bnm_schemes, inferences())
def test_st_validity_is_classical_validity(scheme, inf):
    assert is_valid(LogicSpec(scheme, ST), inf) == is_classically_valid(inf)


@settings(max_examples=100)
@given(bnm_schemes, inferences())
def test_ts_validates_nothing(scheme, inf):
    logic = LogicSpec(scheme, TS)
    assert not is_valid(logic, inf)
    names = sorted(atoms(inf))
    all_middle = Valuation.of({name: I for name in names})
    assert not satisfies_inference(scheme, all_middle, inf, TS)


@settings(max_examples=100)
@given(bnm_schemes, st.sampled_from([SS, TT]), st.lists(formulas(), min_size=1, max_size=3))
def test_antitheorem_iff_fresh_conclusion_follows(scheme, standard, gamma):
    # the generator only uses p, q, r, so s is fresh by construction
    logic = LogicSpec(scheme, standard)
    assert is_antitheorem(logic, gamma) == is_valid(logic, Inference(gamma, Var("s")))


@settings(max_examples=100)
@given(bnm_schemes, st.sampled_from([SS, TT]), formulas())
def test_theorem_iff_follows_from_fresh_premise(scheme, standard, f):
    logic = LogicSpec(scheme, standard)
    assert is_theorem(logic, f) == is_valid(logic, Inference((Var("s"),), f))


@settings(max_examples=80)
@given(bnm_schemes, st.sampled_from([SS, TT, ST]), inferences())
def test_countervaluation_is_first_and_falsifying(scheme, standard, inf):
    logic = LogicSpec(scheme, standard)
    counter = find_countervaluation(logic, inf)
    names = sorted(atoms(inf))
    if counter is None:
        assert is_valid(logic, inf)
        return
    assert not satisfies_inference(scheme, counter, inf, standard)
    for v in all_valuations(names):
        if v == counter:
            break
        assert satisfies_inference(scheme, v, inf, standard)


def test_custom_standards():
    assert parse_standard("ss") == SS
    assert parse_standard("1:1i") == Standard(STRICT, TOLERANT) == ST
    exotic = parse_standard("01:1")
    assert exotic.premise.allowed == {F, T}
    assert exotic.conclusion.allowed == {T}
    empty_side = parse_standard("-:1")
    assert empty_side.premise.allowed == frozenset()
    with pytest.raises(ValueError):
        parse_standard("xx")
    with pytest.raises(ValueError):
        parse_standard("1:2")


def test_custom_standard_validity(strong):
    # empty premise standard: no premise is ever satisfied, everything holds
    vacuous = LogicSpec(strong, Standard(FormulaStandard(frozenset()), STRICT))
    assert is_valid(vacuous, parse_inference("q => p"))


def test_logic_spec_requires_bnm(strong):
    from trivalent.scheme import Scheme

    broken = Scheme((T, I, T), strong.conj_table, strong.disj_table)
    for _ in range(2):
        with pytest.raises(ValueError):
            LogicSpec(broken, SS)
    assert LogicSpec(broken, SS, allow_non_bnm=True).scheme is broken


def test_atom_cap(strong):
    wide = Inference([], Or(*[Var(f"x{i}") for i in range(2)]))
    for i in range(2, 13):
        wide = Inference([], Or(wide.conclusion, Var(f"x{i}")))
    assert len(atoms(wide)) == 13
    with pytest.raises(ResourceLimitError):
        is_valid(LogicSpec(strong, SS), wide)
    assert is_valid(LogicSpec(strong, SS), wide, atom_cap=13) is False
    with pytest.raises(ResourceLimitError):
        is_classically_valid(wide)
    assert is_classically_valid(wide, atom_cap=13) is False


@settings(max_examples=60, deadline=None)
@given(
    bnm_schemes,
    st.sampled_from([SS, TT, ST, TS]),
    inferences(),
    st.sets(st.sampled_from(["p", "q", "r", "s", "t"]), max_size=3),
)
def test_mask_verdict_over_superset_atoms(scheme, standard, inf, extra):
    """Truth-functionality: the verdict read off masks over any superset of
    the inference's atoms is its verdict over its own atoms."""
    names = tuple(sorted(atoms(inf) | extra))
    formulas_ = [*inf.premises, inf.conclusion]
    logic = LogicSpec(scheme, standard)
    accepts, rejects = formula_masks(logic, formulas_, names)
    premises = -1
    for mask in accepts[:-1]:
        premises &= mask
    assert (premises & rejects[-1] == 0) == is_valid(logic, inf)

    truths = classical_masks(formulas_, names)
    classical_premises = -1
    for mask in truths[:-1]:
        classical_premises &= mask
    classical_reject = full_mask(2 ** len(names)) ^ truths[-1]
    assert (classical_premises & classical_reject == 0) == is_classically_valid(inf)


# --- pools and the stacked kernel -------------------------------------------

truth_values = st.sampled_from([F, I, T])
# Any tables at all: almost every draw is neither Boolean normal nor monotonic.
any_schemes = st.builds(
    Scheme,
    st.tuples(*[truth_values] * 3),
    st.tuples(*[truth_values] * 9),
    st.tuples(*[truth_values] * 9),
)
scheme_stacks = st.lists(st.one_of(bnm_schemes, any_schemes), min_size=1, max_size=16)
POOL_STANDARDS = (SS, TT, ST, TS, parse_standard("-:1"), parse_standard("0i:1"))


def scanned_vector(scheme, f, names):
    """Oracle: ``f``'s values over ``names``, one ``eval_formula`` call per
    valuation in canonical order."""
    return bytes(eval_formula(scheme, v, f) for v in all_valuations(names))


@settings(max_examples=80, deadline=None)
@given(scheme_stacks, shared_pools())
def test_stacked_vectors_are_per_scheme_truth_vectors(schemes, pool_and_names):
    pool, names = pool_and_names
    size = 3 ** len(names)
    vectors = stacked_vectors(schemes, pool, names)
    assert len(vectors) == len(pool)
    for f, vector in zip(pool, vectors):
        assert len(vector) == len(schemes) * size
        for s, scheme in enumerate(schemes):
            assert vector[s * size:(s + 1) * size] == scanned_vector(scheme, f, names)


@settings(max_examples=80, deadline=None)
@given(shared_pools(), st.sets(st.sampled_from(["a", "m", "t"])), st.data())
def test_classical_masks_are_plain_boolean_scans(pool_and_names, extra, data):
    """Per pool formula, one byte per two-valued valuation over any superset
    of the pool's atoms, as a plain-Python scan reads it.  An atom missing
    from ``names`` raises, and so does a 13th atom unless ``atom_cap=13``."""
    pool, base = pool_and_names
    names = tuple(sorted(set(base) | extra))
    masks = classical_masks(pool, names)
    assert [m.to_bytes(2 ** len(names), "big") for m in masks] == [
        bytes(classical_scan(f, names)) for f in pool
    ]

    missing = data.draw(st.sampled_from(sorted(set().union(*map(atoms, pool)))))
    with pytest.raises(MissingAtomError):
        classical_masks(pool, tuple(n for n in names if n != missing))

    # Padding atoms sort after the pool's, so each valuation's byte over
    # the pool's atoms repeats once per valuation of the padding.
    wide = base + tuple(f"x{i:02}" for i in range(13 - len(base)))
    with pytest.raises(ResourceLimitError):
        classical_masks(pool, wide)
    repeat = 2 ** (13 - len(base))
    for f, mask in zip(pool, classical_masks(pool, wide, atom_cap=13)):
        expected = bytes(b for b in classical_scan(f, base) for _ in range(repeat))
        assert mask.to_bytes(2 ** 13, "big") == expected


@settings(max_examples=80, deadline=None)
@given(
    scheme_stacks,
    st.lists(inferences(), min_size=1, max_size=6),
    st.sets(st.sampled_from(["s", "t"])),
)
def test_verdict_masks_match_is_valid(schemes, corpus, extra):
    """Bit s of a row's mask is its validity under scheme s, read over any
    superset of the pool's atoms."""
    pool, rows = pool_rows(corpus)
    names = tuple(sorted(set().union(*map(atoms, pool)) | extra))
    by_standard = verdict_masks(schemes, pool, rows, names, POOL_STANDARDS)
    for standard, masks in zip(POOL_STANDARDS, by_standard):
        for inf, mask in zip(corpus, masks):
            assert mask >> len(schemes) == 0
            for s, scheme in enumerate(schemes):
                logic = LogicSpec(scheme, standard, allow_non_bnm=True)
                assert bool(mask >> s & 1) == is_valid(logic, inf), (standard, s, inf)
    assert classical_verdicts(pool, rows, names) == [is_classically_valid(inf) for inf in corpus]


@settings(max_examples=80, deadline=None)
@given(st.lists(inferences(), max_size=8))
def test_pool_rows_rebuild_every_inference(corpus):
    pool, rows = pool_rows(corpus)
    assert len(set(pool)) == len(pool)
    assert set(pool) == {f for inf in corpus for f in (*inf.premises, inf.conclusion)}
    assert [Inference([pool[i] for i in premises], pool[c]) for premises, c in rows] == corpus
    assert all(len(premises) == len(inf.premises) for (premises, _), inf in zip(rows, corpus))


def test_stacking_guards_raise_before_anything_is_built(strong, monkeypatch):
    wide = tuple(f"x{i:02d}" for i in range(13))
    pool = [Var(name) for name in wide]
    built = []
    var_vector = semantics._var_vector
    monkeypatch.setattr(
        semantics, "_var_vector", lambda *args: built.append(args) or var_vector(*args)
    )
    with pytest.raises(ResourceLimitError):
        stacked_vectors([strong], pool, wide)
    with pytest.raises(ResourceLimitError):
        verdict_masks([strong], pool, [((), 0)], wide, (SS,))
    with pytest.raises(ResourceLimitError):
        classical_verdicts(pool, [((), 0)], wide)
    for count in (0, MAX_STACKED_SCHEMES + 1):
        with pytest.raises(ValueError):
            stacked_vectors([strong] * count, pool[:1], wide[:1])
    assert built == []
    with pytest.raises(MissingAtomError):
        stacked_vectors([strong], [Var("q")], ("p",))


def test_deciding_fresh_atoms_retains_no_memory(strong):
    """Nothing a decision builds outlives it: a long-lived process deciding
    over ever new atom names keeps no variable vectors."""
    logic = LogicSpec(strong, SS)

    def decide(tag):
        names = [f"{tag}_{i}" for i in range(8)]
        inf = Inference([Var(name) for name in names], Or(Var(names[0]), Var(names[-1])))
        assert is_valid(logic, inf)

    decide("warm")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for call in range(100):
            decide(f"fresh{call}")
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 256 * 1024


def test_a_full_stack_fits_one_byte():
    """The largest stack puts codes up to 9*27 + 8 = 251 through the tables."""
    assert MAX_STACKED_SCHEMES == 28
    schemes = [*enumerate_bnm_schemes(), *enumerate_bnm_schemes()[:12]]
    f = parse("~(p & q) | (q | ~p)")
    (vector,) = stacked_vectors(schemes, [f], ("p", "q"))
    assert vector == b"".join(scanned_vector(scheme, f, ("p", "q")) for scheme in schemes)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.one_of(bnm_schemes, any_schemes), min_size=1, max_size=2 * MAX_STACKED_SCHEMES + 3),
    st.lists(any_standard, min_size=1, max_size=3),
    inferences(),
)
def test_countervaluations_are_the_first_falsifying_valuations(schemes, standards, inf):
    """Every (scheme, standard) pair, also past one stack's worth of
    schemes, against a scan of the valuations in canonical order."""
    found = countervaluations(schemes, standards, inf)
    assert len(found) == len(schemes)
    for scheme, row in zip(schemes, found):
        assert row == [
            next(
                (v for v in all_valuations(atoms(inf))
                 if not satisfies_inference(scheme, v, inf, standard)),
                None,
            )
            for standard in standards
        ]


def test_truth_vector_is_a_stack_of_one(strong):
    """Kept for outside callers; it reads the stacked kernel."""
    f = parse("~(p & q) | r")
    names = ("p", "q", "r")
    assert truth_vector(strong, f, names) == stacked_vectors([strong], [f], names)[0]
    assert truth_vector(strong, f, names) == scanned_vector(strong, f, names)

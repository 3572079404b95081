import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_universes
from trivalent.errors import ResourceLimitError
from trivalent.formula import Inference, Var, atoms, parse_inference
from trivalent.characterize import star_set, valid_subset
from trivalent.closure import (
    Universe,
    _cut_closed,
    _index_base,
    check_operator_laws,
    dual_transitive_closure,
    dual_transitive_closure_direct,
    tarskian_closure,
    transitive_closure,
    universe_inferences,
    universe_premise_indices,
    universe_preserving_substitutions,
)
from trivalent.semantics import SS, LogicSpec

P, Q, R = Var("p"), Var("q"), Var("r")


def naive_transitive_closure(base, u):
    """Oracle: apply the cut rule literally over all premise-capped subsets."""
    members = set(base)
    pool = list(u.formulas)
    deltas = [
        frozenset(combo)
        for size in range(1, u.premise_cap + 1)
        for combo in itertools.combinations(pool, size)
    ]
    gammas = [frozenset(combo)
              for size in range(u.premise_cap + 1)
              for combo in itertools.combinations(pool, size)]
    changed = True
    while changed:
        changed = False
        for delta in deltas:
            for phi in pool:
                if Inference(delta, phi) not in members:
                    continue
                for gamma in gammas:
                    if Inference(gamma, phi) in members:
                        continue
                    if all(Inference(gamma, d) in members for d in delta):
                        members.add(Inference(gamma, phi))
                        changed = True
    return frozenset(members)


def small_universe():
    return Universe([P, Q, R], 2)


def test_universe_counts():
    assert len(universe_inferences(Universe([P], 1))) == 2
    assert len(universe_inferences(Universe([P, Q], 1))) == 6
    assert len(universe_inferences(Universe([P, Q], 2))) == 8
    u = Universe([P, Q], 2)
    assert u.inference_count() == 2 * (1 + 2 + 1)


def test_universe_count_oracle():
    u = Universe.build(["p", "q"], 1, 2, reserve=["r"])
    n = len(u.formulas)
    assert n == 13
    expected = n * sum(math.comb(n, j) for j in range(3))
    assert u.inference_count() == expected == len(universe_inferences(u))


def test_ordered_inferences_are_canonical():
    u = Universe([P, Q], 1)
    assert [str(inf) for inf in universe_inferences(u)] == [
        "=> p", "=> q", "p => p", "p => q", "q => p", "q => q",
    ]


def test_universe_validation():
    with pytest.raises(ValueError):
        Universe([], 1)
    with pytest.raises(ValueError):
        Universe([P], 0)
    with pytest.raises(ValueError):
        Universe([P], 1, reserve_atoms=["q"])
    with pytest.raises(ValueError):
        Universe.build(["p"], 1, 2, reserve=["p"])


def test_universe_build_adds_reserve_as_bare_atom():
    u = Universe.build(["p"], 1, 2, reserve=["q"])
    assert Var("q") in u.formulas
    assert all("q" not in str(f) for f in u.formulas if f != Var("q"))
    assert u.is_reserve_free(parse_inference("p => ~p"))
    assert not u.is_reserve_free(parse_inference("p => q"))


def test_reserve_free_set_test_matches_atoms():
    u = Universe.build(["p"], 1, 2, reserve=["q", "r"])
    for inf in universe_inferences(u):
        assert u.is_reserve_free(inf) == (not atoms(inf) & u.reserve_atoms)
    assert u.is_reserve_free(parse_inference("p & ~p => p"))
    assert not u.is_reserve_free(parse_inference("p => p & q"))


def test_premise_indices_follow_inference_order():
    u = Universe([P, Q, R], 2)
    n = len(u.formulas)
    for k, members in enumerate(universe_premise_indices(u)):
        for j, conclusion in enumerate(u.formulas):
            inf = universe_inferences(u)[k * n + j]
            assert inf.premises == {u.formulas[i] for i in members}
            assert inf.conclusion == conclusion


def over_cap_universe():
    u = Universe.build(["p"], 2, 4, ["q"])
    assert u.inference_count() == 3_153_734
    return u


def test_direct_dual_closure_checks_the_cap():
    """Both dual routes check the cap, and both reject an outside base
    inference before they look at the universe's size."""
    u = over_cap_universe()
    outside = {parse_inference("q => q & q")}
    for dual in (dual_transitive_closure_direct, dual_transitive_closure):
        with pytest.raises(ResourceLimitError):
            dual(set(), u)
        with pytest.raises(ValueError):
            dual(outside, u)


def test_universe_materialization_cap(strong):
    """Every universe-wide function raises on an over-cap universe, which
    keeps none of its premise sets."""
    u = over_cap_universe()
    logic = LogicSpec(strong, SS)
    for call in (
        lambda: universe_inferences(u),
        lambda: universe_premise_indices(u),
        lambda: dual_transitive_closure(set(), u),
        lambda: dual_transitive_closure_direct(set(), u),
        lambda: tarskian_closure(set(), u),
        lambda: valid_subset(logic, u),
        lambda: star_set(logic, u),
    ):
        with pytest.raises(ResourceLimitError):
            call()
        assert "_premise_indices" not in vars(u)


def test_cut_closure_never_enumerates_the_universe():
    u = over_cap_universe()
    base = {parse_inference("p => ~p"), parse_inference("~p => q")}
    assert transitive_closure(base, u) == base | {parse_inference("p => q")}
    assert "_premise_indices" not in vars(u)


def test_equal_universes_agree(rng):
    first = Universe.build(["p"], 1, 2, ["q"])
    rebuilt = Universe.build(["p"], 1, 2, ["q"])
    assert first is not rebuilt
    assert first == rebuilt and hash(first) == hash(rebuilt)
    assert universe_inferences(first) == universe_inferences(rebuilt)
    base = rng.sample(universe_inferences(first), 30)
    assert transitive_closure(base, first) == transitive_closure(base, rebuilt)
    assert dual_transitive_closure(base, first) == dual_transitive_closure(base, rebuilt)


def test_universe_inferences_computed_once_per_instance():
    u = Universe([P, Q, R], 2)
    assert universe_inferences(u) is universe_inferences(u)
    assert universe_inferences(u) is not universe_inferences(Universe([P, Q, R], 2))


def test_substitution_cap_checked_on_every_call():
    assert universe_preserving_substitutions(Universe.build(["p", "q"], 1, 2))
    u = Universe.build(["p", "q", "r", "s"], 1, 1)
    assert len(u.formulas) ** len(u.atom_names) == 2_560_000
    assert u.inference_count() == 1_640
    for _ in range(2):
        for call in (universe_preserving_substitutions, lambda v: tarskian_closure((), v)):
            with pytest.raises(ResourceLimitError):
                call(u)


def test_unary_cut():
    u = small_universe()
    base = {parse_inference("p => q"), parse_inference("q => r")}
    closed = transitive_closure(base, u)
    assert parse_inference("p => r") in closed
    assert closed == base | {parse_inference("p => r")}
    assert transitive_closure(closed, u) == closed


def test_two_element_delta_cut():
    u = small_universe()
    base = {
        parse_inference("p => q"),
        parse_inference("p => r"),
        parse_inference("q, r => p"),
    }
    closed = transitive_closure(base, u)
    assert parse_inference("p => p") in closed


def test_base_must_live_in_universe():
    with pytest.raises(ValueError):
        transitive_closure({parse_inference("p & p => q")}, small_universe())
    with pytest.raises(ValueError):
        transitive_closure({parse_inference("p, q, r => p")}, small_universe())


def test_dual_closure_examples():
    u = Universe([P, Q], 1)
    everything = frozenset(universe_inferences(u))
    assert dual_transitive_closure(everything, u) == everything
    assert dual_transitive_closure({parse_inference("p => p")}, u) == frozenset()
    assert dual_transitive_closure(frozenset(), u) == frozenset()


def test_order_independence(rng):
    u = small_universe()
    population = universe_inferences(u)
    base = rng.sample(population, 12)
    reference = transitive_closure(base, u)
    for _ in range(5):
        rng.shuffle(base)
        assert transitive_closure(base, u) == reference


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_closure_matches_naive_oracle(data):
    u = Universe([P, Q, R], 2)
    population = universe_inferences(u)
    base = data.draw(st.lists(st.sampled_from(population), max_size=10))
    assert transitive_closure(base, u) == naive_transitive_closure(base, u)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_dual_closure_routes_agree(data):
    u = Universe([P, Q], 2)
    population = universe_inferences(u)
    base = frozenset(data.draw(st.lists(st.sampled_from(population), max_size=12)))
    via_complement = dual_transitive_closure(base, u)
    direct = dual_transitive_closure_direct(base, u)
    everything = frozenset(universe_inferences(u))
    naive = everything - naive_transitive_closure(everything - base, u)
    assert via_complement == direct == naive


def set_cut_closure(base, u):
    """Oracle: saturate a plain set of inferences under cut, one premise
    set and conclusion at a time, until a pass adds nothing."""
    members = set(base)
    gammas = [
        frozenset(combo)
        for size in range(u.premise_cap + 1)
        for combo in itertools.combinations(u.formulas, size)
    ]
    while True:
        derives = {}
        for inf in members:
            derives.setdefault(inf.premises, set()).add(inf.conclusion)
        added = {
            Inference(gamma, phi)
            for gamma in gammas
            for delta, conclusions in derives.items()
            if delta and delta <= derives.get(gamma, set())
            for phi in conclusions
        } - members
        if not added:
            return frozenset(members)
        members |= added


def saturate_cut(concl):
    """Reference: all-pairs cut saturation.  It rescans every premise set
    against every Delta and grows ``concl`` in place until nothing changes;
    a row holding every conclusion that occurs cannot grow, so it is
    skipped."""
    keys = list(concl)
    deltas = [k for k in keys if k]
    occurring = len(set().union(*concl.values()))
    changed = True
    while changed:
        changed = False
        for gamma in keys:
            derivable = concl[gamma]
            if len(derivable) == occurring:
                continue
            for delta in deltas:
                if delta <= derivable:
                    extra = concl[delta]
                    if not extra <= derivable:
                        derivable |= extra
                        changed = True


@settings(max_examples=40, deadline=None)
@given(small_universes(), st.data())
def test_cut_closed_matches_saturation(u, data):
    """On a base and on its complement (the dual closure's input), closing
    each distinct row once gives the saturation's rows and leaves its
    input alone."""
    population = universe_inferences(u)
    base = frozenset(data.draw(st.lists(st.sampled_from(population), max_size=12)))
    for xs in (base, frozenset(population) - base):
        _, concl = _index_base(xs, u)
        _, expected = _index_base(xs, u)
        saturate_cut(expected)
        assert _cut_closed(concl) == expected
        assert concl == _index_base(xs, u)[1]


def same_objects(result, base):
    """Every inference of ``result`` found in ``base`` is ``base``'s object."""
    own = {inf: inf for inf in base}
    return all(own.get(inf, inf) is inf for inf in result)


@settings(max_examples=30, deadline=None)
@given(small_universes(), st.data())
def test_closures_match_set_reference(u, data):
    population = universe_inferences(u)
    base = frozenset(data.draw(st.lists(st.sampled_from(population), max_size=12)))
    closed = transitive_closure(base, u)
    assert closed == set_cut_closure(base, u)
    assert same_objects(closed, base)
    everything = frozenset(population)
    interior = dual_transitive_closure(base, u)
    assert interior == everything - set_cut_closure(everything - base, u)
    assert same_objects(interior, base)


def naive_tarskian_closure(base, u):
    """Oracle: literal rule application (R, M, T, S) to a fixed point."""
    members = set(base) | {Inference((f,), f) for f in u.formulas}
    subs = universe_preserving_substitutions(u)
    changed = True
    while changed:
        changed = False
        snapshot = list(members)
        for inf in snapshot:
            if len(inf.premises) < u.premise_cap:
                for f in u.formulas:
                    widened = Inference(inf.premises | {f}, inf.conclusion)
                    if widened not in members:
                        members.add(widened)
                        changed = True
            for sigma in subs:
                from trivalent.formula import substitute_inference

                image = substitute_inference(inf, sigma)
                if image not in members:
                    members.add(image)
                    changed = True
        cut = naive_transitive_closure(members, u)
        if cut - members:
            members |= cut
            changed = True
    return frozenset(members)


def test_tarskian_closure_rounds_reach_new_members():
    """The first round substitutes ``=> q`` from ``=> p``; only the second
    widens it to ``p => q``.  A closure that widened and substituted only
    the members it started with would stop at 5 of the 6."""
    u = Universe([P, Q], 1)
    base = {parse_inference("=> p")}
    closed = tarskian_closure(base, u)
    assert len(closed) == 6
    assert closed == naive_tarskian_closure(base, u)


def test_tarskian_closure_matches_naive_oracle(rng):
    u = Universe([P, Q], 2)
    population = universe_inferences(u)
    for _ in range(4):
        base = rng.sample(population, rng.randint(0, 4))
        assert tarskian_closure(base, u) == naive_tarskian_closure(base, u)


@settings(max_examples=20, deadline=None)
@given(small_universes(), st.data())
def test_tarskian_closure_matches_naive_oracle_on_random_universes(u, data):
    population = universe_inferences(u)
    base = frozenset(data.draw(st.lists(st.sampled_from(population), max_size=6)))
    closed = tarskian_closure(base, u)
    assert closed == naive_tarskian_closure(base, u)
    assert same_objects(closed, base)


def test_tarskian_closure_rejects_outside_inferences():
    with pytest.raises(ValueError):
        tarskian_closure({parse_inference("p & p => q")}, Universe([P, Q], 2))


def test_tarskian_closure_contains_reflexive_weakenings():
    u = Universe([P, Q], 2)
    closed = tarskian_closure(frozenset(), u)
    for inf in universe_inferences(u):
        if inf.conclusion in inf.premises:
            assert inf in closed
    assert parse_inference("=> p") not in closed
    base = {parse_inference("=> p")}
    assert base <= tarskian_closure(base, u)


def test_tarskian_closure_applies_substitution():
    u = Universe([P, Q], 1)
    closed = tarskian_closure({parse_inference("=> p")}, u)
    assert parse_inference("=> q") in closed


def test_universe_preserving_substitutions():
    u = Universe.build(["p", "q"], 1, 2, reserve=["r"])
    subs = universe_preserving_substitutions(u)
    # composite formulas force p, q to map to atoms among {p, q}; the bare
    # reserve atom may go anywhere in the pool
    assert len(subs) == 2 * 2 * len(u.formulas)


def test_operator_laws_on_random_samples(rng):
    u = Universe([P, Q, R], 2)
    population = universe_inferences(u)
    samples = [
        (rng.sample(population, rng.randint(0, 16)), u) for _ in range(12)
    ]
    report = check_operator_laws(samples)
    assert report.passed, report.failures[:3]
    assert report.checks > 0

import pytest
from hypothesis import assume, given, settings

from conftest import bnm_schemes, classical_scan, inferences, small_universes
from trivalent import characterize
from trivalent.errors import ResourceLimitError
from trivalent.formula import Inference, Var, atoms, parse, parse_inference
from trivalent.scheme import I, Scheme, T
from trivalent.semantics import (
    LogicSpec,
    SS,
    ST,
    TS,
    TT,
    is_antitheorem,
    is_classically_valid,
    is_theorem,
    is_valid,
    sorted_atom_tuple,
)
from trivalent.closure import Universe, dual_transitive_closure, universe_inferences
from trivalent.characterize import (
    FamilyMember,
    LatticeFamily,
    check_star_lattice,
    check_td_equals_star,
    check_ts_collapse,
    check_union_gap,
    classical_star_set,
    delta_witness,
    derive_classical,
    lattice_join,
    lattice_meet,
    member_leq,
    replay_witness,
    star_set,
    union_gap_witness,
    valid_subset,
    verify_lattices,
)

P, Q, R = Var("p"), Var("q"), Var("r")


def test_delta_witness_examples():
    w = union_gap_witness()
    assert delta_witness(w) == {parse("p | (q & ~q)"), parse("p | ~p"), parse("r | ~r")}
    assert delta_witness(parse_inference("=> p | ~p")) == {parse("p | ~p")}
    assert delta_witness(parse_inference("q => q")) == {parse("q"), parse("q | ~q")}


def test_derive_classical_witness(strong, weak):
    w = union_gap_witness()
    witness = derive_classical(w, LogicSpec(strong, TT), LogicSpec(strong, SS))
    assert witness is not None and witness.all_passed
    assert replay_witness(w, witness)

    mixed = derive_classical(w, LogicSpec(weak, TT), LogicSpec(strong, SS))
    assert mixed is not None and mixed.all_passed
    assert replay_witness(w, mixed)

    assert derive_classical(
        parse_inference("p => q"), LogicSpec(strong, TT), LogicSpec(strong, SS)
    ) is None


def test_derive_classical_checks_standards(strong):
    with pytest.raises(ValueError):
        derive_classical(parse_inference("p => p"), LogicSpec(strong, SS), LogicSpec(strong, SS))
    with pytest.raises(ValueError):
        derive_classical(parse_inference("p => p"), LogicSpec(strong, TT), LogicSpec(strong, TT))


def test_star_set_examples(strong):
    u = Universe([P, Q, R, parse("p & ~p"), parse("q | ~q")], 2)
    ss_star = star_set(LogicSpec(strong, SS), u)
    assert parse_inference("p & ~p => q") in ss_star
    assert parse_inference("p => q") not in ss_star

    tt_star = star_set(LogicSpec(strong, TT), u)
    assert parse_inference("p => q | ~q") in tt_star
    assert parse_inference("p & ~p => q") not in tt_star

    assert star_set(LogicSpec(strong, TS), u) == frozenset()


def test_star_set_of_intersection(strong, weak):
    u = Universe([P, Q, parse("p & ~p"), parse("q | ~q")], 2)
    both = star_set((LogicSpec(strong, SS), LogicSpec(weak, TT)), u)
    assert both == frozenset()


def test_classical_star_matches_st_star(strong):
    u = Universe.build(["p"], 2, 2, reserve=["q"])
    assert classical_star_set(u) == star_set(LogicSpec(strong, ST), u)


def reference_valid_subset(logics, u):
    """Oracle: one ``is_valid`` call per universe inference and logic."""
    return {
        inf for inf in universe_inferences(u)
        if all(is_valid(logic, inf) for logic in logics)
    }


def reference_star_set(logics, u):
    return {
        inf for inf in universe_inferences(u)
        if all(is_theorem(logic, inf.conclusion) for logic in logics)
        or all(is_antitheorem(logic, inf.premises) for logic in logics)
    }


def is_classical_tautology(f):
    return all(classical_scan(f, sorted_atom_tuple(f)))


def is_classically_unsatisfiable(gamma):
    members = list(gamma)
    if not members:
        return False
    names = sorted_atom_tuple(n for g in members for n in atoms(g))
    return not any(map(all, zip(*(classical_scan(g, names) for g in members))))


def reference_classical_star_set(u):
    return {
        inf for inf in universe_inferences(u)
        if is_classical_tautology(inf.conclusion)
        or is_classically_unsatisfiable(inf.premises)
    }


def assert_own_objects(found, u):
    """The universe-wide sets hand back the universe's own inferences."""
    own = {id(inf) for inf in universe_inferences(u)}
    assert all(id(inf) in own for inf in found)


@settings(max_examples=25, deadline=None)
@given(small_universes(), bnm_schemes, bnm_schemes)
def test_mask_kernel_matches_per_inference_reference(u, scheme, other):
    logic_sets = [(LogicSpec(scheme, standard),) for standard in (SS, TT, ST, TS)]
    logic_sets.append((LogicSpec(scheme, SS), LogicSpec(other, TT)))
    for logics in logic_sets:
        valid = valid_subset(logics, u)
        assert valid == reference_valid_subset(logics, u)
        star = star_set(logics, u)
        assert star == reference_star_set(logics, u)
        assert_own_objects(valid | star, u)
    classical = classical_star_set(u)
    assert classical == reference_classical_star_set(u)
    assert_own_objects(classical, u)


def test_kernel_checks_the_atom_cap_before_building(strong):
    u = Universe([Var(f"a{i:02d}") for i in range(13)], 1)
    assert u.inference_count() == 182
    calls = (
        lambda: valid_subset(LogicSpec(strong, SS), u),
        lambda: star_set(LogicSpec(strong, TT), u),
        lambda: classical_star_set(u),
    )
    for call in calls:
        with pytest.raises(ResourceLimitError):
            call()
    assert "_inferences" not in vars(u) and "_premise_indices" not in vars(u)


def test_td_equals_star_requires_reserve(strong):
    with pytest.raises(ValueError):
        check_td_equals_star(LogicSpec(strong, SS), Universe([P, Q], 1))


def test_td_equals_star_micro(strong):
    u = Universe.build(["p", "q"], 1, 2, reserve=["r"])
    for standard in (SS, TT, ST):
        report = check_td_equals_star(LogicSpec(strong, standard), u)
        assert report.passed, report.failures[:3]


def test_td_equals_star_alternate_universe(weak):
    # atom names swapped relative to the usual layout; nothing should care
    u = Universe.build(["q"], 2, 2, reserve=["p"])
    report = check_td_equals_star(LogicSpec(weak, TT), u)
    assert report.passed, report.failures[:3]


def test_ts_collapse_micro(strong, weak):
    u = Universe.build(["p", "q"], 1, 2, reserve=["r"])
    report = check_ts_collapse(LogicSpec(strong, SS), LogicSpec(weak, TT), u)
    assert report.passed, report.failures[:3]
    with pytest.raises(ValueError):
        check_ts_collapse(LogicSpec(strong, TT), LogicSpec(weak, TT), u)


def test_union_gap(strong, weak, middle):
    assert check_union_gap(LogicSpec(strong, SS), LogicSpec(strong, TT)).passed
    assert check_union_gap(LogicSpec(weak, SS), LogicSpec(middle, TT)).passed


def test_member_order():
    assert member_leq(FamilyMember.MEET, FamilyMember.SS)
    assert member_leq(FamilyMember.TT, FamilyMember.ST)
    assert not member_leq(FamilyMember.SS, FamilyMember.TT)
    assert not member_leq(FamilyMember.ST, FamilyMember.SS)


def test_lattice_tables():
    j, m = lattice_join, lattice_meet
    ss, tt, meet, st = (
        FamilyMember.SS,
        FamilyMember.TT,
        FamilyMember.MEET,
        FamilyMember.ST,
    )
    assert j(ss, tt) is st
    assert j(tt, ss) is st
    assert j(ss, ss) is ss
    assert j(meet, tt) is tt
    assert j(st, meet) is st
    assert m(ss, tt) is meet
    assert m(st, ss) is ss
    assert m(meet, tt) is meet
    assert m(st, st) is st
    # absorption at the member level
    for a in FamilyMember:
        for b in FamilyMember:
            assert j(a, m(a, b)) is a
            assert m(a, j(a, b)) is a


def test_family_decide(strong):
    family = LatticeFamily(LogicSpec(strong, SS), LogicSpec(strong, TT), LogicSpec(strong, ST))
    reflexive = parse_inference("p => p")
    assert family.decide(FamilyMember.MEET, reflexive)
    explosion = parse_inference("p & ~p => r")
    assert family.decide(FamilyMember.SS, explosion)
    assert not family.decide(FamilyMember.MEET, explosion)
    with pytest.raises(ValueError):
        LatticeFamily(LogicSpec(strong, TT), LogicSpec(strong, TT), LogicSpec(strong, ST))


def test_verify_lattices_smoke(strong, weak, rng):
    from trivalent.verification import random_inference

    family = LatticeFamily(LogicSpec(weak, SS), LogicSpec(strong, TT), LogicSpec(strong, ST))
    sample = [random_inference(rng) for _ in range(150)]
    u = Universe.build(["p", "q"], 1, 2, reserve=["r"])
    for report in (verify_lattices(family, sample), check_star_lattice(family, u)):
        assert report.passed, report.failures[:3]


def test_verify_lattices_checks_the_algebra_once(strong, monkeypatch):
    family = LatticeFamily(LogicSpec(strong, SS), LogicSpec(strong, TT), LogicSpec(strong, ST))
    sample = [parse_inference("p => p"), parse_inference("p & ~p => q")]
    assert verify_lattices(family, sample).checks == len(sample)

    join = characterize.lattice_join

    def left_biased(a, b):
        """Not commutative: the left argument wins on the pair {ss, tt}."""
        return a if {a, b} == {FamilyMember.SS, FamilyMember.TT} else join(a, b)

    monkeypatch.setattr(characterize, "lattice_join", left_biased)
    for tried in ((), sample):
        report = verify_lattices(family, tried)
        assert [f.check for f in report.failures] == ["lattice-algebra"]
        assert report.checks == 1 + len(tried)


@pytest.mark.parametrize("broken_member", ["st", "ss"])
def test_verify_lattices_checks_membership_facts(strong, broken_member):
    """A non-BNM negation that maps 1 to 1 makes ``p => ~p`` valid: under
    st that breaks st = classical, under ss it breaks ss => st."""
    broken = Scheme((T, I, T), strong.conj_table, strong.disj_table)
    logics = {
        standard: LogicSpec(broken if name == broken_member else strong, standard, allow_non_bnm=True)
        for name, standard in (("ss", SS), ("tt", TT), ("st", ST))
    }
    family = LatticeFamily(logics[SS], logics[TT], logics[ST])
    invalid = parse_inference("p => ~p")
    report = verify_lattices(family, [parse_inference("p => p"), invalid, parse_inference("q => q")])
    assert [str(f) for f in report.failures] == [f"membership-identities: {invalid}"]
    assert report.notes["sampled"] == 2


def test_verify_lattices_decides_the_sample_over_its_joint_atoms(strong):
    """The sample is one pool: thirteen atoms spread over small inferences
    still exceed the cap, and nothing is decided."""
    family = LatticeFamily(LogicSpec(strong, SS), LogicSpec(strong, TT), LogicSpec(strong, ST))
    sample = [Inference([Var(f"a{i:02d}")], Var(f"a{i:02d}")) for i in range(13)]
    with pytest.raises(ResourceLimitError):
        verify_lattices(family, sample)


@settings(max_examples=30, deadline=None)
@given(bnm_schemes, bnm_schemes, bnm_schemes, bnm_schemes, inferences())
def test_witness_steps_do_not_depend_on_schemes(tt_a, ss_a, tt_b, ss_b, inf):
    """The factorization theorem4 relies on: one witness serves every pair,
    and each pair's verdicts are its steps re-decided under that pair."""
    assume(is_classically_valid(inf))
    first = derive_classical(inf, LogicSpec(tt_a, TT), LogicSpec(ss_a, SS))
    other = derive_classical(inf, LogicSpec(tt_b, TT), LogicSpec(ss_b, SS))
    assert other.delta == first.delta
    assert other.step_inferences() == first.step_inferences()
    assert [ok for _, ok in other.tt_checks] == [
        is_valid(LogicSpec(tt_b, TT), step) for step, _ in first.tt_checks
    ]
    assert other.ss_check[1] == is_valid(LogicSpec(ss_b, SS), first.ss_check[0])


@settings(max_examples=80, deadline=None)
@given(bnm_schemes, bnm_schemes, inferences())
def test_derivation_exists_exactly_for_classical_inferences(tt_scheme, ss_scheme, inf):
    witness = derive_classical(inf, LogicSpec(tt_scheme, TT), LogicSpec(ss_scheme, SS))
    if is_classically_valid(inf):
        assert witness is not None and witness.all_passed
        assert replay_witness(inf, witness)
    else:
        assert witness is None


def test_contradiction_to_tautology_example(strong):
    u = Universe.build(["p"], 2, 2, reserve=["q"])
    example = Inference((parse("p & ~p"),), parse("p | ~p"))
    ss_star = star_set(LogicSpec(strong, SS), u)
    tt_star = star_set(LogicSpec(strong, TT), u)
    assert example in ss_star & tt_star
    assert dual_transitive_closure(ss_star & tt_star, u) == frozenset()

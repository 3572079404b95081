"""Executable characterizations of the collapse and lattice results.

The centerpiece facts this module turns into checkable constructions:

* every classically valid inference factors through a two-step derivation
  whose first stage holds tolerant-tolerant and whose second stage holds
  strict-strict, over freely mixed Boolean-normal monotonic schemes
  (``derive_classical`` builds the witness, cut recovers the inference);
* the dual transitive closure of a validity set keeps exactly its
  antitheorem-premised and theorem-concluded inferences (``star_set``,
  ``check_td_equals_star``), and erases the strict/tolerant intersection
  entirely (``check_ts_collapse``);
* the four validity sets {ss, tt, their intersection, st} form a lattice
  whose join is cut-closure of the union and whose meet is intersection,
  and the corresponding star sets form an isomorphic lattice the other way
  up (``LatticeFamily``, ``verify_lattices``, ``check_star_lattice``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Iterable

from .closure import (
    Universe,
    dual_transitive_closure,
    transitive_closure,
    universe_inferences,
    universe_premise_indices,
)
from .formula import And, Formula, Inference, Neg, Or, Var, atoms, formula_key
from .report import Report
from .scheme import TruthValue
from .semantics import (
    DEFAULT_ATOM_CAP,
    LogicSpec,
    Logics,
    SS,
    ST,
    TS,
    TT,
    Valuation,
    as_logic_tuple,
    classical_masks,
    classical_verdicts,
    formula_masks,
    full_mask,
    is_antitheorem,
    is_classically_valid,
    is_theorem,
    is_valid,
    pool_rows,
    premise_mask,
    satisfies_inference,
    sorted_atom_tuple,
    verdict_masks,
)


def delta_witness(inf: Inference) -> frozenset[Formula]:
    """The intermediate formula set of the two-step factorization: the
    premises plus one excluded-middle disjunct per conclusion atom."""
    extras = {Var(name) for name in atoms(inf.conclusion)}
    return inf.premises | {Or(v, Neg(v)) for v in sorted(extras, key=formula_key)}


@dataclass(frozen=True, slots=True)
class DerivationWitness:
    """A checked two-step derivation of a classically valid inference.

    ``tt_checks`` records one tolerant-tolerant validity per intermediate
    formula; ``ss_check`` the single strict-strict step from the
    intermediate set to the conclusion.  The witness certifies membership
    in the cut closure of the union of the two validity sets.
    """

    delta: frozenset[Formula]
    tt_checks: tuple[tuple[Inference, bool], ...]
    ss_check: tuple[Inference, bool]
    tt_logic: LogicSpec
    ss_logic: LogicSpec

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok in self.tt_checks) and self.ss_check[1]

    def step_inferences(self) -> list[Inference]:
        return [inf for inf, _ in self.tt_checks] + [self.ss_check[0]]


def witness_steps(inf: Inference) -> tuple[frozenset[Formula], tuple[Inference, ...], Inference]:
    """An inference's two-step witness: its intermediate set ``delta``, one
    tt step ``premises => d`` per member ``d`` in formula order, and the ss
    step ``delta => conclusion``; none of it depends on the schemes."""
    delta = delta_witness(inf)
    tt_steps = tuple(Inference(inf.premises, d) for d in sorted(delta, key=formula_key))
    return delta, tt_steps, Inference(delta, inf.conclusion)


def derive_classical(
    inf: Inference,
    tt_logic: LogicSpec,
    ss_logic: LogicSpec,
    atom_cap: int = DEFAULT_ATOM_CAP,
) -> DerivationWitness | None:
    """Build the two-step witness for a classically valid inference.

    Returns None when the inference is not classically valid.  The two
    logics may use different schemes; their standards must be
    tolerant-tolerant and strict-strict respectively.
    """
    if tt_logic.standard != TT:
        raise ValueError("tt_logic must use the tolerant-tolerant standard")
    if ss_logic.standard != SS:
        raise ValueError("ss_logic must use the strict-strict standard")
    if not is_classically_valid(inf, atom_cap):
        return None
    delta, tt_steps, ss_step = witness_steps(inf)
    tt_checks = tuple((step, is_valid(tt_logic, step, atom_cap)) for step in tt_steps)
    ss_check = (ss_step, is_valid(ss_logic, ss_step, atom_cap))
    return DerivationWitness(delta, tt_checks, ss_check, tt_logic, ss_logic)


def replay_witness(inf: Inference, witness: DerivationWitness) -> bool:
    """Feed the witness steps to the cut closure inside a universe just big
    enough to hold them, and confirm the target inference is recovered."""
    pool = list(inf.premises) + sorted(witness.delta, key=formula_key) + [inf.conclusion]
    cap = max(1, len(inf.premises), len(witness.delta))
    u = Universe(pool, cap)
    base = set(witness.step_inferences())
    return inf in transitive_closure(base, u)


# --- universe-wide evaluation ------------------------------------------------
#
# Every pool formula is evaluated once per logic over the universe's atom
# tuple (``formula_masks``).  Premise set ``k`` of the universe is a tuple of
# pool indices, and its inference with conclusion ``j`` sits at position
# ``k * n + j`` of the canonical inference tuple, so the sets below hand
# back the universe's own inference objects.


def _kernels(logics: Logics, u: Universe) -> list[tuple[list[int], list[int]]]:
    """Per logic, each pool formula's premise accept mask and conclusion
    reject mask.  Raises on the atom cap before anything is built."""
    return [
        formula_masks(logic, u.formulas, u.atom_names)
        for logic in as_logic_tuple(logics)
    ]


def valid_subset(logics: Logics, u: Universe) -> frozenset[Inference]:
    """The universe inferences valid in every given logic: ``Gamma => phi``
    is valid iff ``Gamma``'s premise mask meets no bit of ``phi``'s reject
    mask."""
    kernels = _kernels(logics, u)
    inferences = universe_inferences(u)
    n = len(u.formulas)
    found: list[Inference] = []
    for k, members in enumerate(universe_premise_indices(u)):
        row: Iterable[int] = range(n)
        for accepts, rejects in kernels:
            accepted = premise_mask(accepts, members)
            if accepted:
                row = [j for j in row if not accepted & rejects[j]]
        base = k * n
        found.extend(inferences[base + j] for j in row)
    return frozenset(found)


def _star_inferences(u: Universe, theorems: list[int], antitheorem) -> frozenset[Inference]:
    """The universe inferences whose conclusion index is in ``theorems`` or
    whose premise set satisfies ``antitheorem``."""
    inferences = universe_inferences(u)
    n = len(u.formulas)
    found: list[Inference] = []
    for k, members in enumerate(universe_premise_indices(u)):
        base = k * n
        if antitheorem(members):
            found.extend(inferences[base:base + n])
        else:
            found.extend(inferences[base + j] for j in theorems)
    return frozenset(found)


def star_set(logics: Logics, u: Universe) -> frozenset[Inference]:
    """All universe inferences with an antitheorem premise set or a theorem
    conclusion, decided semantically (intersections take both components).
    A theorem has an empty reject mask; an antitheorem set, an empty
    premise mask."""
    kernels = _kernels(logics, u)
    theorems = [
        j for j in range(len(u.formulas))
        if not any(rejects[j] for _, rejects in kernels)
    ]
    return _star_inferences(
        u,
        theorems,
        lambda members: not any(
            premise_mask(accepts, members) for accepts, _ in kernels
        ),
    )


def classical_star_set(u: Universe) -> frozenset[Inference]:
    """The classical counterpart: unsatisfiable premises or tautological
    conclusion, decided by the two-valued evaluator."""
    names = u.atom_names
    truths = classical_masks(u.formulas, names)
    full = full_mask(2 ** len(names))
    tautologies = [j for j, mask in enumerate(truths) if mask == full]
    return _star_inferences(
        u, tautologies, lambda members: not premise_mask(truths, members)
    )


def _require_reserve(u: Universe) -> None:
    if not u.reserve_atoms:
        raise ValueError("this check needs a universe with at least one reserve atom")


def check_td_equals_star(logics: Logics, u: Universe) -> Report:
    """Compare the dual transitive closure of a validity set against its
    star set, on the reserve-free part of the universe.

    Inferences touching a reserve atom are left out of the comparison: the
    removal argument consumes a fresh atom, and the universe cannot supply
    one for inferences that already use every atom it has.
    """
    _require_reserve(u)
    logic_tuple = as_logic_tuple(logics)
    label = " & ".join(str(logic) for logic in logic_tuple)
    report = Report(f"td-equals-star[{label}]")
    members = valid_subset(logic_tuple, u)
    closed = dual_transitive_closure(members, u)
    star = star_set(logic_tuple, u)
    free_closed = {inf for inf in closed if u.is_reserve_free(inf)}
    free_star = {inf for inf in star if u.is_reserve_free(inf)}
    report.notes["valid members"] = len(members)
    report.notes["reserve-free star size"] = len(free_star)
    for inf in sorted(free_closed - free_star, key=str):
        report.record("td-minus-star", False, str(inf))
    for inf in sorted(free_star - free_closed, key=str):
        report.record("star-minus-td", False, str(inf))
    report.record("td-equals-star", free_closed == free_star, "set equality")
    return report


def check_ts_collapse(ss_logic: LogicSpec, tt_logic: LogicSpec, u: Universe) -> Report:
    """The dual transitive closure of the ss/tt intersection is empty on the
    reserve-free part of the universe, and non-vacuously so."""
    if ss_logic.standard != SS:
        raise ValueError("ss_logic must use the strict-strict standard")
    if tt_logic.standard != TT:
        raise ValueError("tt_logic must use the tolerant-tolerant standard")
    _require_reserve(u)
    report = Report(f"ts-collapse[{ss_logic} & {tt_logic}]")
    both = valid_subset((ss_logic, tt_logic), u)
    reflexive = any(inf.premises == frozenset({inf.conclusion}) for inf in both)
    report.record("intersection-nonvacuous", reflexive, "expected some f => f member")
    closed = dual_transitive_closure(both, u)
    survivors = sorted(
        (inf for inf in closed if u.is_reserve_free(inf)), key=str
    )
    for inf in survivors:
        report.record("collapse", False, f"survived dual closure: {inf}")
    report.record("collapse-empty", not survivors, f"{len(both)} members erased")
    return report


def union_gap_witness() -> Inference:
    """The inference separating the ss/tt union from classical validity."""
    p, q, r = Var("p"), Var("q"), Var("r")
    premise = Or(p, And(q, Neg(q)))
    conclusion = And(p, Or(r, Neg(r)))
    return Inference((premise,), conclusion)


def union_gap_facts(ss_logic: LogicSpec, tt_logic: LogicSpec) -> list[tuple[str, str, bool, str]]:
    """``check_union_gap``'s checks in record order as (side, check, ok,
    detail): side ``tt`` reads only ``tt_logic``, side ``ss`` only
    ``ss_logic``'s scheme, or no scheme."""
    if ss_logic.standard != SS:
        raise ValueError("ss_logic must use the strict-strict standard")
    if tt_logic.standard != TT:
        raise ValueError("tt_logic must use the tolerant-tolerant standard")
    witness = union_gap_witness()
    v_ss = Valuation.of({"p": TruthValue.T, "q": TruthValue.F, "r": TruthValue.I})
    v_tt = Valuation.of({"p": TruthValue.F, "q": TruthValue.I, "r": TruthValue.F})
    p, r = Var("p"), Var("r")
    explosion = Inference((And(p, Neg(p)),), r)
    middle = Inference((), Or(p, Neg(p)))
    ss, tt, ts = ss_logic, tt_logic, LogicSpec(ss_logic.scheme, TS)
    return [
        ("ss", "witness-classical", is_classically_valid(witness), str(witness)),
        ("ss", "witness-ss-invalid", not is_valid(ss, witness), str(witness)),
        ("tt", "witness-tt-invalid", not is_valid(tt, witness), str(witness)),
        ("ss", "ss-countervaluation", not satisfies_inference(ss.scheme, v_ss, witness, SS),
         f"{v_ss} should falsify strictly"),
        ("tt", "tt-countervaluation", not satisfies_inference(tt.scheme, v_tt, witness, TT),
         f"{v_tt} should falsify tolerantly"),
        ("ss", "explosion-ss-valid", is_valid(ss, explosion), str(explosion)),
        ("tt", "explosion-tt-invalid", not is_valid(tt, explosion), str(explosion)),
        ("tt", "excluded-middle-tt-valid", is_valid(tt, middle), str(middle)),
        ("ss", "excluded-middle-ss-invalid", not is_valid(ss, middle), str(middle)),
        ("ss", "witness-ts-invalid", not is_valid(ts, witness), str(witness)),
    ]


def check_union_gap(ss_logic: LogicSpec, tt_logic: LogicSpec) -> Report:
    """The witness inference separating the ss/tt union from classical
    validity, plus the two incomparability witnesses."""
    report = Report(f"union-gap[{ss_logic} & {tt_logic}]")
    for _, check, ok, detail in union_gap_facts(ss_logic, tt_logic):
        report.record(check, ok, detail)
    return report


# --- the two lattices ------------------------------------------------------

class FamilyMember(Enum):
    """The four validity sets carried by a lattice family."""

    SS = "ss"
    TT = "tt"
    MEET = "ss&tt"
    ST = "st"

    def __str__(self) -> str:
        return self.value


def member_leq(a: FamilyMember, b: FamilyMember) -> bool:
    """The inclusion order of the four sets (ss and tt are incomparable)."""
    if a == b or a is FamilyMember.MEET or b is FamilyMember.ST:
        return True
    return False


def lattice_join(a: FamilyMember, b: FamilyMember) -> FamilyMember:
    """Join = cut closure of the union, decided by the collapse identities:
    the larger of a comparable pair, and st for the pair {ss, tt}."""
    if member_leq(a, b):
        return b
    if member_leq(b, a):
        return a
    return FamilyMember.ST


def lattice_meet(a: FamilyMember, b: FamilyMember) -> FamilyMember:
    """Meet = intersection: the smaller of a comparable pair, and the
    ss/tt intersection for the pair {ss, tt}."""
    if member_leq(a, b):
        return a
    if member_leq(b, a):
        return b
    return FamilyMember.MEET


@dataclass(frozen=True, slots=True)
class LatticeFamily:
    """Membership deciders for the four validity sets, each possibly over a
    different Boolean-normal monotonic scheme."""

    ss: LogicSpec
    tt: LogicSpec
    st: LogicSpec

    def __post_init__(self):
        if self.ss.standard != SS or self.tt.standard != TT or self.st.standard != ST:
            raise ValueError("family logics must use the ss, tt and st standards")

    def logics(self, member: FamilyMember) -> tuple[LogicSpec, ...]:
        if member is FamilyMember.SS:
            return (self.ss,)
        if member is FamilyMember.TT:
            return (self.tt,)
        if member is FamilyMember.MEET:
            return (self.ss, self.tt)
        return (self.st,)

    def decide(self, member: FamilyMember, inf: Inference) -> bool:
        return all(is_valid(logic, inf) for logic in self.logics(member))


def _lattice_algebra_failure() -> str | None:
    """The first lattice identity the join and meet tables break, if any:
    commutativity and absorption over every pair of members, associativity
    over every triple."""
    members = list(FamilyMember)
    for a, b in product(members, repeat=2):
        identities = (
            ("join-commutative", lattice_join(a, b), lattice_join(b, a)),
            ("meet-commutative", lattice_meet(a, b), lattice_meet(b, a)),
            ("join-absorbs-meet", lattice_join(a, lattice_meet(a, b)), a),
            ("meet-absorbs-join", lattice_meet(a, lattice_join(a, b)), a),
        )
        for name, left, right in identities:
            if left is not right:
                return f"{name} at {a}, {b}: {left} vs {right}"
    for a, b, c in product(members, repeat=3):
        identities = (
            ("join-associative", lattice_join(lattice_join(a, b), c), lattice_join(a, lattice_join(b, c))),
            ("meet-associative", lattice_meet(lattice_meet(a, b), c), lattice_meet(a, lattice_meet(b, c))),
        )
        for name, left, right in identities:
            if left is not right:
                return f"{name} at {a}, {b}, {c}: {left} vs {right}"
    return None


def verify_lattices(family: LatticeFamily, sample: Iterable[Inference]) -> Report:
    """Check the lattice algebra once on the four members, and membership on
    the sample.

    Equal members have equal membership for every inference, so an identity
    that holds between members holds between memberships too; it is checked
    once and recorded only when it fails.  Per inference the real facts
    remain: st is classical validity, and membership respects the order.
    The sample is decided as one pool over the union of its atoms, so a
    sample whose atoms together exceed ``DEFAULT_ATOM_CAP`` raises
    ``ResourceLimitError`` before anything is evaluated.
    """
    report = Report("lattices")
    broken = _lattice_algebra_failure()
    if broken is not None:
        report.record("lattice-algebra", False, broken)
    order = [
        (a, b) for a, b in product(FamilyMember, repeat=2) if a is not b and member_leq(a, b)
    ]

    # The whole sample is one pool, decided with the family's three schemes
    # stacked: bit 0 of an ss mask, bit 1 of a tt mask, bit 2 of an st mask.
    sample = list(sample)
    pool, rows = pool_rows(sample)
    names = sorted_atom_tuple(name for f in pool for name in atoms(f))
    schemes = (family.ss.scheme, family.tt.scheme, family.st.scheme)
    ss_masks, tt_masks, st_masks = verdict_masks(schemes, pool, rows, names, (SS, TT, ST))
    decided = 0
    for inf, ss_mask, tt_mask, st_mask, classical in zip(
        sample, ss_masks, tt_masks, st_masks, classical_verdicts(pool, rows, names)
    ):
        ss, tt, st = bool(ss_mask & 1), bool(tt_mask & 2), bool(st_mask & 4)
        value = {
            FamilyMember.SS: ss,
            FamilyMember.TT: tt,
            FamilyMember.MEET: ss and tt,
            FamilyMember.ST: st,
        }
        decided += 1
        ok = st == classical and all(value[b] for a, b in order if value[a])
        if not report.record("membership-identities", ok, "" if ok else str(inf)):
            break
    report.notes["sampled"] = decided
    return report


def check_star_lattice(family: LatticeFamily, u: Universe) -> Report:
    """Check the star-set lattice of the family exactly on a universe."""
    report = Report("star-lattice")
    ss_star = star_set(family.ss, u)
    tt_star = star_set(family.tt, u)
    st_star = star_set(family.st, u)
    cl_star = classical_star_set(u)
    report.record(
        "star-union-equals-st-star", ss_star | tt_star == st_star,
        f"|ss*|={len(ss_star)} |tt*|={len(tt_star)} |st*|={len(st_star)}",
    )
    report.record("st-star-equals-classical-star", st_star == cl_star, "")

    ts_logic = LogicSpec(family.st.scheme, TS)
    ts_star = star_set(ts_logic, u)
    report.record("ts-star-empty", ts_star == frozenset(), f"|ts*|={len(ts_star)}")
    report.record(
        "ts-star-equals-td-of-empty",
        ts_star == dual_transitive_closure(frozenset(), u),
        "dual route through the interior operator",
    )
    meet_star = ss_star & tt_star
    report.record(
        "td-of-star-meet-empty",
        dual_transitive_closure(meet_star, u) == frozenset(),
        f"|ss* & tt*|={len(meet_star)}",
    )
    for name, star in (("ss*", ss_star), ("tt*", tt_star), ("union*", ss_star | tt_star)):
        report.record(
            f"td-fixes-{name}",
            dual_transitive_closure(star, u) == star,
            "star sets are open under the dual closure",
        )

    star_sets = {
        "ts*": ts_star,
        "ss*": ss_star,
        "tt*": tt_star,
        "union*": ss_star | tt_star,
    }
    for name_a, a in star_sets.items():
        for name_b, b in star_sets.items():
            included = a <= b
            fixed = dual_transitive_closure(a & b, u) == a
            report.record(
                "star-order-vs-meet",
                included == fixed,
                f"{name_a} vs {name_b}",
            )

    p, q = Var("p"), Var("q")
    example = Inference((And(p, Neg(p)),), Or(q, Neg(q)))
    in_ss = is_antitheorem(family.ss, example.premises)
    in_tt = is_theorem(family.tt, example.conclusion)
    report.record("contradiction-to-tautology-in-star-meet", in_ss and in_tt, str(example))
    ts_theorem = is_theorem(ts_logic, example.conclusion)
    ts_antith = is_antitheorem(ts_logic, example.premises)
    report.record("contradiction-to-tautology-not-in-ts-star", not (ts_theorem or ts_antith), str(example))

    explosionish = Inference((And(p, Neg(p)),), q)
    lem_ish = Inference((p,), Or(q, Neg(q)))
    report.record(
        "star-incomparability",
        is_antitheorem(family.ss, explosionish.premises)
        and not is_theorem(family.tt, explosionish.conclusion)
        and not is_antitheorem(family.tt, explosionish.premises)
        and is_theorem(family.tt, lem_ish.conclusion)
        and not is_antitheorem(family.ss, lem_ish.premises)
        and not is_theorem(family.ss, lem_ish.conclusion),
        "explosion-style vs excluded-middle-style witnesses",
    )
    return report

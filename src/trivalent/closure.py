"""Bounded inference universes and the closure operators over them.

The closure operators act on *sets of inferences*:

* transitive closure: the least superset closed under cut with an
  arbitrary nonempty set of intermediate formulas (if Delta => phi and
  Gamma => delta for every delta in Delta are in the set, so is
  Gamma => phi);
* dual transitive closure: the greatest subset whose complement is closed
  under the same rule (computed through that complement identity, with an
  independent direct greatest-fixpoint implementation for cross-checking);
* Tarskian closure: the least superset closed under reflexivity, premise
  monotonicity, cut and substitution.

The unrestricted operators act on an infinite inference space and are not
computable, so everything here is *relative to a universe*: a finite,
explicitly listed formula pool with a premise-size cap, optionally with
designated "reserve" atoms that enter the pool only as bare atomic
formulas and stand in for fresh variables.  Results are exact within the
universe; callers comparing against unrestricted claims must pick
universes large enough to express the derivations they care about.

Cut only adds Gamma => phi when Gamma is already the premise set of a
member, so the cut closure of a base lives on the base's own premise sets
and never materializes the universe.  Its row at Gamma depends only on
Gamma's base conclusions, so each distinct row is closed once, by value.
The dual operator closes the complement the same way; it enumerates the
universe's premise sets but builds no inference of the complement.  The
Tarskian closure is cut closure iterated with widening and substitution,
each round applying them only to the members the last round added.

A universe checks the ``DEFAULT_UNIVERSE_CAP`` inference cap the first
time it enumerates its premise sets, and the ``DEFAULT_SUBSTITUTION_CAP``
candidate cap before it searches for its preserving substitutions, so no
function here takes a cap argument.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .errors import ResourceLimitError
from .formula import (
    Formula,
    Inference,
    Var,
    atoms,
    enumerate_formulas,
    iter_subsets,
    substitute,
    substitute_inference,
)
from .report import Report

InferenceSet = frozenset[Inference]

DEFAULT_UNIVERSE_CAP = 500_000
DEFAULT_SUBSTITUTION_CAP = 300_000


@dataclass(frozen=True)
class Universe:
    """A finite formula pool with a premise-size cap and reserve atoms.

    All inferences drawn from the universe take their premises (at most
    ``premise_cap`` of them) and their conclusion from ``formulas``.
    Reserve atoms mark formulas acting as fresh variables; checks that
    need a fresh atom restrict their comparisons to inferences avoiding
    them (see :mod:`.characterize`).

    A universe holds its own derived data: the formula set and atom names
    from construction, the premise sets, inferences and preserving
    substitutions from first use.  It all goes when the universe goes.
    """

    formulas: tuple[Formula, ...]
    premise_cap: int
    reserve_atoms: frozenset[str]
    formula_set: frozenset[Formula] = field(init=False, repr=False, compare=False)
    atom_names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _reserve_formulas: frozenset[Formula] = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        formulas: Iterable[Formula],
        premise_cap: int,
        reserve_atoms: Iterable[str] = (),
    ):
        seen: dict[Formula, None] = {}
        for f in formulas:
            seen.setdefault(f, None)
        pool = tuple(seen)
        if not pool:
            raise ValueError("universe requires a nonempty formula pool")
        if premise_cap < 1:
            raise ValueError("premise_cap must be >= 1")
        reserve = frozenset(reserve_atoms)
        occurring: set[str] = set()
        tainted = set()
        for f in pool:
            names = atoms(f)
            occurring |= names
            if names & reserve:
                tainted.add(f)
        stray = reserve - occurring
        if stray:
            raise ValueError(f"reserve atoms not occurring in any formula: {sorted(stray)}")
        object.__setattr__(self, "formulas", pool)
        object.__setattr__(self, "premise_cap", premise_cap)
        object.__setattr__(self, "reserve_atoms", reserve)
        object.__setattr__(self, "formula_set", frozenset(seen))
        object.__setattr__(self, "atom_names", tuple(sorted(occurring)))
        object.__setattr__(self, "_reserve_formulas", frozenset(tainted))
        object.__setattr__(self, "_hash", hash((pool, premise_cap, reserve)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def build(
        cls,
        atom_names: Iterable[str],
        depth: int,
        premise_cap: int,
        reserve: Iterable[str] = (),
    ) -> "Universe":
        """Enumerate all formulas over ``atom_names`` up to ``depth`` and add
        each reserve atom as a bare atomic formula.

        Keeping reserve atoms out of the depth enumeration keeps the pool
        small and matches their role: a fresh variable is only ever used
        bare, as an intermediate step of a cut.
        """
        base_atoms = sorted(set(atom_names))
        reserve_list = sorted(set(reserve))
        overlap = set(base_atoms) & set(reserve_list)
        if overlap:
            raise ValueError(f"reserve atoms must be distinct from base atoms: {sorted(overlap)}")
        pool = list(enumerate_formulas(base_atoms, depth, DEFAULT_UNIVERSE_CAP))
        pool.extend(Var(name) for name in reserve_list)
        return cls(pool, premise_cap, reserve_list)

    def contains(self, inf: Inference) -> bool:
        pool = self.formula_set
        return (
            len(inf.premises) <= self.premise_cap
            and inf.conclusion in pool
            and inf.premises <= pool
        )

    def is_reserve_free(self, inf: Inference) -> bool:
        pool = self.formula_set
        if inf.conclusion in pool and inf.premises <= pool:
            tainted = self._reserve_formulas
            return inf.conclusion not in tainted and tainted.isdisjoint(inf.premises)
        return not (atoms(inf) & self.reserve_atoms)

    def premise_set_count(self) -> int:
        n = len(self.formulas)
        return sum(math.comb(n, j) for j in range(min(self.premise_cap, n) + 1))

    def inference_count(self) -> int:
        return len(self.formulas) * self.premise_set_count()

    def describe(self) -> str:
        return (
            f"{len(self.formulas)} formulas, premise cap {self.premise_cap}, "
            f"reserve {sorted(self.reserve_atoms) or '-'}"
        )

    @cached_property
    def _premise_indices(self) -> tuple[tuple[int, ...], ...]:
        _require_within_cap(self)
        return tuple(iter_subsets(list(range(len(self.formulas))), self.premise_cap))

    @cached_property
    def _premise_sets(self) -> tuple[frozenset[Formula], ...]:
        pool = self.formulas
        return tuple(
            frozenset(pool[i] for i in members) for members in self._premise_indices
        )

    @cached_property
    def _inferences(self) -> tuple[Inference, ...]:
        return tuple(
            Inference(premises, conclusion)
            for premises in self._premise_sets
            for conclusion in self.formulas
        )

    @cached_property
    def _substitutions(self) -> tuple[dict, ...]:
        count = len(self.formulas) ** len(self.atom_names)
        if count > DEFAULT_SUBSTITUTION_CAP:
            raise ResourceLimitError(
                f"substitution search space has {count} candidates, above the cap of {DEFAULT_SUBSTITUTION_CAP}"
            )
        found: list[dict] = []
        for images in itertools.product(self.formulas, repeat=len(self.atom_names)):
            sigma = dict(zip(self.atom_names, images))
            if all(substitute(f, sigma) in self.formula_set for f in self.formulas):
                found.append(sigma)
        return tuple(found)


def _require_within_cap(u: Universe) -> None:
    count = u.inference_count()
    if count > DEFAULT_UNIVERSE_CAP:
        raise ResourceLimitError(
            f"universe holds {count} inferences, above the cap of {DEFAULT_UNIVERSE_CAP}"
        )


def universe_inferences(u: Universe) -> tuple[Inference, ...]:
    """Every inference expressible in the universe, in canonical order:
    premise sets smallest first (combination order over the formula pool),
    then conclusions in pool order."""
    return u._inferences


def universe_premise_indices(u: Universe) -> tuple[tuple[int, ...], ...]:
    """The premise sets of :func:`universe_inferences`, in the same order,
    as tuples of pool indices: the inference at position ``k * n + j``
    (``n`` pool formulas) has premise set ``k`` and conclusion ``j``."""
    return u._premise_indices


def _index_base(
    base: Iterable[Inference], u: Universe
) -> tuple[set[Inference], dict[frozenset[Formula], set[Formula]]]:
    """The base as a set, and as a map from each premise set to its
    conclusions; raises on an inference outside the universe."""
    members = set(base)
    concl: dict[frozenset[Formula], set[Formula]] = {}
    for inf in members:
        if not u.contains(inf):
            raise ValueError(f"inference not in universe: {inf}")
        concl.setdefault(inf.premises, set()).add(inf.conclusion)
    return members, concl


def _cut_closed(concl: dict[frozenset[Formula], set[Formula]]) -> dict:
    """The least cut-closed extension of ``concl``, which maps each premise
    set Gamma to its base conclusions base(Gamma).  Let H(X) be the least
    D >= X holding base(Delta) for every nonempty Delta <= D.  R(Gamma) =
    H(base(Gamma)) is cut-closed, as a nonempty Delta <= R(Gamma) puts
    base(Delta), hence R(Delta), inside R(Gamma); and every cut-closed
    superset's row at Gamma holds base(Gamma) and obeys the same rules, so
    it contains R(Gamma).  So each distinct row is closed once, and a rule
    that has fired stays satisfied and is dropped."""
    rules = [(delta, frozenset(cs)) for delta, cs in concl.items() if delta]
    by_row = dict.fromkeys(map(frozenset, concl.values()))
    for row in by_row:
        derived, pending, size = set(row), rules, -1
        while len(pending) != size:
            size, waiting = len(pending), []
            for delta, cs in pending:
                if delta <= derived:
                    derived |= cs
                else:
                    waiting.append((delta, cs))
            pending = waiting
        by_row[row] = frozenset(derived)
    return {gamma: by_row[frozenset(row)] for gamma, row in concl.items()}


def transitive_closure(base: Iterable[Inference], u: Universe) -> InferenceSet:
    """Least superset of ``base`` closed under the cut rule.

    The result stays within the universe automatically: cut never
    introduces a premise set or conclusion that the base did not already
    use.
    """
    members, concl = _index_base(base, u)
    members.update(
        Inference(premises, c)
        for premises, cs in _cut_closed(concl).items()
        for c in cs - concl[premises]
    )
    return frozenset(members)


def dual_transitive_closure(base: Iterable[Inference], u: Universe) -> InferenceSet:
    """Greatest subset of ``base`` whose relative complement is cut-closed.

    Computed through the complement identity: take the complement of the
    transitive closure of the complement of ``base``, both relative to the
    universe.  The complement is a map from premise set to conclusions,
    whose rows outside the base are all the one pool row; it is closed by
    value, and no inference of it is built.
    """
    members, concl = _index_base(base, u)
    pool = u.formula_set
    complement = {}
    for premises in u._premise_sets:
        row = pool - concl[premises] if premises in concl else pool
        if row:
            complement[premises] = row
    closed = _cut_closed(complement)
    return frozenset(
        inf for inf in members if inf.conclusion not in closed.get(inf.premises, ())
    )


def dual_transitive_closure_direct(
    base: Iterable[Inference], u: Universe
) -> InferenceSet:
    """Reference implementation of the dual closure as a greatest fixpoint.

    Repeatedly removes any member Gamma => phi for which some nonempty
    premise-capped Delta has Delta => phi outside the set and Gamma =>
    delta outside the set for every delta in Delta.  That condition only
    gets easier to meet as the set shrinks, so the greatest fixpoint is
    unique and the order of visits does not matter.  Kept independent of
    :func:`dual_transitive_closure` so the two can be played against each
    other in the operator-law checks.
    """
    empty: frozenset[Formula] = frozenset()
    members, concl = _index_base(base, u)
    deltas = [d for d in u._premise_sets if d]
    changed = True
    while changed:
        changed = False
        for inf in list(members):
            gamma_derives = concl[inf.premises]
            for delta in deltas:
                if delta & gamma_derives:
                    continue
                if inf.conclusion not in concl.get(delta, empty):
                    members.remove(inf)
                    gamma_derives.remove(inf.conclusion)
                    if not gamma_derives:
                        del concl[inf.premises]
                    changed = True
                    break
    return frozenset(members)


def universe_preserving_substitutions(u: Universe) -> tuple[dict, ...]:
    """All substitutions on the universe's atoms mapping every pool formula
    back into the pool.  Unrestricted substitution escapes any finite pool,
    so the Tarskian closure below applies exactly these."""
    return u._substitutions


def tarskian_closure(base: Iterable[Inference], u: Universe) -> InferenceSet:
    """Least superset of ``base`` within the universe closed under
    reflexivity, premise monotonicity (up to the cap), cut, and
    universe-preserving substitution: the cut closure of the base and
    every ``f => f``, whose new members are widened and substituted (both
    rules act on one inference, so old members need nothing) and closed
    again, until a round adds nothing."""
    _require_within_cap(u)
    substitutions = universe_preserving_substitutions(u)
    pool = u.formulas
    reflexive = (Inference((f,), f) for f in pool)
    fresh = members = transitive_closure(itertools.chain(base, reflexive), u)
    while True:
        added: set[Inference] = set()
        for inf in fresh:
            if len(inf.premises) < u.premise_cap:
                for f in pool:
                    if f not in inf.premises:
                        widened = Inference(inf.premises | {f}, inf.conclusion)
                        if widened not in members:
                            added.add(widened)
            for sigma in substitutions:
                image = substitute_inference(inf, sigma)
                if image not in members:
                    added.add(image)
        if not added:
            return members
        closed = transitive_closure(members | added, u)
        fresh, members = closed - members, closed


def check_operator_laws(
    samples: Iterable[tuple[Iterable[Inference], Universe]],
) -> Report:
    """Check the closure laws of the transitive operator, the interior laws
    of its dual, and the two complement identities, on every sample.

    Monotonicity is exercised by comparing each sample against its
    intersection and union with the next sample over the same universe.
    The complement identities are checked against the independent direct
    fixpoint implementation.
    """
    report = Report("operator-laws")
    normalized = [(frozenset(xs), u) for xs, u in samples]
    for position, (xs, u) in enumerate(normalized):
        label = f"sample {position}"
        everything = frozenset(universe_inferences(u))
        t_xs = transitive_closure(xs, u)
        report.record("t-extensive", xs <= t_xs, label)
        report.record("t-idempotent", transitive_closure(t_xs, u) == t_xs, label)
        td_xs = dual_transitive_closure(xs, u)
        report.record("td-contractive", td_xs <= xs, label)
        report.record(
            "td-idempotent", dual_transitive_closure(td_xs, u) == td_xs, label
        )
        partner = next(
            (ys for ys, v in normalized[position + 1:] if v == u), None
        )
        if partner is not None:
            smaller, larger = xs & partner, xs | partner
            report.record(
                "t-monotone",
                transitive_closure(smaller, u) <= t_xs
                and t_xs <= transitive_closure(larger, u),
                label,
            )
            report.record(
                "td-monotone",
                dual_transitive_closure(smaller, u) <= td_xs
                and td_xs <= dual_transitive_closure(larger, u),
                label,
            )
        direct = dual_transitive_closure_direct(xs, u)
        report.record("duality-td-from-t", direct == td_xs, label)
        report.record(
            "duality-t-from-td",
            t_xs == everything - dual_transitive_closure_direct(everything - xs, u),
            label,
        )
    return report

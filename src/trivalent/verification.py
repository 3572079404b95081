"""The desk-scale verification suite.

Each claim function checks one of the package's headline results over
seeded corpora and micro-universes, returning a structured report.  The
suite is what ``trivalent verify`` runs; the test suite drives the same
functions with the same default sizes.

Claim names follow the package's own numbered result list (see README):

* theorem1 - strict-tolerant validity coincides with classical validity
  for every BNM scheme;
* theorem2 - tolerant-strict validity is empty, with the all-middle
  valuation as a uniform countervaluation;
* theorem3 - the ss/tt union falls strictly short of classical validity;
* theorem4 - cut closure of the ss/tt union recovers classical validity,
  via explicit two-step derivations over arbitrary scheme pairs;
* theorem5 - the dual cut closure of the ss/tt intersection is empty;
* prop2 - the dual closure of a validity set keeps exactly its star set
  (antitheorem premises or theorem conclusions);
* prop3 - for cut-closed, reflexive, monotone, substitution-closed sets,
  full Tarskian closure of a union adds nothing beyond cut closure;
* plus scheme enumeration, operator laws, the antitheorem/theorem
  equivalences, non-reflexivity of the dual closure, and the two lattices.

Sampling is reproducible: the random corpus is drawn from a
``random.Random(seed)`` stream (formulas over atoms p, q, r with depth at
most 3, premise counts at most 3), and each claim that samples further
gets its own stream seeded from (seed, claim name), so ``--only``
selections see the same draws as a full run.

The universe claims (theorem4's closure check, theorem5, prop2, prop3,
non-reflexivity and star-lattice) read their universes and scheme
assignments from one table, ``VerificationContext.universe_runs``: each
run pairs a micro-universe with a scheme family and names the claims that
check it.  A new universe or assignment is one entry there.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
import time
from dataclasses import dataclass
from typing import Sequence

from .closure import (
    Universe,
    check_operator_laws,
    dual_transitive_closure,
    tarskian_closure,
    transitive_closure,
    universe_inferences,
)
from .characterize import (
    DerivationWitness,
    FamilyMember,
    LatticeFamily,
    check_star_lattice,
    check_td_equals_star,
    check_ts_collapse,
    derive_classical,
    replay_witness,
    union_gap_facts,
    valid_subset,
    verify_lattices,
    witness_steps,
)
from .formula import (
    And,
    Formula,
    Inference,
    Neg,
    Or,
    Var,
    atoms,
    enumerate_formulas,
    iter_subsets,
    substitute_inference,
)
from .report import Report
from .scheme import (
    F,
    I,
    Scheme,
    T,
    VALUES,
    enumerate_bnm_schemes,
    info_leq,
    is_boolean_normal,
    is_monotonic,
    preset,
)
from .semantics import (
    LogicSpec,
    Row,
    SS,
    ST,
    TS,
    TT,
    Valuation,
    classical_verdicts,
    eval_formula,
    is_antitheorem,
    is_theorem,
    is_valid,
    pool_rows,
    premise_mask,
    verdict_masks,
)


@dataclass(frozen=True)
class VerifyConfig:
    seed: int = 42
    corpus_size: int = 10_000
    reduced_size: int = 500
    law_samples: int = 100
    lemma_samples: int = 200
    equivalence_samples: int = 60
    all_pairs: bool = True

    def __post_init__(self) -> None:
        for name in ("corpus_size", "reduced_size", "law_samples", "lemma_samples", "equivalence_samples"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, not {getattr(self, name)}")


CORPUS_ATOMS = ("p", "q", "r")


def random_formula(rng: random.Random, names=CORPUS_ATOMS, max_depth: int = 3) -> Formula:
    """Random formula, depth-bounded.  Besides plain connective draws, the
    generator occasionally emits excluded-middle and contradiction units
    (x | ~x, x & ~x), so the corpus reliably contains the tautology-guarded
    and contradiction-guarded shapes the collapse results turn on."""
    if max_depth == 0 or rng.random() < 0.28:
        return Var(rng.choice(names))
    roll = rng.random()
    if max_depth >= 2 and roll < 0.06:
        unit = Var(rng.choice(names))
        return Or(unit, Neg(unit))
    if max_depth >= 2 and roll < 0.12:
        unit = Var(rng.choice(names))
        return And(unit, Neg(unit))
    if roll < 0.40:
        return Neg(random_formula(rng, names, max_depth - 1))
    left = random_formula(rng, names, max_depth - 1)
    right = random_formula(rng, names, max_depth - 1)
    return And(left, right) if roll < 0.70 else Or(left, right)


def random_inference(
    rng: random.Random, names=CORPUS_ATOMS, max_depth: int = 3, max_premises: int = 3
) -> Inference:
    count = rng.randint(0, max_premises)
    premises = [random_formula(rng, names, max_depth) for _ in range(count)]
    return Inference(premises, random_formula(rng, names, max_depth))


def exhaustive_corpus() -> list[Inference]:
    """Every inference over p, q with depth <= 1 and at most two premises."""
    pool = enumerate_formulas(["p", "q"], 1)
    return [
        Inference(premises, conclusion)
        for premises in iter_subsets(pool, 2)
        for conclusion in pool
    ]


def _family(ss: Scheme, tt: Scheme, st: Scheme) -> LatticeFamily:
    return LatticeFamily(LogicSpec(ss, SS), LogicSpec(tt, TT), LogicSpec(st, ST))


@dataclass(frozen=True)
class UniverseRun:
    """One micro-universe under one scheme family, and the claims that
    check it; ``label`` names the family in failure lines."""

    label: str
    family: LatticeFamily
    universe: Universe
    claims: frozenset[str]


class VerificationContext:
    """Shared corpora, universes and scheme families for one verification run."""

    def __init__(self, config: VerifyConfig):
        self.config = config
        rng = random.Random(config.seed)
        self.corpus_a = exhaustive_corpus()
        self.corpus_b = [random_inference(rng) for _ in range(config.corpus_size)]
        self.reduced = self.corpus_b[: config.reduced_size]
        self.schemes = enumerate_bnm_schemes()
        strong, weak, middle = preset("strong"), preset("weak"), preset("middle")
        self.pair_schemes = self.schemes if config.all_pairs else [strong, weak, middle]
        self.strong_family = _family(strong, strong, strong)
        self.weak_family = _family(weak, weak, weak)
        # Two different "mixed" assignments: strong ss with weak tt (prop2,
        # theorem5, lemma1), and weak ss with strong tt (the two lattices).
        self.mixed_family = _family(strong, weak, middle)
        self.lattice_mixed_family = _family(weak, strong, middle)

        micro1 = Universe.build(["p", "q"], 1, 2, reserve=["r"])
        micro2 = Universe.build(["p"], 2, 2, reserve=["q"])
        dual = frozenset({"theorem5", "prop2"})
        first = dual | {"theorem4", "prop3", "non-reflexivity", "star-lattice"}
        self.universe_runs = (
            UniverseRun("strong", self.strong_family, micro1, first),
            UniverseRun("weak", self.weak_family, micro1, dual),
            UniverseRun("mixed", self.mixed_family, micro1, dual),
            UniverseRun("strong", self.strong_family, micro2, dual | {"star-lattice"}),
            UniverseRun("weak", self.weak_family, micro2, dual),
            UniverseRun("mixed", self.mixed_family, micro2, dual),
            UniverseRun("mixed", self.lattice_mixed_family, micro1, frozenset({"star-lattice"})),
        )
        self.law_universes = (micro1, Universe.build(["p"], 1, 2, reserve=["q"]))

    def rng_for(self, claim: str) -> random.Random:
        """A fresh stream per claim, so ``--only`` selections reproduce the
        same draws as a full run."""
        return random.Random(f"{self.config.seed}:{claim}")

    def runs(self, claim: str) -> tuple[UniverseRun, ...]:
        """The universe runs that name ``claim``, in table order."""
        return tuple(run for run in self.universe_runs if claim in run.claims)


# --- claims ----------------------------------------------------------------

def _bruteforce_bnm_tables() -> tuple[set, set, set]:
    """Filter every raw table by Boolean normality and monotonicity.

    Returns the surviving (negation, conjunction, disjunction) tables; the
    scheme count is the product of the three sizes.
    """
    unary = set()
    for table in itertools.product(VALUES, repeat=3):
        if table[F] is T and table[T] is F:
            if all(
                info_leq(table[a], table[b])
                for a in VALUES
                for b in VALUES
                if info_leq(a, b)
            ):
                unary.add(table)

    def monotone_binary(table: dict) -> bool:
        for a1 in VALUES:
            for a2 in VALUES:
                for b1 in VALUES:
                    for b2 in VALUES:
                        if info_leq(a1, b1) and info_leq(a2, b2):
                            if not info_leq(table[(a1, a2)], table[(b1, b2)]):
                                return False
        return True

    conj, disj = set(), set()
    for flat in itertools.product(VALUES, repeat=9):
        table = {
            (a, b): flat[3 * a + b] for a in VALUES for b in VALUES
        }
        if not monotone_binary(table):
            continue
        if (
            table[(T, T)] is T
            and table[(T, F)] is F
            and table[(F, T)] is F
            and table[(F, F)] is F
        ):
            conj.add(flat)
        if (
            table[(T, T)] is T
            and table[(T, F)] is T
            and table[(F, T)] is T
            and table[(F, F)] is F
        ):
            disj.add(flat)
    return unary, conj, disj


def claim_scheme_enumeration(ctx: VerificationContext) -> Report:
    report = Report("scheme-enumeration")
    schemes = ctx.schemes
    report.record("count-16", len(schemes) == 16, f"got {len(schemes)}")
    report.record("pairwise-distinct", len(set(schemes)) == 16, "")
    report.record(
        "predicates-hold",
        all(is_boolean_normal(s) and is_monotonic(s) for s in schemes),
        "",
    )

    unary, conj, disj = _bruteforce_bnm_tables()
    report.record(
        "bruteforce-product",
        len(unary) * len(conj) * len(disj) == 16,
        f"{len(unary)} x {len(conj)} x {len(disj)}",
    )
    tables = {(s.neg_table, s.conj_table, s.disj_table) for s in schemes}
    oracle_tables = {
        (n, c, d) for n in unary for c in conj for d in disj
    }
    report.record("bruteforce-same-tables", tables == oracle_tables, "")

    scheme_set = set(schemes)
    for name in ("strong", "weak", "middle"):
        report.record(f"preset-{name}-enumerated", preset(name) in scheme_set, "")

    all_i = Valuation.of({"p": I, "q": I})
    middle_forced = all(
        eval_formula(s, all_i, f) is I
        for s in schemes
        for f in (Neg(Var("p")), And(Var("p"), Var("q")), Or(Var("p"), Var("q")))
    )
    report.record("middle-value-forced", middle_forced, "all-i arguments give i")

    classical_points = [(a, b) for a in (F, T) for b in (F, T)]
    restrictions = {
        (
            tuple(s.neg(a) for a in (F, T)),
            tuple(s.conj(a, b) for a, b in classical_points),
            tuple(s.disj(a, b) for a, b in classical_points),
        )
        for s in schemes
    }
    report.record("two-valued-restrictions-coincide", len(restrictions) == 1, "")
    return report


def claim_theorem1(ctx: VerificationContext) -> Report:
    report = Report("theorem1")
    schemes = ctx.schemes
    corpus = [*ctx.corpus_a, *ctx.corpus_b]
    pool, rows = pool_rows(corpus)
    (st_masks,) = verdict_masks(schemes, pool, rows, CORPUS_ATOMS, (ST,))
    every = (1 << len(schemes)) - 1
    mismatches = 0
    for r, (inf, mask, classical) in enumerate(
        zip(corpus, st_masks, classical_verdicts(pool, rows, CORPUS_ATOMS))
    ):
        wrong = mask ^ (every if classical else 0)
        if not wrong:
            continue
        corpus_name = "exhaustive" if r < len(ctx.corpus_a) else "random"
        for s, scheme in enumerate(schemes):
            if wrong >> s & 1:
                mismatches += 1
                report.record("st-equals-classical", False, f"{scheme} on {corpus_name}: {inf}")
    total = len(schemes) * len(corpus)
    report.record("st-equals-classical", mismatches == 0, f"{total} comparisons")
    report.notes["comparisons"] = total
    return report


def _all_middle_satisfied(
    schemes: Sequence[Scheme], pool: Sequence[Formula], rows: Sequence[Row]
) -> list[int]:
    """Per row, the mask of schemes under which the all-``i`` valuation
    satisfies the row's inference at ts, from ``eval_formula`` run once per
    distinct formula and scheme."""
    all_i = Valuation.of({name: I for name in CORPUS_ATOMS})
    tolerates = [TS.premise.accepts(value) for value in VALUES]
    meets = [TS.conclusion.accepts(value) for value in VALUES]
    tolerated = [0] * len(pool)
    strict = [0] * len(pool)
    for s, scheme in enumerate(schemes):
        for j, f in enumerate(pool):
            value = eval_formula(scheme, all_i, f)
            tolerated[j] |= tolerates[value] << s
            strict[j] |= meets[value] << s
    every = (1 << len(schemes)) - 1
    return [every & ~premise_mask(tolerated, premises) | strict[c] for premises, c in rows]


def claim_theorem2(ctx: VerificationContext) -> Report:
    report = Report("theorem2")
    schemes = ctx.schemes
    corpus = [*ctx.corpus_a, *ctx.corpus_b]
    pool, rows = pool_rows(corpus)
    (ts_masks,) = verdict_masks(schemes, pool, rows, CORPUS_ATOMS, (TS,))
    bad = [
        valid | satisfied
        for valid, satisfied in zip(ts_masks, _all_middle_satisfied(schemes, pool, rows))
    ]
    failures = 0
    for part in (range(len(ctx.corpus_a)), range(len(ctx.corpus_a), len(corpus))):
        flagged = [r for r in part if bad[r]]
        for s, scheme in enumerate(schemes):
            for r in flagged:
                if bad[r] >> s & 1:
                    failures += 1
                    report.record("ts-invalid-with-all-i-witness", False, f"{scheme}: {corpus[r]}")
    total = len(schemes) * len(corpus)
    report.record("ts-invalid-with-all-i-witness", failures == 0, f"{total} inferences")
    report.notes["inferences"] = total
    return report


def claim_theorem3(ctx: VerificationContext) -> Report:
    report = Report("theorem3")
    pair_count = len(ctx.pair_schemes) ** 2
    # Each union-gap fact reads one side's scheme only: decide the facts once
    # per scheme, and give a pair its ss scheme's ss side and tt scheme's tt side.
    facts = [union_gap_facts(LogicSpec(s, SS), LogicSpec(s, TT)) for s in ctx.pair_schemes]
    for ss_scheme, ss_facts in zip(ctx.pair_schemes, facts):
        for tt_scheme, tt_facts in zip(ctx.pair_schemes, facts):
            for ss_fact, tt_fact in zip(ss_facts, tt_facts):
                _, check, ok, detail = tt_fact if ss_fact[0] == "tt" else ss_fact
                if not ok:
                    report.record("union-gap", False, f"{ss_scheme}/{tt_scheme}: {check}: {detail}")
    report.record("union-gap-all-pairs", report.passed, f"{pair_count} scheme pairs")

    # A classical inference separates every pair of an ss scheme and a tt
    # scheme that both reject it; unseparated[i] holds the tt schemes not
    # yet separated from ss scheme i.
    schemes = ctx.pair_schemes
    pool, rows = pool_rows(ctx.corpus_b)
    classical = classical_verdicts(pool, rows, CORPUS_ATOMS)
    separators = [inf for inf, valid in zip(ctx.corpus_b, classical) if valid]
    pool, rows = pool_rows(separators)
    ss_masks, tt_masks = verdict_masks(schemes, pool, rows, CORPUS_ATOMS, (SS, TT))
    every = (1 << len(schemes)) - 1
    unseparated = [every] * len(schemes)
    for ss_mask, tt_mask in zip(ss_masks, tt_masks):
        if not any(unseparated):
            break
        for i in range(len(schemes)):
            if not ss_mask >> i & 1:
                unseparated[i] &= tt_mask
    missing_pairs = [
        f"{ss}/{tt}"
        for i, ss in enumerate(schemes)
        for j, tt in enumerate(schemes)
        if unseparated[i] >> j & 1
    ]
    report.record(
        "corpus-separator-per-pair",
        not missing_pairs,
        f"{len(missing_pairs)} of {pair_count} pairs lack a separator "
        f"(first: {missing_pairs[0]})" if missing_pairs else "",
    )
    report.notes["scheme pairs"] = pair_count
    return report


def _decided_witnesses(
    inferences: Sequence[Inference], schemes: Sequence[Scheme]
) -> list[tuple[DerivationWitness, int, int]]:
    """Per classically valid inference, its witness as ``derive_classical``
    builds it under ``schemes[0]``, and the masks of the schemes under which
    all its tt steps, and its ss step, hold: every step decided in one pool."""
    built = [witness_steps(inf) for inf in inferences]
    pool, rows = pool_rows(step for _, tt_steps, ss_step in built for step in (*tt_steps, ss_step))
    tt_masks, ss_masks = verdict_masks(schemes, pool, rows, CORPUS_ATOMS, (TT, SS))
    logics = LogicSpec(schemes[0], TT), LogicSpec(schemes[0], SS)
    every = (1 << len(schemes)) - 1
    out, end = [], 0
    for delta, tt_steps, ss_step in built:
        start, end = end, end + len(tt_steps) + 1
        tt, ss = tt_masks[start:end - 1], ss_masks[end - 1]
        checks = tuple((step, bool(mask & 1)) for step, mask in zip(tt_steps, tt))
        witness = DerivationWitness(delta, checks, (ss_step, bool(ss & 1)), *logics)
        out.append((witness, functools.reduce(operator.and_, tt, every), ss))
    return out


def claim_theorem4(ctx: VerificationContext) -> Report:
    report = Report("theorem4")
    pool, rows = pool_rows(ctx.corpus_b)
    classical = classical_verdicts(pool, rows, CORPUS_ATOMS)

    reduced_valid = [inf for inf, valid in zip(ctx.reduced, classical) if valid]
    report.notes["reduced classically valid"] = len(reduced_valid)
    pair_count = len(ctx.pair_schemes) ** 2
    pair_failures = 0
    # The witness's steps do not depend on the schemes: build and replay it
    # once, and decide every witness's steps under each scheme as one pool.
    schemes = ctx.pair_schemes
    every = (1 << len(schemes)) - 1
    for inf, (witness, tt_ok, ss_ok) in zip(
        reduced_valid, _decided_witnesses(reduced_valid, schemes)
    ):
        if not replay_witness(inf, witness):
            tt_ok = ss_ok = 0
        if tt_ok == ss_ok == every:
            continue
        for (i, tt_scheme), (j, ss_scheme) in itertools.product(enumerate(schemes), repeat=2):
            if not (tt_ok >> i & 1 and ss_ok >> j & 1):
                pair_failures += 1
                report.record("two-step-derivation", False, f"tt={tt_scheme} ss={ss_scheme}: {inf}")
    report.record(
        "two-step-derivation-all-pairs",
        pair_failures == 0,
        f"{pair_count} scheme pairs x {len(reduced_valid)} inferences",
    )

    strong = ctx.strong_family
    full_valid = [inf for inf, valid in zip(ctx.corpus_b, classical) if valid]
    decided = iter(_decided_witnesses(full_valid, (strong.ss.scheme,)))
    full_failures = 0
    for inf, valid in zip(ctx.corpus_b, classical):
        if not valid:
            if derive_classical(inf, strong.tt, strong.ss) is not None:
                full_failures += 1
                report.record("derivation-rejects-invalid", False, str(inf))
            continue
        witness, _, _ = next(decided)
        if not witness.all_passed or not replay_witness(inf, witness):
            full_failures += 1
            report.record("two-step-derivation-full", False, str(inf))
    report.record(
        "two-step-derivation-full-corpus", full_failures == 0, f"{len(full_valid)} valid inferences"
    )

    for run in ctx.runs("theorem4"):
        u, family = run.universe, run.family
        union = valid_subset(family.ss, u) | valid_subset(family.tt, u)
        closed = transitive_closure(union, u)
        st_members = valid_subset(family.st, u)
        report.record(
            "closure-of-union-inside-st",
            closed <= st_members,
            f"|T(union)|={len(closed)} |st members|={len(st_members)}",
        )
        report.notes["micro-universe union"] = len(union)
        report.notes["micro-universe closure"] = len(closed)
        report.notes["micro-universe st members"] = len(st_members)
    return report


def claim_theorem5(ctx: VerificationContext) -> Report:
    report = Report("theorem5")
    for run in ctx.runs("theorem5"):
        result = check_ts_collapse(run.family.ss, run.family.tt, run.universe)
        report.checks += result.checks
        report.failures.extend(result.failures)
    return report


def claim_prop2(ctx: VerificationContext) -> Report:
    report = Report("prop2")
    for run in ctx.runs("prop2"):
        for member in FamilyMember:
            result = check_td_equals_star(run.family.logics(member), run.universe)
            report.checks += result.checks
            for finding in result.failures:
                report.record("td-equals-star", False, f"{run.label}: {finding}")
    return report


def claim_operator_laws(ctx: VerificationContext) -> Report:
    rng = ctx.rng_for("operator-laws")
    samples = []
    for u in ctx.law_universes:
        population = universe_inferences(u)
        for _ in range(ctx.config.law_samples):
            size = rng.randint(0, min(40, len(population)))
            samples.append((rng.sample(population, size), u))
    return check_operator_laws(samples)


def claim_prop3(ctx: VerificationContext) -> Report:
    report = Report("prop3")
    for run in ctx.runs("prop3"):
        u = run.universe
        l1 = valid_subset(run.family.ss, u)
        l2 = valid_subset(run.family.tt, u)
        report.record("ss-tarskian-closed", tarskian_closure(l1, u) == l1, f"|ss members|={len(l1)}")
        report.record("tt-tarskian-closed", tarskian_closure(l2, u) == l2, f"|tt members|={len(l2)}")
        union = l1 | l2
        report.record(
            "tarskian-union-is-cut-closure",
            tarskian_closure(union, u) == transitive_closure(union, u),
            f"|union|={len(union)}",
        )
    return report


def _require_pool(claim: str, pool: list[Formula], least: int) -> None:
    """Raise before a claim draws from a formula pool too small for it."""
    if len(pool) < least:
        raise ValueError(f"{claim} needs at least {least} pool formulas, found {len(pool)} in the corpus")


def claim_lemma1(ctx: VerificationContext) -> Report:
    """Sampled reflexivity, monotonicity, cut and substitution instances."""
    report = Report("lemma1")
    rng = ctx.rng_for("lemma1")
    strong, mixed = ctx.strong_family, ctx.mixed_family
    logic_sets = {
        "ss": strong.logics(FamilyMember.SS),
        "tt": strong.logics(FamilyMember.TT),
        "ss&tt": mixed.logics(FamilyMember.MEET),
        "st": mixed.logics(FamilyMember.ST),
    }
    pool = [
        f for inf in ctx.corpus_b[:400] for f in (*inf.sorted_premises(), inf.conclusion)
    ]
    _require_pool("lemma1", pool, 8)

    def member(logics, inf):
        return all(is_valid(logic, inf) for logic in logics)

    cut_instances = 0
    for name, logics in logic_sets.items():
        for _ in range(ctx.config.lemma_samples):
            f = rng.choice(pool)
            report.record("reflexivity", member(logics, Inference((f,), f)), f"{name}: {f}")

            inf = rng.choice(ctx.corpus_b)
            if not member(logics, inf):
                continue
            widened = Inference(inf.premises | {rng.choice(pool)}, inf.conclusion)
            report.record("monotonicity", member(logics, widened), f"{name}: {widened}")

            if inf.premises:
                extra = rng.choice(pool)
                gamma = inf.premises | {extra}
                if all(member(logics, Inference(gamma, d)) for d in inf.premises):
                    cut_instances += 1
                    report.record(
                        "cut",
                        member(logics, Inference(gamma, inf.conclusion)),
                        f"{name}: {inf} widened by {extra}",
                    )

            sigma = {
                atom_name: random_formula(rng, CORPUS_ATOMS, 1)
                for atom_name in sorted(atoms(inf))
            }
            report.record(
                "structurality",
                member(logics, substitute_inference(inf, sigma)),
                f"{name}: image of {inf}",
            )

    chained = 0
    for inf in ctx.corpus_b[:2000]:
        if not inf.premises or not is_valid(strong.ss, inf):
            continue
        mid = inf.conclusion
        for f in rng.sample(pool, 8):
            step = Inference((mid,), f)
            if is_valid(strong.ss, step):
                chained += 1
                report.record(
                    "cut-chained",
                    is_valid(strong.ss, Inference(inf.premises, f)),
                    f"{inf} ; {step}",
                )
                break
        if chained >= 50:
            break
    report.record(
        "cut-nonvacuous", cut_instances > 0 and chained > 0, f"{cut_instances}+{chained} instances"
    )
    return report


def claim_facts_45(ctx: VerificationContext) -> Report:
    """Antitheorem and theorem equivalences through a fresh variable."""
    report = Report("facts4-5")
    rng = ctx.rng_for("facts4-5")
    fresh = Var("s")
    pool = [
        f for inf in ctx.corpus_b[:200] for f in (*inf.sorted_premises(), inf.conclusion)
    ]
    _require_pool("facts4-5", pool, 3)
    for scheme in ctx.schemes:
        for standard in (SS, TT):
            logic = LogicSpec(scheme, standard)
            for _ in range(ctx.config.equivalence_samples):
                gamma = frozenset(rng.sample(pool, rng.randint(1, 3)))
                antith = is_antitheorem(logic, gamma)
                via_fresh = is_valid(logic, Inference(gamma, fresh))
                report.record(
                    "antitheorem-iff-fresh-conclusion",
                    antith == via_fresh,
                    f"{logic}: {sorted(map(str, gamma))}",
                )
                if antith:
                    psi = rng.choice(pool)
                    report.record(
                        "antitheorem-implies-everything",
                        is_valid(logic, Inference(gamma, psi)),
                        f"{logic}: {sorted(map(str, gamma))} => {psi}",
                    )

                phi = rng.choice(pool)
                theorem = is_theorem(logic, phi)
                from_fresh = is_valid(logic, Inference((fresh,), phi))
                report.record(
                    "theorem-iff-fresh-premise",
                    theorem == from_fresh,
                    f"{logic}: {phi}",
                )
                if theorem:
                    gamma2 = frozenset(rng.sample(pool, rng.randint(0, 3)))
                    report.record(
                        "theorem-follows-from-anything",
                        is_valid(logic, Inference(gamma2, phi)),
                        f"{logic}: {phi}",
                    )
    return report


def claim_non_reflexivity(ctx: VerificationContext) -> Report:
    report = Report("non-reflexivity")
    p = Var("p")
    reflexive = Inference((p,), p)
    for run in ctx.runs("non-reflexivity"):
        for member in FamilyMember:
            base = valid_subset(run.family.logics(member), run.universe)
            report.record(f"{member}-contains-p=>p", reflexive in base, "")
            closed = dual_transitive_closure(base, run.universe)
            report.record(
                f"{member}-dual-closure-drops-p=>p", reflexive not in closed, f"|closed|={len(closed)}"
            )
    return report


def claim_lattice(ctx: VerificationContext) -> Report:
    report = Report("lattice")
    for label, family in (("strong", ctx.strong_family), ("mixed", ctx.lattice_mixed_family)):
        result = verify_lattices(family, ctx.corpus_b)
        report.checks += result.checks
        for finding in result.failures:
            report.record("lattice-identities", False, f"{label}: {finding}")
    report.record("lattice-identities-both-families", report.passed, f"{len(ctx.corpus_b)} inferences")
    return report


def claim_star_lattice(ctx: VerificationContext) -> Report:
    report = Report("star-lattice")
    for run in ctx.runs("star-lattice"):
        result = check_star_lattice(run.family, run.universe)
        report.checks += result.checks
        for finding in result.failures:
            report.record("star-lattice", False, f"{run.label}/{run.universe.describe()}: {finding}")
    report.record("star-lattice-all-runs", report.passed, "")
    return report


CLAIMS = {
    "scheme-enumeration": claim_scheme_enumeration,
    "theorem1": claim_theorem1,
    "theorem2": claim_theorem2,
    "theorem3": claim_theorem3,
    "theorem4": claim_theorem4,
    "theorem5": claim_theorem5,
    "prop2": claim_prop2,
    "operator-laws": claim_operator_laws,
    "prop3": claim_prop3,
    "lemma1": claim_lemma1,
    "facts4-5": claim_facts_45,
    "non-reflexivity": claim_non_reflexivity,
    "lattice": claim_lattice,
    "star-lattice": claim_star_lattice,
}

CLAIM_ALIASES = {"prop1": "operator-laws", "fact3": "theorem3"}


@dataclass
class ClaimResult:
    claim: str
    report: Report
    runtime_ms: float

    def to_dict(self, include_runtime: bool = True) -> dict:
        out = {
            "claim": self.claim,
            "status": "pass" if self.report.passed else "fail",
            "instances": self.report.checks,
        }
        if self.report.failures:
            out["counterexample"] = str(self.report.failures[0])
            out["failure_count"] = len(self.report.failures)
        if self.report.notes:
            out["notes"] = {k: v for k, v in sorted(self.report.notes.items())}
        if include_runtime:
            out["runtime_ms"] = round(self.runtime_ms, 1)
        return out


def resolve_claims(only: list[str] | None) -> list[str]:
    if not only:
        return list(CLAIMS)
    resolved = []
    for name in only:
        canonical = CLAIM_ALIASES.get(name, name)
        if canonical not in CLAIMS:
            raise ValueError(
                f"unknown claim {name!r}; available: {', '.join(CLAIMS)}"
            )
        resolved.append(canonical)
    return resolved


def run_verification(
    config: VerifyConfig, only: list[str] | None = None
) -> list[ClaimResult]:
    names = resolve_claims(only)
    ctx = VerificationContext(config)
    results = []
    for name in names:
        start = time.perf_counter()
        report = CLAIMS[name](ctx)
        elapsed = (time.perf_counter() - start) * 1000.0
        results.append(ClaimResult(name, report, elapsed))
    return results

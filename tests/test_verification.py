import dataclasses
import itertools
import json

import pytest

from trivalent import characterize, semantics, verification
from trivalent.characterize import check_union_gap, derive_classical, replay_witness
from trivalent.scheme import F, I, T, Scheme, preset
from trivalent.semantics import (
    SS,
    ST,
    TS,
    TT,
    LogicSpec,
    Valuation,
    is_classically_valid,
    is_valid,
    satisfies_inference,
)
from trivalent.verification import (
    CLAIMS,
    CORPUS_ATOMS,
    VerificationContext,
    VerifyConfig,
    exhaustive_corpus,
    random_inference,
    resolve_claims,
    run_verification,
)


SMALL = VerifyConfig(
    corpus_size=120,
    reduced_size=20,
    law_samples=4,
    lemma_samples=10,
    equivalence_samples=5,
    all_pairs=False,
)


def test_exhaustive_corpus_size():
    corpus = exhaustive_corpus()
    assert len(corpus) == 948
    assert len(set(corpus)) == 948


def test_corpus_is_seed_deterministic():
    a = VerificationContext(VerifyConfig(seed=5, corpus_size=50)).corpus_b
    b = VerificationContext(VerifyConfig(seed=5, corpus_size=50)).corpus_b
    c = VerificationContext(VerifyConfig(seed=6, corpus_size=50)).corpus_b
    assert a == b
    assert a != c


def test_claim_draws_do_not_depend_on_selection():
    """A claim sampled alone must see the same draws as in a full run."""
    alone = CLAIMS["lemma1"](VerificationContext(SMALL))
    ctx = VerificationContext(SMALL)
    CLAIMS["operator-laws"](ctx)
    CLAIMS["facts4-5"](ctx)
    after_others = CLAIMS["lemma1"](ctx)
    assert alone.checks == after_others.checks
    assert [str(f) for f in alone.failures] == [str(f) for f in after_others.failures]


def test_resolve_claims():
    assert resolve_claims(None) == list(CLAIMS)
    assert resolve_claims(["prop1"]) == ["operator-laws"]
    assert resolve_claims(["theorem5", "prop2"]) == ["theorem5", "prop2"]


def test_run_verification_subset_passes():
    results = run_verification(SMALL, ["scheme-enumeration", "non-reflexivity", "prop3"])
    assert [r.claim for r in results] == ["scheme-enumeration", "non-reflexivity", "prop3"]
    assert all(r.report.passed for r in results)
    payload = [r.to_dict(include_runtime=False) for r in results]
    assert json.dumps(payload)  # serializable
    assert all("runtime_ms" not in entry for entry in payload)


def test_random_inference_respects_bounds(rng):
    from trivalent.formula import atoms, depth

    for _ in range(200):
        inf = random_inference(rng)
        assert len(inf.premises) <= 3
        assert atoms(inf) <= {"p", "q", "r"}
        assert depth(inf.conclusion) <= 3
        assert all(depth(g) <= 3 for g in inf.premises)


def test_theorem3_separator_search_matches_per_pair_search():
    """At seed 15 the first 1,340 inferences separate weak/strong but not
    strong/weak, and five pairs in all, so the first pair left is neither
    the first pair nor its mirror image."""
    ctx = VerificationContext(VerifyConfig(seed=15, corpus_size=1340, all_pairs=False))
    missing = [
        f"{ss}/{tt}"
        for ss, tt in itertools.product(ctx.pair_schemes, repeat=2)
        if next(
            (
                inf
                for inf in ctx.corpus_b
                if is_classically_valid(inf)
                and not is_valid(LogicSpec(ss, SS), inf)
                and not is_valid(LogicSpec(tt, TT), inf)
            ),
            None,
        )
        is None
    ]
    assert len(missing) == 4 and missing[0] == "strong/weak"
    report = CLAIMS["theorem3"](ctx)
    assert [str(f) for f in report.failures] == [
        f"corpus-separator-per-pair: 4 of 9 pairs lack a separator (first: {missing[0]})"
    ]


@pytest.mark.parametrize(
    "delta",
    [lambda inf: inf.premises, lambda inf: inf.premises | {inf.conclusion}],
    ids=["ss-step-fails", "tt-step-fails"],
)
def test_theorem4_pair_failures_match_per_pair_derivations(monkeypatch, delta):
    """A weakened witness fails under some schemes: without the
    excluded-middle disjuncts the ss step can fail, and with the conclusion
    in the intermediate set the tt steps can.  The factored claim must name
    the same (pair, inference) failures as one derivation per pair."""
    monkeypatch.setattr(characterize, "delta_witness", delta)
    ctx = VerificationContext(dataclasses.replace(SMALL, reduced_size=120))
    expected = []
    for tt, ss in itertools.product(ctx.pair_schemes, repeat=2):
        for inf in ctx.reduced:
            witness = derive_classical(inf, LogicSpec(tt, TT), LogicSpec(ss, SS))
            if witness is not None and not (witness.all_passed and replay_witness(inf, witness)):
                expected.append(f"two-step-derivation: tt={tt} ss={ss}: {inf}")
    assert expected
    report = CLAIMS["theorem4"](ctx)
    pair_failures = [str(f) for f in report.failures if f.check == "two-step-derivation"]
    assert sorted(pair_failures) == sorted(expected)


def test_theorem4_fails_every_pair_when_the_replay_fails(monkeypatch):
    monkeypatch.setattr(verification, "replay_witness", lambda inf, witness: False)
    report = CLAIMS["theorem4"](VerificationContext(SMALL))
    pair_failures = [f for f in report.failures if f.check == "two-step-derivation"]
    assert len(pair_failures) == 9 * report.notes["reduced classically valid"] > 0


def _context_with(*schemes):
    """A small context whose schemes, and scheme pairs, the claims stack,
    in this order."""
    ctx = VerificationContext(SMALL)
    ctx.schemes = ctx.pair_schemes = schemes
    return ctx


def test_theorem1_compares_every_scheme():
    """A negation sending 1 to 1 is not Boolean normal and breaks st =
    classical; the break must be reported under that scheme, not under the
    first one of the stack."""
    strong = preset("strong")
    broken = Scheme((T, I, T), strong.conj_table, strong.disj_table)
    ctx = _context_with(strong, broken)
    expected = [
        f"st-equals-classical: {scheme} on {name}: {inf}"
        for name, corpus in (("exhaustive", ctx.corpus_a), ("random", ctx.corpus_b))
        for inf in corpus
        for scheme in ctx.schemes
        if is_valid(LogicSpec(scheme, ST, allow_non_bnm=True), inf) != is_classically_valid(inf)
    ]
    assert expected and all(": scheme on " in line for line in expected)
    report = CLAIMS["theorem1"](ctx)
    assert [str(f) for f in report.failures[:-1]] == expected
    assert report.notes["comparisons"] == 2 * (len(ctx.corpus_a) + len(ctx.corpus_b))


def test_theorem2_reads_the_all_middle_witness_per_scheme():
    """A negation sending i to 0 drops ``~p`` below the tolerant standard at
    the all-i valuation, which then satisfies every inference with such a
    premise; each one must be reported, as the per-scheme route finds it."""
    strong = preset("strong")
    broken = Scheme((T, F, F), strong.conj_table, strong.disj_table)
    ctx = _context_with(strong, broken)
    all_i = Valuation.of({name: I for name in CORPUS_ATOMS})
    expected = [
        f"ts-invalid-with-all-i-witness: {scheme}: {inf}"
        for corpus in (ctx.corpus_a, ctx.corpus_b)
        for scheme in ctx.schemes
        for inf in corpus
        if is_valid(LogicSpec(scheme, TS, allow_non_bnm=True), inf)
        or satisfies_inference(scheme, all_i, inf, TS)
    ]
    assert any(
        satisfies_inference(broken, all_i, inf, TS)
        and not is_valid(LogicSpec(broken, TS, allow_non_bnm=True), inf)
        for inf in ctx.corpus_a
    )
    report = CLAIMS["theorem2"](ctx)
    assert [str(f) for f in report.failures[:-1]] == expected


def test_theorem3_takes_each_side_of_a_pair_from_its_own_scheme(monkeypatch):
    """A negation sending i to 0 breaks the tt-side union-gap facts, one
    sending i to 1 the ss-side ones.  theorem3 decides the facts once per
    scheme; each pair must still report what ``check_union_gap`` reports
    for it, in its record order."""
    monkeypatch.setattr(semantics, "is_bnm", lambda scheme: True)
    strong = preset("strong")
    tt_broken = Scheme((T, F, F), strong.conj_table, strong.disj_table, "tt-broken")
    ss_broken = Scheme((T, T, F), strong.conj_table, strong.disj_table, "ss-broken")
    ctx = _context_with(strong, tt_broken, ss_broken)
    expected = [
        f"union-gap: {ss}/{tt}: {finding}"
        for ss, tt in itertools.product(ctx.pair_schemes, repeat=2)
        for finding in check_union_gap(LogicSpec(ss, SS), LogicSpec(tt, TT)).failures
    ]
    mixed = [line for line in expected if line.startswith(f"union-gap: {ss_broken}/{tt_broken}:")]
    assert [line.split(": ")[2] for line in mixed] == [
        "witness-ss-invalid", "witness-tt-invalid", "ss-countervaluation",
        "tt-countervaluation", "explosion-tt-invalid", "excluded-middle-ss-invalid",
    ]
    report = CLAIMS["theorem3"](ctx)
    assert [str(f) for f in report.failures if f.check == "union-gap"] == expected


def test_universe_runs_name_only_registered_claims():
    ctx = VerificationContext(SMALL)
    named = set().union(*(run.claims for run in ctx.universe_runs))
    assert named <= set(CLAIMS)
    counts = {claim: len(ctx.runs(claim)) for claim in named}
    assert counts == {
        "theorem4": 1, "prop3": 1, "non-reflexivity": 1,
        "prop2": 6, "theorem5": 6, "star-lattice": 3,
    }


def test_the_two_mixed_families_keep_their_schemes():
    """prop2 and theorem5 mix strong ss with weak tt, the star lattice weak
    ss with strong tt; both print as "mixed"."""
    ctx = VerificationContext(SMALL)
    expected = {
        "prop2": ("strong", "weak", "middle"),
        "theorem5": ("strong", "weak", "middle"),
        "star-lattice": ("weak", "strong", "middle"),
    }
    for claim, schemes in expected.items():
        mixed = {
            tuple(str(logic.scheme) for logic in (run.family.ss, run.family.tt, run.family.st))
            for run in ctx.runs(claim)
            if run.label == "mixed"
        }
        assert mixed == {schemes}


def test_universe_claims_read_their_universes_from_the_table():
    """prop2 runs four cases per run; with the table cut to the first
    universe it checks half of its 24."""
    ctx = VerificationContext(SMALL)
    first = ctx.universe_runs[0].universe
    ctx.universe_runs = tuple(run for run in ctx.universe_runs if run.universe is first)
    report = CLAIMS["prop2"](ctx)
    assert report.passed and report.checks == 12

"""Correctness checks for the benchmark's outputs.

Each check compares what a timed operation returned against a computation
made apart from the code path that was timed: single-point evaluation
(``eval_formula``, ``satisfies_inference``), the two-valued evaluator
(``is_classically_valid``), an enumeration of the universe written here, a
cut-closedness test written here, and the program's direct greatest-fixpoint
dual closure.  The functions are bound at import, before a traced run wraps
anything, and none of them is a function the trace wraps.

Every check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import itertools
import json

from trivalent.closure import dual_transitive_closure_direct
from trivalent.formula import Inference, atoms
from trivalent.scheme import TruthValue, scheme_from_id
from trivalent.semantics import (
    SS,
    ST,
    TS,
    TT,
    Valuation,
    eval_formula,
    is_classically_valid,
    satisfies_inference,
)

STANDARDS = {"ss": SS, "tt": TT, "st": ST, "ts": TS}
SCHEMES = {f"bnm-{code:#06b}": scheme_from_id(code) for code in range(16)}
VALUE_ORDER = (TruthValue.F, TruthValue.I, TruthValue.T)

VERIFY_CLAIMS = (
    "scheme-enumeration", "theorem1", "theorem2", "theorem3", "theorem4",
    "theorem5", "prop2", "operator-laws", "prop3", "lemma1", "facts4-5",
    "non-reflexivity", "lattice", "star-lattice",
)


# --- decide --------------------------------------------------------------

def _valuation(mapping: dict[str, str]) -> Valuation:
    return Valuation.of({name: TruthValue.from_symbol(v) for name, v in mapping.items()})


def _first_countervaluations(inf: Inference, scheme) -> dict[str, dict | None]:
    """Brute force: evaluate every formula at every valuation, in canonical
    order, and keep the first falsifying valuation per standard."""
    names = sorted(atoms(inf))
    first: dict[str, dict | None] = {std: None for std in STANDARDS}
    for values in itertools.product(VALUE_ORDER, repeat=len(names)):
        valuation = Valuation(tuple(zip(names, values)))
        premise_values = [eval_formula(scheme, valuation, g) for g in inf.premises]
        conclusion = eval_formula(scheme, valuation, inf.conclusion)
        for name, std in STANDARDS.items():
            if first[name] is not None:
                continue
            if all(std.premise.accepts(v) for v in premise_values) and not std.conclusion.accepts(conclusion):
                first[name] = {n: v.symbol for n, v in zip(names, values)}
        if all(first.values()):
            break
    return first


def check_decide(inf: Inference, exit_code: int, stdout: str, brute_force: bool) -> list[str]:
    """Check one ``check --scheme all --standard ss,tt,st,ts`` answer."""
    try:
        results = json.loads(stdout)["results"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc}"]
    problems = []
    seen = {(e.get("scheme"), e.get("standard")): e for e in results}
    if len(results) != 64 or set(seen) != {(s, t) for s in SCHEMES for t in STANDARDS}:
        return [f"expected one verdict per scheme and standard, got {len(results)}"]
    classical = is_classically_valid(inf)
    all_middle = Valuation.of({name: TruthValue.I for name in atoms(inf)})
    for scheme_name, scheme in SCHEMES.items():
        verdict = {t: seen[(scheme_name, t)]["valid"] for t in STANDARDS}
        where = f"{scheme_name} on {inf}"
        for t, std in STANDARDS.items():
            entry = seen[(scheme_name, t)]
            counter = entry.get("countervaluation")
            if verdict[t] != (counter is None):
                problems.append(f"{where}/{t}: verdict and countervaluation disagree")
            elif counter is not None:
                if set(counter) != atoms(inf):
                    problems.append(f"{where}/{t}: countervaluation over the wrong atoms")
                elif satisfies_inference(scheme, _valuation(counter), inf, std):
                    problems.append(f"{where}/{t}: countervaluation {counter} satisfies it")
        if verdict["st"] != classical:
            problems.append(f"{where}: st verdict {verdict['st']} but classical {classical}")
        if verdict["ts"] or satisfies_inference(scheme, all_middle, inf, TS):
            problems.append(f"{where}: ts is never valid and all-i falsifies every inference")
        if (verdict["ss"] or verdict["tt"]) and not verdict["st"]:
            problems.append(f"{where}: ss or tt valid but st invalid")
        if brute_force:
            expected = _first_countervaluations(inf, scheme)
            for t in STANDARDS:
                if seen[(scheme_name, t)].get("countervaluation") != expected[t]:
                    problems.append(f"{where}/{t}: enumeration gives {expected[t]}")
    want = 0 if all(e["valid"] for e in results) else 1
    if exit_code != want:
        problems.append(f"exit code {exit_code}, verdicts call for {want}")
    return problems


def check_deep(exit_code: int, stdout: str) -> list[str]:
    """A deep request that got an answer: ~^2k p => p behaves as p => p."""
    try:
        results = json.loads(stdout)["results"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc}"]
    problems = []
    if len(results) != 64:
        problems.append(f"expected 64 verdicts, got {len(results)}")
    for entry in results:
        ts = entry["standard"] == "ts"
        if entry["valid"] == ts or (ts and entry.get("countervaluation") != {"p": "i"}):
            problems.append(f"{entry['scheme']}/{entry['standard']}: wrong verdict on ~^2k p => p")
    if exit_code != 1:
        problems.append(f"exit code {exit_code}, verdicts call for 1")
    return problems


# --- universe ------------------------------------------------------------

def enumerate_universe(u) -> set[Inference]:
    """Every inference of the universe, enumerated here."""
    return {
        Inference(premises, conclusion)
        for size in range(u.premise_cap + 1)
        for premises in itertools.combinations(u.formulas, size)
        for conclusion in u.formulas
    }


def is_cut_closed(members) -> bool:
    """Closed under cut: Delta => phi and Gamma => delta for every delta in a
    nonempty Delta give Gamma => phi."""
    derives: dict = {}
    for inf in members:
        derives.setdefault(inf.premises, set()).add(inf.conclusion)
    deltas = [d for d in derives if d]
    return all(
        derives[delta] <= derivable
        for derivable in derives.values()
        for delta in deltas
        if delta <= derivable
    )


class UniverseOracle:
    """Checks for closure jobs.  The classically valid inferences of a
    universe do not depend on the schemes, so they are computed once per
    shape."""

    def __init__(self, smallest_shape: str):
        self.smallest = smallest_shape
        self._classical: dict[str, frozenset] = {}

    def classical(self, shape: str, u) -> frozenset:
        if shape not in self._classical:
            self._classical[shape] = frozenset(
                inf for inf in enumerate_universe(u) if is_classically_valid(inf)
            )
        return self._classical[shape]

    def check(self, shape: str, u, sets: dict[str, frozenset]) -> list[str]:
        reserve = u.reserve_atoms

        def free(xs):
            return {inf for inf in xs if not atoms(inf) & reserve}

        problems = []
        if free(sets["td_ss"]) != free(sets["star_ss"]):
            problems.append("reserve-free td(ss) differs from reserve-free star(ss) (Prop. 2)")
        if free(sets["td_meet"]):
            problems.append("reserve-free td(ss & tt) is not empty (Thm. 5)")
        classical = self.classical(shape, u)
        if not sets["t_union"] <= classical:
            problems.append("T(ss | tt) holds a classically invalid inference")
        if sets["st"] != classical:
            problems.append("valid(st) differs from the classically valid inferences")
        if not (sets["ss"] | sets["tt"]) <= sets["t_union"]:
            problems.append("T(ss | tt) is not extensive")
        if not is_cut_closed(sets["t_union"]):
            problems.append("T(ss | tt) is not closed under cut")
        if not (sets["td_ss"] <= sets["ss"] and sets["td_meet"] <= sets["meet"]):
            problems.append("td is not contractive")
        if shape == self.smallest:
            for base, closed in (("ss", "td_ss"), ("meet", "td_meet")):
                if sets[closed] != dual_transitive_closure_direct(sets[base], u):
                    problems.append(f"td({base}) differs from the direct fixpoint")
        return problems


# --- verify --------------------------------------------------------------

def check_verify(exit_code: int, stdout: str) -> list[str]:
    try:
        payload = json.loads(stdout)
        claims = {c["claim"]: c["status"] for c in payload["claims"]}
        failures = payload["failures"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc}"]
    problems = [f"claim {name} missing" for name in VERIFY_CLAIMS if name not in claims]
    problems += [f"claim {name}: {status}" for name, status in claims.items() if status != "pass"]
    if failures != 0:
        problems.append(f"{failures} failures reported")
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    return problems

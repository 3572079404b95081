"""Each benchmark check must pass a true answer and reject a corrupted one.

    python3 -m pytest bench/test_oracles.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracles  # noqa: E402
import workloads  # noqa: E402
from trivalent.formula import atoms, parse_inference  # noqa: E402


def _decide(text: str) -> tuple[int, dict]:
    outcome = workloads.run_cli([*workloads.CHECK_ARGS, text])
    assert not outcome.failed
    return outcome.exit_code, json.loads(outcome.value)


def _entry(payload: dict, scheme: str, standard: str) -> dict:
    return next(
        e for e in payload["results"] if e["scheme"] == scheme and e["standard"] == standard
    )


def test_decide_accepts_true_answers():
    rng = random.Random(7)
    for atom_count in (1, 3, 5):
        inf = workloads.random_inference(rng, atom_count)
        code, payload = _decide(workloads.inference_text(inf))
        assert oracles.check_decide(inf, code, json.dumps(payload), brute_force=True) == []


def test_decide_rejects_flipped_verdicts():
    text = "p | (q & ~q) => p & (r | ~r)"
    inf = parse_inference(text)
    code, payload = _decide(text)
    # st (classical) is valid here, ss is not: flipping either is a wrong answer.
    st = _entry(payload, "bnm-0b1111", "st")
    st["valid"], st["countervaluation"] = False, {"p": "1", "q": "0", "r": "0"}
    assert oracles.check_decide(inf, code, json.dumps(payload), brute_force=False)

    code, payload = _decide(text)
    ss = _entry(payload, "bnm-0b1111", "ss")
    assert not ss["valid"]
    ss["valid"] = True
    del ss["countervaluation"]
    assert oracles.check_decide(inf, code, json.dumps(payload), brute_force=True)


def test_decide_rejects_a_satisfying_countervaluation():
    text = "p, q => p & ~q"
    code, payload = _decide(text)
    entry = _entry(payload, "bnm-0b0000", "tt")
    assert entry["countervaluation"] == {"p": "1", "q": "1"}
    entry["countervaluation"] = {"p": "0", "q": "0"}
    assert oracles.check_decide(parse_inference(text), code, json.dumps(payload), False)


def test_decide_rejects_a_wrong_exit_code():
    text = "p => p"
    code, payload = _decide(text)
    assert oracles.check_decide(parse_inference(text), 0, json.dumps(payload), False)


def test_deep_request_answers_are_checked():
    code, payload = _decide("~~p => p")
    assert oracles.check_deep(code, json.dumps(payload)) == []
    _entry(payload, "bnm-0b1010", "tt")["valid"] = False
    assert oracles.check_deep(code, json.dumps(payload))


def _job(shape: workloads.Shape, ss_code: int = 15, tt_code: int = 0):
    return workloads.run_job(workloads.job_text(shape, ss_code, tt_code)).value


def test_universe_accepts_true_sets_and_rejects_dropped_inferences():
    shape = workloads.SHAPES[0]
    oracle = oracles.UniverseOracle(shape.name)
    result = _job(shape)
    assert oracle.check(shape.name, result.universe, result.sets) == []

    reserve = result.universe.reserve_atoms
    for closed in ("t_union", "td_ss"):
        sets = dict(result.sets)
        dropped = next(
            inf for inf in sorted(sets[closed], key=str)
            if not atoms(inf) & reserve
        )
        sets[closed] = sets[closed] - {dropped}
        assert oracle.check(shape.name, result.universe, sets), closed


def test_universe_rejects_a_derived_inference_dropped_from_t():
    shape = next(s for s in workloads.SHAPES if s.name == "pqr-d1-c1")
    oracle = oracles.UniverseOracle(workloads.SHAPES[0].name)
    result = _job(shape, 0, 0)
    sets = dict(result.sets)
    derived = sorted(sets["t_union"] - (sets["ss"] | sets["tt"]), key=str)
    assert derived, "T(ss | tt) adds inferences on this shape"
    sets["t_union"] = sets["t_union"] - {derived[0]}
    assert any("cut" in p for p in oracle.check(shape.name, result.universe, sets))


def test_universe_rejects_a_survivor_of_the_meet_collapse():
    shape = workloads.SHAPES[0]
    oracle = oracles.UniverseOracle(shape.name)
    result = _job(shape)
    sets = dict(result.sets)
    survivor = next(inf for inf in sorted(sets["meet"], key=str)
                    if not atoms(inf) & result.universe.reserve_atoms)
    sets["td_meet"] = sets["td_meet"] | {survivor}
    assert oracle.check(shape.name, result.universe, sets)


def _verify_payload() -> dict:
    return {
        "claims": [{"claim": name, "status": "pass"} for name in oracles.VERIFY_CLAIMS],
        "failures": 0,
    }


def test_verify_rejects_a_failed_or_missing_claim():
    assert oracles.check_verify(0, json.dumps(_verify_payload())) == []

    payload = _verify_payload()
    payload["claims"][4]["status"] = "fail"
    assert oracles.check_verify(0, json.dumps(payload))

    payload = _verify_payload()
    del payload["claims"][0]
    assert oracles.check_verify(0, json.dumps(payload))

    payload = _verify_payload()
    payload["failures"] = 1
    assert oracles.check_verify(0, json.dumps(payload))
    assert oracles.check_verify(1, json.dumps(_verify_payload()))


def test_benchmark_json_lists_every_per_layer_metric():
    import tracing

    listed = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in listed["per_layer"]] == list(tracing.PER_LAYER)

"""Acceptance suite: every headline criterion at its stated scale.

Each test prints one PASS/FAIL line.  The shared context uses the default
configuration (seed 42, 10,000-inference random corpus, 500-inference
reduced corpus, 100 operator-law samples per universe, all 256 scheme
pairs), identical to a bare ``trivalent verify`` run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trivalent.verification import (
    CLAIMS,
    VerificationContext,
    VerifyConfig,
)

SRC = Path(__file__).resolve().parent.parent / "src"
# The accepted `verify --seed 42 --format json --no-timestamp` output.  A change
# that moves a count on purpose updates this file and says so in CHANGES.md.
GOLDEN = Path(__file__).resolve().parent / "verify_seed42.json"


@pytest.fixture(scope="session")
def ctx():
    return VerificationContext(VerifyConfig())


def conclude(number: int, name: str, report) -> None:
    status = "PASS" if report.passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({report.checks} checks)")
    assert report.passed, (name, report.failures[:5])


def test_criterion_01_scheme_enumeration(ctx):
    report = CLAIMS["scheme-enumeration"](ctx)
    assert report.checks >= 10
    conclude(1, "scheme-enumeration", report)


def test_criterion_02_st_equals_classical(ctx):
    assert len(ctx.corpus_a) == 948
    assert len(ctx.corpus_b) == 10_000
    assert len(ctx.schemes) == 16
    report = CLAIMS["theorem1"](ctx)
    assert report.notes["comparisons"] == (948 + 10_000) * 16
    conclude(2, "st-equals-classical", report)


def test_criterion_03_ts_empty(ctx):
    report = CLAIMS["theorem2"](ctx)
    assert report.notes["inferences"] == (948 + 10_000) * 16
    conclude(3, "ts-empty-with-all-middle-witness", report)


def test_criterion_04_union_gap(ctx):
    report = CLAIMS["theorem3"](ctx)
    assert report.notes["scheme pairs"] == 256
    conclude(4, "union-gap-and-separators", report)


def test_criterion_05_union_closure_reaches_classical(ctx):
    report = CLAIMS["theorem4"](ctx)
    assert report.notes["reduced classically valid"] > 0
    conclude(5, "two-step-derivations-and-closure", report)


def test_criterion_06_intersection_collapse_and_star(ctx):
    report_a = CLAIMS["theorem5"](ctx)
    conclude(6, "intersection-dual-closure-empty", report_a)
    report_b = CLAIMS["prop2"](ctx)
    assert report_b.checks == 24  # 4 logics x 3 scheme assignments x 2 universes
    conclude(6, "dual-closure-equals-star-set", report_b)


def test_criterion_07_operator_laws(ctx):
    assert ctx.config.law_samples == 100
    report = CLAIMS["operator-laws"](ctx)
    conclude(7, "closure-and-interior-laws", report)


def test_criterion_08_lattices(ctx):
    report_a = CLAIMS["lattice"](ctx)
    conclude(8, "validity-lattice", report_a)
    report_b = CLAIMS["star-lattice"](ctx)
    conclude(8, "star-lattice", report_b)


def test_criterion_09_tarskian(ctx):
    report_a = CLAIMS["prop3"](ctx)
    conclude(9, "tarskian-closure-via-cut", report_a)
    report_b = CLAIMS["lemma1"](ctx)
    conclude(9, "tarskian-properties-sampled", report_b)


def _run_verify(hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "trivalent.cli",
            "verify",
            "--seed",
            "42",
            "--format",
            "json",
            "--no-timestamp",
        ],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc.stdout


def test_criterion_10_determinism():
    first = _run_verify("0")
    second = _run_verify("271828")
    golden = GOLDEN.read_text(encoding="utf-8")
    ok = first == second == golden
    payload = json.loads(first)
    print(f"ACCEPTANCE 10 determinism: {'PASS' if ok else 'FAIL'} "
          f"({payload['failures']} failures reported)")
    assert first == second, "verify --seed 42 JSON output differs between runs"
    assert payload["failures"] == 0
    assert first == golden, f"verify --seed 42 JSON output differs from {GOLDEN.name}"

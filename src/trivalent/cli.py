"""Command-line front end.

Commands: ``check`` (validity verdicts), ``derive`` (two-step derivation
witnesses), ``schemes`` (list or validate truth tables), ``closure``
(closures of inference-set files relative to a universe), ``verify`` (the
full verification suite).  Every command takes ``--format text|json``;
exit codes are a function of the report content only.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from .closure import (
    Universe,
    dual_transitive_closure,
    tarskian_closure,
    transitive_closure,
)
from .characterize import derive_classical, replay_witness
from .errors import ParseError, TrivalentError
from .formula import Inference, parse_inference
from .scheme import (
    _PRESET_CODES,
    Scheme,
    TruthValue,
    enumerate_bnm_schemes,
    is_boolean_normal,
    monotonicity_violations,
    scheme_from_text,
    scheme_id,
    schemes_from_selector,
)
from .semantics import (
    DEFAULT_ATOM_CAP,
    LogicSpec,
    SS,
    TT,
    Valuation,
    countervaluations,
    parse_standard,
    satisfies_inference,
)
from .verification import VerifyConfig, resolve_claims, run_verification

USAGE_ERROR = 2


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=False))


def _parse_valuation(text: str) -> Valuation:
    assignment = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, value = part.partition("=")
        if not value:
            raise ValueError(f"bad valuation entry {part!r}; expected atom=value")
        assignment[name.strip()] = TruthValue.from_symbol(value)
    return Valuation.of(assignment)


def _scheme_name(scheme: Scheme) -> str:
    if scheme.name:
        return scheme.name
    try:
        return f"id:{scheme_id(scheme):#06b}"
    except ValueError:
        return "custom"


def cmd_check(args) -> int:
    inf = parse_inference(args.inference)
    schemes = schemes_from_selector(args.scheme, args.allow_non_bnm)
    standards = [parse_standard(part) for part in args.standard.split(",") if part.strip()]
    if not standards:
        raise ValueError("empty standard selector")
    valuation = _parse_valuation(args.valuation) if args.valuation else None

    if valuation is None:
        counters = countervaluations(schemes, standards, inf, args.atom_cap)
    results = []
    all_valid = True
    for s, scheme in enumerate(schemes):
        for j, standard in enumerate(standards):
            entry: dict = {
                "scheme": _scheme_name(scheme),
                "standard": standard.name,
            }
            if valuation is not None:
                satisfied = satisfies_inference(scheme, valuation, inf, standard)
                entry["valuation"] = {k: v.symbol for k, v in valuation.items}
                entry["satisfied"] = satisfied
                all_valid &= satisfied
            else:
                counter = counters[s][j]
                valid = counter is None
                entry["valid"] = valid
                if not valid:
                    entry["countervaluation"] = {
                        k: v.symbol for k, v in counter.items
                    }
                all_valid &= valid
            results.append(entry)

    if args.format == "json":
        _print_json({"inference": str(inf), "results": results})
    else:
        print(str(inf))
        for entry in results:
            if "satisfied" in entry:
                verdict = "satisfied" if entry["satisfied"] else "falsified"
                print(f"  {entry['scheme']}/{entry['standard']}: {verdict} at given valuation")
            elif entry["valid"]:
                print(f"  {entry['scheme']}/{entry['standard']}: valid")
            else:
                cv = ", ".join(f"{k}={v}" for k, v in entry["countervaluation"].items())
                print(f"  {entry['scheme']}/{entry['standard']}: invalid  [{cv}]")
    return 0 if all_valid else 1


def _single_scheme(selector: str, option: str) -> Scheme:
    schemes = schemes_from_selector(selector)
    if len(schemes) != 1:
        raise ValueError(f"{option} must name exactly one scheme, not {len(schemes)}")
    return schemes[0]


def cmd_derive(args) -> int:
    inf = parse_inference(args.inference)
    tt_logic = LogicSpec(_single_scheme(args.tt_scheme, "--tt-scheme"), TT)
    ss_logic = LogicSpec(_single_scheme(args.ss_scheme, "--ss-scheme"), SS)
    witness = derive_classical(inf, tt_logic, ss_logic, args.atom_cap)
    if witness is None:
        if args.format == "json":
            _print_json({"inference": str(inf), "classical": False, "witness": None})
        else:
            print(f"{inf}: not classically valid, no derivation exists")
        return 1

    replayed = replay_witness(inf, witness)
    payload = {
        "inference": str(inf),
        "classical": True,
        "delta": [str(d) for d in sorted(witness.delta, key=str)],
        "tt_scheme": _scheme_name(tt_logic.scheme),
        "ss_scheme": _scheme_name(ss_logic.scheme),
        "tt_steps": [
            {"inference": str(step), "valid": ok} for step, ok in witness.tt_checks
        ],
        "ss_step": {"inference": str(witness.ss_check[0]), "valid": witness.ss_check[1]},
        "all_passed": witness.all_passed,
        "closure_replay": replayed,
    }
    if args.format == "json":
        _print_json(payload)
    else:
        print(f"inference: {inf}")
        print(f"delta: {', '.join(payload['delta'])}")
        print(f"tt steps ({payload['tt_scheme']}):")
        for step in payload["tt_steps"]:
            print(f"  {step['inference']}  [{'valid' if step['valid'] else 'INVALID'}]")
        ss = payload["ss_step"]
        print(f"ss step ({payload['ss_scheme']}):")
        print(f"  {ss['inference']}  [{'valid' if ss['valid'] else 'INVALID'}]")
        print(f"closure replay recovers inference: {replayed}")
        print(f"verdict: {'witness found' if witness.all_passed else 'witness FAILED'}")
    return 0 if witness.all_passed and replayed else 1


def cmd_schemes(args) -> int:
    if args.check:
        text = Path(args.check).read_text(encoding="utf-8")
        try:
            scheme = scheme_from_text(text, allow_non_bnm=args.allow_non_bnm)
        except ValueError as exc:
            if args.format == "json":
                _print_json({"accepted": False, "reason": str(exc)})
            else:
                print(f"rejected: {exc}", file=sys.stderr)
            return 1
        payload = {
            "accepted": True,
            "boolean_normal": is_boolean_normal(scheme),
            "monotonic": not monotonicity_violations(scheme),
        }
        if args.format == "json":
            _print_json(payload)
        else:
            print(
                f"accepted: boolean normal={payload['boolean_normal']} "
                f"monotonic={payload['monotonic']}"
            )
        return 0

    names = {code: name for name, code in _PRESET_CODES.items()} if args.named else {}
    rows = []
    for scheme in enumerate_bnm_schemes():
        code = scheme_id(scheme)
        row = {
            "id": f"{code:#06b}",
            "free_cells": {
                "and(0,i)": scheme.conj(TruthValue.F, TruthValue.I).symbol,
                "and(i,0)": scheme.conj(TruthValue.I, TruthValue.F).symbol,
                "or(1,i)": scheme.disj(TruthValue.T, TruthValue.I).symbol,
                "or(i,1)": scheme.disj(TruthValue.I, TruthValue.T).symbol,
            },
        }
        if code in names:
            row["name"] = names[code]
        if args.format == "json":
            row["tables"] = {
                "neg": [v.symbol for v in scheme.neg_table],
                "and": [v.symbol for v in scheme.conj_table],
                "or": [v.symbol for v in scheme.disj_table],
            }
        rows.append(row)

    if args.format == "json":
        _print_json({"schemes": rows})
    else:
        print("# all middle-value cells other than the four below are forced")
        for row in rows:
            cells = " ".join(f"{k}={v}" for k, v in row["free_cells"].items())
            mark = f"  <- {row['name']}" if "name" in row else ""
            print(f"{row['id']}  {cells}{mark}")
    return 0


def _read_inference_lines(text: str) -> tuple[dict, list[Inference]]:
    """Parse an inference-set file: optional universe header, one inference
    per line, ``#`` comments."""
    header: dict = {}
    inferences = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("atoms="):
            for part in line.split(";"):
                key, _, value = part.strip().partition("=")
                header[key.strip()] = value.strip()
            continue
        try:
            inferences.append(parse_inference(line))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}", exc.position) from None
    return header, inferences


def cmd_closure(args) -> int:
    text = Path(args.file).read_text(encoding="utf-8") if args.file else sys.stdin.read()
    header, base = _read_inference_lines(text)

    atom_names = (args.atoms or header.get("atoms", "p,q")).replace(" ", "")
    depth_value = int(args.depth if args.depth is not None else header.get("depth", 1))
    cap = int(args.cap if args.cap is not None else header.get("cap", 2))
    reserve_text = args.reserve if args.reserve is not None else header.get("reserve", "r")
    reserve = [part for part in reserve_text.replace(" ", "").split(",") if part]
    universe = Universe.build(
        [part for part in atom_names.split(",") if part], depth_value, cap, reserve
    )

    operation = {
        "t": transitive_closure,
        "td": dual_transitive_closure,
        "tar": tarskian_closure,
    }[args.mode]
    result = operation(base, universe)
    ordered = sorted(result, key=lambda inf: (len(inf.premises), str(inf)))
    universe_desc = (
        f"atoms={atom_names}; depth={depth_value}; cap={cap}; "
        f"reserve={','.join(reserve) or '-'}"
    )
    if args.format == "json":
        _print_json(
            {
                "mode": args.mode,
                "relative": True,
                "universe": universe_desc,
                "base_size": len(base),
                "closure_size": len(result),
                "inferences": [str(inf) for inf in ordered],
            }
        )
    else:
        print(f"# mode={args.mode}; relative to universe {universe_desc}")
        print(f"# base size={len(base)}; closure size={len(result)}")
        for inf in ordered:
            print(inf)
    return 0


def cmd_verify(args) -> int:
    config = VerifyConfig(
        seed=args.seed,
        corpus_size=args.samples,
        reduced_size=args.reduced,
        law_samples=args.law_samples,
        lemma_samples=args.lemma_samples,
        equivalence_samples=args.equivalence_samples,
        all_pairs=(args.schemes == "all-pairs"),
    )
    only = [part.strip() for part in args.only.split(",") if part.strip()] if args.only else None
    names = resolve_claims(only)
    results = run_verification(config, names)
    failures = sum(len(r.report.failures) for r in results)

    if args.format == "json":
        payload: dict = {
            "seed": config.seed,
            "config": {
                "corpus_size": config.corpus_size,
                "reduced_size": config.reduced_size,
                "law_samples": config.law_samples,
                "lemma_samples": config.lemma_samples,
                "equivalence_samples": config.equivalence_samples,
                "scheme_pairs": "all" if config.all_pairs else "named",
            },
            "claims": [r.to_dict(include_runtime=not args.no_timestamp) for r in results],
            "failures": failures,
        }
        if not args.no_timestamp:
            payload["timestamp"] = datetime.now(timezone.utc).isoformat()
        _print_json(payload)
    else:
        for r in results:
            status = "pass" if r.report.passed else "FAIL"
            print(f"{r.claim:<20} {status:<5} {r.report.checks:>6} checks  {r.runtime_ms:8.0f} ms")
            for finding in r.report.failures[:5]:
                print(f"    {finding}")
        print(f"{'TOTAL':<20} {'pass' if failures == 0 else 'FAIL'}  ({failures} failures)")
    return 0 if failures == 0 else 1


def _apply_config_file(argv: list[str]) -> list[str]:
    """Expand ``--config FILE`` into leading defaults: flags given on the
    command line still win because later occurrences override."""
    if "--config" not in argv:
        return argv
    position = argv.index("--config")
    try:
        path = argv[position + 1]
    except IndexError:
        raise ValueError("--config requires a file path") from None
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError("--config file must hold a JSON object")
    expanded = []
    for key, value in data.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                expanded.append(flag)
        else:
            expanded.extend([flag, str(value)])
    remaining = argv[:position] + argv[position + 2:]
    return remaining[:1] + expanded + remaining[1:]


def _attach_dash_standards(argv: list[str]) -> list[str]:
    """Rewrite ``--standard -:1`` as ``--standard=-:1``.  A standard with no
    premise values starts with ``-``, and argparse reads any such word as an
    option, not as the value of the one before it."""
    out: list[str] = []
    for word in argv:
        if out and out[-1] == "--standard" and word.startswith("-") and not word.startswith("--"):
            out[-1] = f"--standard={word}"
        else:
            out.append(word)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trivalent",
        description="Three-valued consequence relations and their closures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--config", help=argparse.SUPPRESS)

    p_check = sub.add_parser("check", help="decide validity of one inference")
    p_check.add_argument("inference", help="inference text, e.g. 'p & ~p => r'")
    p_check.add_argument("--scheme", default="strong", help="preset | id:<code> | file, comma-separated")
    p_check.add_argument("--standard", default="st", help="ss|tt|st|ts or <premise>:<conclusion>, comma-separated")
    p_check.add_argument("--valuation", help="evaluate at one valuation, e.g. p=1,q=i")
    p_check.add_argument("--allow-non-bnm", action="store_true")
    p_check.add_argument("--atom-cap", type=int, default=DEFAULT_ATOM_CAP)
    add_common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_derive = sub.add_parser("derive", help="two-step derivation of a classical inference")
    p_derive.add_argument("inference")
    p_derive.add_argument("--tt-scheme", default="strong")
    p_derive.add_argument("--ss-scheme", default="strong")
    p_derive.add_argument("--atom-cap", type=int, default=DEFAULT_ATOM_CAP)
    add_common(p_derive)
    p_derive.set_defaults(func=cmd_derive)

    p_schemes = sub.add_parser("schemes", help="list the 16 BNM schemes or validate a table file")
    p_schemes.add_argument("--named", action="store_true", help="mark strong/weak/middle")
    p_schemes.add_argument("--check", metavar="FILE", help="validate a scheme file")
    p_schemes.add_argument("--allow-non-bnm", action="store_true")
    add_common(p_schemes)
    p_schemes.set_defaults(func=cmd_schemes)

    p_closure = sub.add_parser("closure", help="closure of an inference-set file")
    p_closure.add_argument("file", nargs="?", help="inference set file (default stdin)")
    p_closure.add_argument("--mode", choices=("t", "td", "tar"), default="t")
    p_closure.add_argument("--atoms", help="universe atoms, e.g. p,q")
    p_closure.add_argument("--depth", type=int, help="formula depth bound")
    p_closure.add_argument("--cap", type=int, help="premise-size cap")
    p_closure.add_argument("--reserve", help="reserve atoms, e.g. r (empty string for none)")
    add_common(p_closure)
    p_closure.set_defaults(func=cmd_closure)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--samples", type=int, default=10_000, help="random corpus size")
    p_verify.add_argument("--reduced", type=int, default=500, help="reduced corpus for scheme-pair runs")
    p_verify.add_argument("--law-samples", type=int, default=100)
    p_verify.add_argument("--lemma-samples", type=int, default=200)
    p_verify.add_argument("--equivalence-samples", type=int, default=60)
    p_verify.add_argument("--only", help="comma-separated claim names")
    p_verify.add_argument("--schemes", choices=("all-pairs", "named"), default="all-pairs")
    p_verify.add_argument("--no-timestamp", action="store_true",
                          help="omit timestamp and timing fields for reproducible output")
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser, built on first use; parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _attach_dash_standards(_apply_config_file(argv))
        args = _shared_parser().parse_args(argv)
        return args.func(args)
    except (TrivalentError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RecursionError:
        print("error: formula nesting too deep", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

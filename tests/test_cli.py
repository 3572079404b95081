import json

import pytest

from trivalent.cli import main
from trivalent.scheme import preset, scheme_to_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def test_check_exit_codes(capsys):
    code, out, _ = run(capsys, "check", "--scheme", "strong", "--standard", "st",
                       "p | (q & ~q) => p & (r | ~r)")
    assert code == 0 and "valid" in out

    code, out, _ = run(capsys, "check", "--scheme", "strong", "--standard", "ss",
                       "p | (q & ~q) => p & (r | ~r)")
    assert code == 1 and "invalid" in out

    code, out, _ = run(capsys, "check", "--scheme", "strong", "--standard", "ts", "p => p")
    assert code == 1

    code, _, err = run(capsys, "check", "p &")
    assert code == 2 and "error" in err

    code, _, err = run(capsys, "check", "--scheme", "nosuch", "p => p")
    assert code == 2


def test_check_multiple_pairs(capsys):
    code, payload, _ = run_json(
        capsys, "check", "--scheme", "strong,weak", "--standard", "ss,tt", "p & ~p => r"
    )
    assert code == 1
    assert len(payload["results"]) == 4
    by_key = {(r["scheme"], r["standard"]): r for r in payload["results"]}
    assert by_key[("strong", "ss")]["valid"]
    assert not by_key[("strong", "tt")]["valid"]


def test_check_countervaluation_round_trip(capsys):
    code, payload, _ = run_json(
        capsys, "check", "--scheme", "strong", "--standard", "ss",
        "p | (q & ~q) => p & (r | ~r)",
    )
    assert code == 1
    counter = payload["results"][0]["countervaluation"]
    valuation_text = ",".join(f"{k}={v}" for k, v in counter.items())
    code, replay, _ = run_json(
        capsys, "check", "--scheme", "strong", "--standard", "ss",
        "--valuation", valuation_text, "p | (q & ~q) => p & (r | ~r)",
    )
    assert code == 1
    assert replay["results"][0]["satisfied"] is False


def test_check_custom_standard(capsys):
    code, _, _ = run(capsys, "check", "--scheme", "strong", "--standard", "1:1i", "p => p")
    assert code == 0


def test_derive(capsys):
    code, payload, _ = run_json(
        capsys, "derive", "--tt-scheme", "weak", "--ss-scheme", "strong",
        "p | (q & ~q) => p & (r | ~r)",
    )
    assert code == 0
    assert payload["all_passed"] and payload["closure_replay"]
    assert "p | ~p" in payload["delta"]

    code, payload, _ = run_json(capsys, "derive", "p => q")
    assert code == 1 and payload["witness"] is None


def test_schemes_listing(capsys):
    code, out, _ = run(capsys, "schemes")
    rows = [line for line in out.splitlines() if line.startswith("0b")]
    assert code == 0 and len(rows) == 16

    code, out, _ = run(capsys, "schemes", "--named")
    assert "strong" in out and "weak" in out and "middle" in out

    code, payload, _ = run_json(capsys, "schemes")
    assert len(payload["schemes"]) == 16
    assert all("tables" in row for row in payload["schemes"])


def test_schemes_check_file(capsys, tmp_path):
    good = tmp_path / "strong.scheme"
    good.write_text(scheme_to_text(preset("strong")), encoding="utf-8")
    code, out, _ = run(capsys, "schemes", "--check", str(good))
    assert code == 0 and "accepted" in out

    bad = tmp_path / "bad.scheme"
    bad.write_text(
        scheme_to_text(preset("strong")).replace("and(i,1) = i", "and(i,1) = 1"),
        encoding="utf-8",
    )
    code, _, err = run(capsys, "schemes", "--check", str(bad))
    assert code == 1 and "monotonic" in err and "and(" in err

    code, out, _ = run(capsys, "schemes", "--check", str(bad), "--allow-non-bnm")
    assert code == 0 and "monotonic=False" in out


def test_closure_transitive(capsys, tmp_path):
    source = tmp_path / "base.inf"
    source.write_text("# demo\np => q\nq => r\n", encoding="utf-8")
    code, out, _ = run(capsys, "closure", str(source), "--mode", "t")
    assert code == 0
    assert "p => r" in out
    assert "relative" in out


def test_closure_dual_drops_reflexivity(capsys, tmp_path):
    source = tmp_path / "refl.inf"
    source.write_text("p => p\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "closure", str(source), "--mode", "td",
        "--atoms", "p", "--depth", "0", "--reserve", "q",
    )
    assert code == 0
    assert "closure size=0" in out


def test_closure_tarskian(capsys, tmp_path):
    source = tmp_path / "empty.inf"
    source.write_text("", encoding="utf-8")
    code, out, _ = run(
        capsys, "closure", str(source), "--mode", "tar",
        "--atoms", "p", "--depth", "1", "--cap", "2", "--reserve", "",
    )
    assert code == 0
    assert "p => p" in out
    assert "p, ~p => p" in out


def test_check_all_schemes(capsys):
    code, payload, _ = run_json(capsys, "check", "--scheme", "all", "--standard", "st",
                                "p & q => p")
    assert code == 0
    assert len(payload["results"]) == 16


def test_check_splits_more_schemes_than_one_stack_holds(capsys):
    """``all,all`` names 32 schemes, more than the 28 one stacked pass
    holds; every verdict and countervaluation is the one ``all`` gives."""
    inference = "p | (q & ~q) => p & (r | ~r)"
    check = ("check", "--standard", "ss,tt,st,ts", inference)
    code, once, _ = run_json(capsys, *check, "--scheme", "all")
    assert code == 1 and any("countervaluation" in entry for entry in once["results"])
    assert run_json(capsys, *check, "--scheme", "all,all") == (1, {
        "inference": once["inference"], "results": once["results"] * 2,
    }, "")
    code, once, _ = run(capsys, *check, "--scheme", "all", "--format", "text")
    header, *lines = once.splitlines()
    assert run(capsys, *check, "--scheme", "all,all", "--format", "text") == (
        code, "\n".join([header, *lines, *lines]) + "\n", ""
    )
    wide = "=> " + " | ".join(f"x{i}" for i in range(13))
    code, out, err = run(capsys, "check", "--scheme", "all,all", wide)
    assert code == 2 and out == "" and "above the cap of 12" in err


def test_check_custom_scheme_needs_the_flag(capsys, tmp_path):
    """A non-monotonic scheme from a file is refused without
    ``--allow-non-bnm`` and decided in its own block with it."""
    bad = tmp_path / "bad.scheme"
    bad.write_text(
        scheme_to_text(preset("strong")).replace("and(i,1) = i", "and(i,1) = 1"),
        encoding="utf-8",
    )
    code, out, err = run(capsys, "check", "--scheme", str(bad), "p => p")
    assert code == 2 and out == "" and "not monotonic" in err
    code, out, err = run(
        capsys, "check", "--scheme", f"{bad},strong", "--standard", "ss,tt,st,ts",
        "--allow-non-bnm", "q & p => p & ~q",
    )
    assert (code, err) == (1, "")
    assert out == (
        "q & p => p & ~q\n"
        "  strong/ss: invalid  [p=1, q=i]\n"
        "  strong/tt: invalid  [p=i, q=1]\n"
        "  strong/st: invalid  [p=1, q=1]\n"
        "  strong/ts: invalid  [p=i, q=i]\n"
        "  strong/ss: invalid  [p=1, q=1]\n"
        "  strong/tt: invalid  [p=i, q=1]\n"
        "  strong/st: invalid  [p=1, q=1]\n"
        "  strong/ts: invalid  [p=i, q=i]\n"
    )


def test_check_at_a_valuation_decides_nothing_else(capsys):
    """``--valuation`` evaluates at that valuation only, under every named
    scheme, and a valuation missing an atom is a usage error."""
    code, payload, _ = run_json(
        capsys, "check", "--scheme", "all,all", "--standard", "ss,ts",
        "--valuation", "p=i,q=i", "p => q",
    )
    assert code == 1 and len(payload["results"]) == 64
    assert [entry["satisfied"] for entry in payload["results"][:2]] == [True, False]
    assert all(entry["valuation"] == {"p": "i", "q": "i"} for entry in payload["results"])
    code, out, err = run(capsys, "check", "--valuation", "p=1", "p => q")
    assert code == 2 and out == "" and err.startswith("error:")


def test_repeated_calls_in_one_process(capsys):
    check = ("check", "--scheme", "all", "--standard", "ss,tt,st,ts", "p & q => ~r | p")
    first = run(capsys, *check)
    named = run(capsys, "schemes", "--named")
    assert named[0] == 0 and "<- strong" in named[1]
    assert run(capsys, *check) == first
    assert run(capsys, "schemes", "--named") == named


def test_check_deep_nesting_is_a_usage_error(capsys):
    code, _, err = run(capsys, "check", "~" * 2000 + "p => p")
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_check_decides_a_deep_negation_chain(capsys):
    text = "~" * 600 + "p => p"
    code, payload, _ = run_json(
        capsys, "check", "--scheme", "all", "--standard", "ss,tt,st,ts", text
    )
    assert code == 1
    assert payload["inference"] == text
    assert len(payload["results"]) == 64
    for result in payload["results"]:
        assert result["valid"] == (result["standard"] != "ts")
        if not result["valid"]:
            assert result["countervaluation"] == {"p": "i"}


def test_closure_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("p => q\nq => r\n"))
    code, out, _ = run(capsys, "closure", "--mode", "t")
    assert code == 0 and "p => r" in out


def test_closure_reads_header(capsys, tmp_path):
    source = tmp_path / "with_header.inf"
    source.write_text(
        "atoms=p; depth=0; cap=1; reserve=q\np => p\n", encoding="utf-8"
    )
    code, payload, _ = run_json(capsys, "closure", str(source), "--mode", "td")
    assert code == 0
    assert payload["universe"] == "atoms=p; depth=0; cap=1; reserve=q"
    assert payload["inferences"] == []


def test_closure_rejects_out_of_universe(capsys, tmp_path):
    source = tmp_path / "oob.inf"
    source.write_text("p & p & p & p => q\n", encoding="utf-8")
    code, _, err = run(capsys, "closure", str(source), "--mode", "t")
    assert code == 2 and "not in universe" in err


def test_verify_only_subset(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "--only", "scheme-enumeration,non-reflexivity",
        "--samples", "50", "--no-timestamp",
    )
    assert code == 0
    assert [c["claim"] for c in payload["claims"]] == [
        "scheme-enumeration", "non-reflexivity",
    ]
    assert payload["failures"] == 0
    assert "timestamp" not in payload
    assert all("runtime_ms" not in c for c in payload["claims"])


def test_verify_alias_and_unknown_claim(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "--only", "prop1", "--samples", "50", "--law-samples", "5",
        "--no-timestamp",
    )
    assert code == 0
    assert payload["claims"][0]["claim"] == "operator-laws"

    code, _, err = run(capsys, "verify", "--only", "theorem99")
    assert code == 2 and "unknown claim" in err


@pytest.mark.parametrize(
    "option", ["--samples", "--reduced", "--law-samples", "--lemma-samples", "--equivalence-samples"]
)
def test_verify_rejects_negative_sizes(capsys, option):
    code, out, err = run(capsys, "verify", "--only", "scheme-enumeration", option, "-1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "must be >= 0" in err


@pytest.mark.parametrize(
    "claim, samples, least", [("lemma1", "0", 8), ("lemma1", "1", 8), ("facts4-5", "0", 3)]
)
def test_verify_rejects_a_corpus_too_small_for_a_claim(capsys, claim, samples, least):
    code, out, err = run(capsys, "verify", "--only", claim, "--samples", samples)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {claim} needs at least {least} pool formulas")


def test_verify_theorem4_all_pairs(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "--only", "theorem4", "--schemes", "all-pairs",
        "--samples", "200", "--reduced", "30", "--no-timestamp",
    )
    assert code == 0
    claim = payload["claims"][0]
    assert claim["claim"] == "theorem4" and claim["status"] == "pass"


def test_verify_config_file(capsys, tmp_path):
    config = tmp_path / "verify.json"
    config.write_text(
        json.dumps({"only": "scheme-enumeration", "samples": 50, "no_timestamp": True}),
        encoding="utf-8",
    )
    code, payload, _ = run_json(capsys, "verify", "--config", str(config))
    assert code == 0
    assert [c["claim"] for c in payload["claims"]] == ["scheme-enumeration"]


def test_verify_config_file_must_hold_an_object(capsys, tmp_path):
    config = tmp_path / "verify.json"
    for text in ("[1, 2]", "3", '"only"', "null"):
        config.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "verify", "--config", str(config))
        assert (code, out) == (2, "")
        assert err == "error: --config file must hold a JSON object\n"


def test_check_rejects_an_empty_standard_list(capsys):
    for selector in (",", " , "):
        code, out, err = run(capsys, "check", "--standard", selector, "p => q")
        assert code == 2 and "empty standard selector" in err and out == ""


def test_check_takes_a_standard_with_no_premise_values(capsys):
    """A standard whose premise part is ``-`` starts with a dash; it may
    follow ``--standard`` as its own word or after ``=``."""
    spaced = run(capsys, "check", "--standard", "-:1", "=> p")
    joined = run(capsys, "check", "--standard=-:1", "=> p")
    assert spaced == joined == (1, "=> p\n  strong/-:1: invalid  [p=0]\n", "")
    with pytest.raises(SystemExit) as exit_info:
        main(["check", "p => q", "--standard"])
    assert exit_info.value.code == 2
    assert "--standard: expected one argument" in capsys.readouterr().err


def test_derive_needs_exactly_one_scheme_per_stage(capsys):
    for option, selector in (("--tt-scheme", "all"), ("--ss-scheme", "strong,weak")):
        code, out, err = run(capsys, "derive", option, selector, "p => p | q")
        assert code == 2 and f"{option} must name exactly one scheme" in err and out == ""
    code, _, _ = run(capsys, "derive", "--tt-scheme", "id:0b0000", "p => p | q")
    assert code == 0


def test_atom_cap_is_an_option_of_check_and_derive_only(capsys):
    wide = "=> " + " | ".join(f"x{i}" for i in range(13))
    for command in (("check", "--scheme", "strong", "--standard", "ss"), ("derive",)):
        code, _, err = run(capsys, *command, wide)
        assert code == 2 and "above the cap of 12" in err
        code, _, err = run(capsys, *command, "--atom-cap", "13", wide)
        assert code == 1 and err == ""
    for command in ("verify", "schemes", "closure"):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--atom-cap", "3"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --atom-cap" in capsys.readouterr().err

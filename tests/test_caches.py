import importlib
import pkgutil

import trivalent


def test_module_level_caches_are_the_named_ones():
    """Every function cache defined at module level in the package; a new
    one has to be added here, and to the README's mutable-state paragraph."""
    found = set()
    for info in pkgutil.iter_modules(trivalent.__path__):
        module = importlib.import_module(f"trivalent.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                found.add(f"{info.name}.{name}")
    assert found == {
        "semantics.truth_vector",
        "semantics._accept_table",
        "cli._shared_parser",
    }


def test_the_package_never_calls_truth_vector(capsys):
    """``semantics.truth_vector`` and its cache stay only for outside
    callers: checking, deriving, universe-wide evaluation and the whole
    verification suite evaluate through the stacked kernel instead."""
    from test_verification import SMALL

    from trivalent import semantics
    from trivalent.characterize import star_set, valid_subset
    from trivalent.cli import main
    from trivalent.closure import Universe
    from trivalent.scheme import preset
    from trivalent.verification import run_verification

    before = semantics.truth_vector.cache_info()
    inference = "p | (q & ~q) => p & (r | ~r)"
    assert main(["check", "--scheme", "all", "--standard", "ss,tt,st,ts", inference]) == 1
    assert main(["derive", inference]) == 0
    u = Universe.build(["p", "q"], 1, 2, reserve=["r"])
    logic = semantics.LogicSpec(preset("strong"), semantics.SS)
    assert valid_subset(logic, u) and star_set(logic, u)
    run_verification(SMALL)
    capsys.readouterr()
    after = semantics.truth_vector.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)

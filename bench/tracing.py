"""Per-layer timing for the traced run, from outside the program.

The tracer replaces public functions of the program's modules with timing
wrappers.  Every module attribute bound to the original function is
rebound, so calls through ``from .semantics import is_valid`` in another
module are seen too.  Each span records its inclusive time; a layer's self
time is its inclusive time minus the time of the wrapped calls inside it.

Only totals are kept (a run can make millions of calls); the worker writes
them per operation when the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from trivalent import characterize, cli, closure, formula, semantics, verification

clock = time.perf_counter

CLAIMS = tuple(verification.CLAIMS)

# Every per-layer metric, with its unit, in the order the run reports them.
PER_LAYER = (
    ("cli.self_s", "s"),
    ("scheme.is_bnm_s", "s"),
    ("formula.parse_s", "s"),
    ("semantics.is_valid_s", "s"),
    ("semantics.countervaluation_s", "s"),
    ("semantics.decisions", "count"),
    ("semantics.valuations", "count"),
    ("semantics.truth_vector_entries", "count"),
    ("semantics.truth_vector_lookups", "count"),
    ("semantics.truth_vector_hit_ratio", "ratio"),
    ("closure.build_s", "s"),
    ("characterize.valid_subset_s", "s"),
    ("characterize.star_set_s", "s"),
    ("closure.transitive_closure_s", "s"),
    ("closure.dual_transitive_closure_s", "s"),
    ("closure.universe_inferences", "count"),
    ("characterize.members", "count"),
    ("characterize.derive_classical_s", "s"),
    ("characterize.replay_witness_s", "s"),
    ("characterize.verify_lattices_s", "s"),
    *((f"verification.{claim}_s", "s") for claim in CLAIMS),
    ("trace.calls", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def _count_valuations(tracer, args, result):
    inf = args[1]
    atom_count = tracer.atom_counts.get(inf)
    if atom_count is None:
        atom_count = tracer.atom_counts[inf] = len(formula.atoms(inf))
    tracer.counts["semantics.decisions"] += 1
    tracer.counts["semantics.valuations"] += 3 ** atom_count


def _count_members(tracer, args, result):
    tracer.counts["characterize.members"] += len(result)


def _count_universe(tracer, args, result):
    tracer.counts["closure.universe_inferences"] += result.inference_count()


# (module, attribute, span name, counter): the functions a traced run wraps.
TARGETS = (
    (cli, "main", "cli.main", None),
    (semantics, "is_bnm", "scheme.is_bnm_s", None),
    (formula, "parse_inference", "formula.parse_s", None),
    (semantics, "is_valid", "semantics.is_valid_s", _count_valuations),
    (semantics, "find_countervaluation", "semantics.countervaluation_s", None),
    (characterize, "valid_subset", "characterize.valid_subset_s", _count_members),
    (characterize, "star_set", "characterize.star_set_s", None),
    (closure, "transitive_closure", "closure.transitive_closure_s", None),
    (closure, "dual_transitive_closure", "closure.dual_transitive_closure_s", None),
    (characterize, "derive_classical", "characterize.derive_classical_s", None),
    (characterize, "replay_witness", "characterize.replay_witness_s", None),
    (characterize, "verify_lattices", "characterize.verify_lattices_s", None),
)


class Tracer:
    def __init__(self):
        self.inclusive: dict[str, float] = defaultdict(float)
        self.exclusive: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.atom_counts: dict = {}       # inference -> atom count, for the hook
        self.calls = 0
        self.hook_s = 0.0
        self._children: list[float] = []

    def wrap(self, name, fn, counter=None):
        inclusive, exclusive, children = self.inclusive, self.exclusive, self._children

        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inclusive[name] += elapsed
                exclusive[name] += elapsed - children.pop()
                if children:
                    children[-1] += elapsed
                self.calls += 1
            if counter is not None:
                hook_start = clock()
                counter(self, args, result)
                self.hook_s += clock() - hook_start
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module, attribute, name, counter in TARGETS:
            _rebind(getattr(module, attribute), self.wrap(name, getattr(module, attribute), counter))
        build = closure.Universe.__dict__["build"].__func__
        closure.Universe.build = classmethod(self.wrap("closure.build_s", build, _count_universe))
        for claim in CLAIMS:
            fn = verification.CLAIMS[claim]
            verification.CLAIMS[claim] = self.wrap(f"verification.{claim}_s", fn)

    def per_call_cost(self, calls: int = 200_000) -> float:
        """Seconds one wrapper adds to a call, measured on a no-op."""
        def noop(x):
            return x

        probe = Tracer().wrap("probe", noop)
        best = float("inf")
        for _ in range(3):
            start = clock()
            for i in range(calls):
                noop(i)
            bare = clock() - start
            start = clock()
            for i in range(calls):
                probe(i)
            best = min(best, (clock() - start - bare) / calls)
        return max(best, 0.0)

    def metrics(self, traced_wall_s: float, truth_vector: dict) -> dict[str, float]:
        overhead = self.calls * self.per_call_cost() + self.hook_s
        values = dict(self.inclusive)
        values["cli.self_s"] = self.exclusive.get("cli.main", 0.0)
        values.update(self.counts)
        values.update(truth_vector)
        values["trace.calls"] = self.calls
        values["trace.overhead_s"] = overhead
        values["trace.overhead_ratio"] = overhead / max(traced_wall_s - overhead, 1e-9)
        return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}


def _rebind(original, replacement) -> None:
    """Point every ``trivalent`` module attribute bound to ``original`` at
    ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module_name == "trivalent" or module_name.startswith("trivalent."):
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, replacement)

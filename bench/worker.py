"""One benchmark run in a fresh process: set up, time, check, report.

Started by ``run.py`` with the program's sources on ``PYTHONPATH`` and a
``PYTHONHASHSEED`` derived from the seed.  Prints one JSON object as its
last line of output.  Operations are timed one by one; the checks of an
operation's output run after its timing ends, so no check is inside a timed
interval.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import time

import oracles
import workloads

clock = time.perf_counter


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def tail_percentile(count: int) -> int | None:
    """The highest whole percentile with at least ten samples beyond it, or
    None below forty samples, where it would be no tail."""
    if count < 40:
        return None
    return max(p for p in range(50, 100) if count - math.ceil(p / 100 * count) >= 10)


class Checker:
    """Routes each operation's outcome to its check and counts failures."""

    def __init__(self, workload: str):
        self.workload = workload
        self.universe = oracles.UniverseOracle(workloads.SHAPES[0].name)
        self.failed = 0
        self.problems: list[str] = []

    def __call__(self, op, outcome: workloads.Outcome) -> None:
        deep = self.workload == "decide" and op.inference is None
        if outcome.failed:
            self.failed += 1
            if not deep:
                self.problems.append(f"operation failed: {outcome.error[:200]}")
        elif deep:
            self.problems += oracles.check_deep(outcome.exit_code, outcome.value)
        elif self.workload == "decide":
            self.problems += oracles.check_decide(
                op.inference, outcome.exit_code, outcome.value, op.brute_force
            )
        elif self.workload == "universe":
            result = outcome.value
            self.problems += self.universe.check(op.shape.name, result.universe, result.sets)
        else:
            self.problems += oracles.check_verify(outcome.exit_code, outcome.value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    workload = workloads.make_workload(args.workload, args.seed, args.seconds)
    for op in workload.warm_up:
        workloads.run_operation(args.workload, op)
    checker = Checker(args.workload)
    tracer = None
    if args.trace_out:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    setup_s = clock() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    truth_vector = workloads.semantics.truth_vector
    vectors_before = truth_vector.cache_info()
    wall_s, latencies, spans = 0.0, [], []
    for index, op in enumerate(workload.operations):
        before = dict(tracer.inclusive) if tracer else None
        start = clock()
        outcome = workloads.run_operation(args.workload, op)
        elapsed = clock() - start
        wall_s += elapsed
        if not outcome.failed:
            latencies.append(elapsed)
        if tracer:
            after = tracer.inclusive
            spans.append({
                "op": index, "start": start, "end": start + elapsed, "failed": outcome.failed,
                "layers": {k: v - before.get(k, 0.0) for k, v in after.items() if v != before.get(k, 0.0)},
            })
        checker(op, outcome)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = len(workload.operations)
    result = {
        "correct": not checker.problems,
        "attempted": attempted,
        "failed": checker.failed,
        "problems": checker.problems[:20],
        "setup_s": setup_s,
    }
    if tracer:
        vectors = truth_vector.cache_info()
        hits = vectors.hits - vectors_before.hits
        lookups = hits + vectors.misses - vectors_before.misses
        result["metrics"] = tracer.metrics(wall_s, {
            "semantics.truth_vector_entries": vectors.currsize,
            "semantics.truth_vector_lookups": lookups,
            "semantics.truth_vector_hit_ratio": hits / lookups if lookups else 0.0,
        })
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "operations": spans, "totals": result["metrics"]}, handle)
    else:
        ordered = sorted(latencies)
        tail = tail_percentile(len(ordered))
        result["tail_percentile"] = tail
        result["metrics"] = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ops_per_s": {"value": len(latencies) / wall_s, "unit": "1/s"},
            "latency_p50_ms": {"value": 1000 * statistics.median(ordered), "unit": "ms"},
            "latency_tail_ms": {
                "value": 1000 * (percentile(ordered, tail) if tail else statistics.median(ordered)),
                "unit": "ms",
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

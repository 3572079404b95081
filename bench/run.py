"""Benchmark command: one closed-loop run of one workload.

    python3 bench/run.py --workload decide|universe|verify --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout.  Each run starts a fresh Python
process (``worker.py``) with the checkout's ``src`` on ``PYTHONPATH`` and
``PYTHONHASHSEED`` derived from the seed, so that set-iteration order in
the program is fixed per seed.  With ``--trace 0`` the run also starts a
few set-up-only processes and reports the median set-up time.  The last
line of output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics, or with ``--trace 1`` the
per-layer metrics).  Results and traces are also written to ``bench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("decide", "universe", "verify")
SETUP_PROBES = 2          # extra set-up-only processes per untraced run
WORKER_TIMEOUT_S = 170

def hash_seed(seed: int) -> int:
    """PYTHONHASHSEED for the program's process: 1 + seed mod (2**32 - 1),
    never 0, which would turn hash randomisation off."""
    return 1 + seed % (2**32 - 1)


def spawn(args, extra: list[str], timeout: float) -> dict:
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED=str(hash_seed(args.seed)),
        PYTHONDONTWRITEBYTECODE="1",
    )
    command = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), *extra,
    ]
    started = time.perf_counter()
    done = subprocess.run(
        [*command, "--spawned-at", repr(started)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "trivalent" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    try:
        if args.trace:
            result = spawn(args, ["--trace-out", str(out / f"{stem}.trace.json")], WORKER_TIMEOUT_S)
        else:
            result = spawn(args, [], WORKER_TIMEOUT_S)
            setups = [result["setup_s"]]
            for _ in range(SETUP_PROBES):
                setups.append(spawn(args, ["--setup-only"], deadline - time.perf_counter())["setup_s"])
            result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    (out / f"{stem}.json").write_text(json.dumps(result, indent=2), encoding="utf-8")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

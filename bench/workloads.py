"""Inputs and operations of the three benchmark workloads.

Every workload is a fixed list of operations made from the seed: the same
seed and run length always give the same list.  A run is made of whole
rounds, and every round holds the same mix of operation kinds, so the share
of each kind (and of the deep-negation requests that fail today) is the
same in every run.

The operations reach the program only through public functions, looked up
on their modules at call time (``cli.main``, ``closure.transitive_closure``,
...), so that a traced run can wrap them from outside the program.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass, field

from trivalent import characterize, cli, closure, scheme, semantics
from trivalent.formula import And, Inference, Neg, Or, Var

# --- decide --------------------------------------------------------------

# A round holds REQUESTS_PER_ATOM_COUNT fresh requests for each atom count,
# then the fixed deep requests.
ATOM_COUNTS = range(1, 9)
REQUESTS_PER_ATOM_COUNT = 4
ATOM_POOL = tuple("abcdefghjkmnpqrstuvwxyz")
EXTRA_LEAVES = 3       # leaves beyond one per atom: 0..3, uniform
MAX_PREMISES = 3       # premises per inference: 0..3, uniform
NEGATION_RATE = 0.3    # chance that a tree node is wrapped in "~"

# Negation nested past the interpreter's recursion limit.  The text does not
# depend on the seed.  ``trivalent check`` ends with an uncaught
# RecursionError on it today; the benchmark counts it as a failed operation.
# ~^600 p is equivalent to p, so a mended program must find the inference
# valid under ss, tt and st, and invalid under ts at p=i.
DEEP_NEGATIONS = 600
DEEP_REQUESTS = ("~" * DEEP_NEGATIONS + "p => p",)

# Rounds per second of --seconds: a fixed rate measured on the reference
# machine (see README), so that a run's operation list depends only on the
# arguments.
DECIDE_ROUNDS_PER_S = 2.4
UNIVERSE_ROUNDS_PER_S = 0.5

CHECK_ARGS = ("check", "--scheme", "all", "--standard", "ss,tt,st,ts", "--format", "json")
VERIFY_ARGS = ("verify", "--format", "json", "--no-timestamp")


def _render(f) -> str:
    """Fully parenthesised text, written here rather than by the program."""
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Neg):
        return "~" + _render(f.child)
    op = " & " if isinstance(f, And) else " | "
    return "(" + _render(f.left) + op + _render(f.right) + ")"


def _tree(rng: random.Random, leaves: list[str]):
    if len(leaves) == 1:
        node = Var(leaves[0])
    else:
        split = rng.randint(1, len(leaves) - 1)
        left, right = _tree(rng, leaves[:split]), _tree(rng, leaves[split:])
        node = And(left, right) if rng.random() < 0.5 else Or(left, right)
    if rng.random() < NEGATION_RATE:
        node = Neg(node)
    return node


def random_inference(rng: random.Random, atom_count: int) -> Inference:
    """A fresh inference in which each of ``atom_count`` atoms occurs."""
    names = rng.sample(ATOM_POOL, atom_count)
    leaves = names + [rng.choice(names) for _ in range(rng.randint(0, EXTRA_LEAVES))]
    rng.shuffle(leaves)
    parts = min(rng.randint(0, MAX_PREMISES), len(leaves) - 1) + 1
    cuts = sorted(rng.sample(range(1, len(leaves)), parts - 1))
    groups = [leaves[a:b] for a, b in zip([0] + cuts, cuts + [len(leaves)])]
    formulas = [_tree(rng, group) for group in groups]
    return Inference(formulas[:-1], formulas[-1])


def inference_text(inf: Inference) -> str:
    premises = ", ".join(_render(g) for g in sorted(inf.premises, key=_render))
    return (premises + " " if premises else "") + "=> " + _render(inf.conclusion)


@dataclass
class Request:
    text: str
    inference: Inference | None      # None for the fixed deep requests
    brute_force: bool = False         # re-derive all 64 verdicts by enumeration


@dataclass
class Outcome:
    """What one operation returned, kept for the checks after its timing."""

    failed: bool
    value: object = None
    exit_code: int | None = None
    error: str = ""


def run_cli(argv: list[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except RecursionError as exc:
        return Outcome(True, error=f"RecursionError: {exc}")
    if code == cli.USAGE_ERROR:
        return Outcome(True, exit_code=code, error=err.getvalue().strip())
    return Outcome(False, out.getvalue(), code)


def decide_round(rng: random.Random) -> list[Request]:
    regular = [
        Request(inference_text(inf), inf)
        for inf in (
            random_inference(rng, n)
            for n in ATOM_COUNTS
            for _ in range(REQUESTS_PER_ATOM_COUNT)
        )
    ]
    rng.shuffle(regular)
    rng.choice(regular).brute_force = True
    return regular + [Request(text, None) for text in DEEP_REQUESTS]


# --- universe ------------------------------------------------------------

@dataclass(frozen=True)
class Shape:
    name: str
    atoms: tuple[str, ...]
    depth: int
    cap: int
    reserve: tuple[str, ...]
    per_round: int = 2

    def header(self) -> str:
        return (
            f"atoms={','.join(self.atoms)}; depth={self.depth}; "
            f"cap={self.cap}; reserve={','.join(self.reserve)}"
        )


# A round holds two jobs of each shape but the dearest, which has one.  The
# shapes form a ladder of costs, each about 1.2-1.8 times the one below
# (the comments give the cost relative to pqr-d1-c1, whose job takes about
# 35-60 ms).  The reference machine (see README) runs at two speeds about
# 1.7 times apart, in phases of a second to several minutes.  Where job
# costs thin out, a percentile jumps with the share of the run spent in the
# slow phase; on a ladder this fine it moves smoothly with that share, as
# the run's total does.  The median falls on the middle rung, p-d1-c4-r3,
# and the tail (the eleventh-dearest job at five rounds) inside the p-d2-c1
# jobs, below the one big gap of the ladder.  Extra reserve atoms enlarge
# the pool by bare atoms only, and fill the rungs between the plain shapes.
# The first shape is the smallest; its dual closures are also compared
# against the program's direct greatest-fixpoint implementation.
SHAPES = (
    Shape("p-d1-c3", ("p",), 1, 3, ("q",)),                        # 0.19
    Shape("pq-d1-c1-r4", ("p", "q"), 1, 1, ("r", "s", "t", "u")),  # 0.35
    Shape("p-d1-c4-r2", ("p",), 1, 4, ("q", "r")),                 # 0.53
    Shape("p-d1-c3-r3", ("p",), 1, 3, ("q", "r", "s")),            # 0.70
    Shape("pqr-d1-c1", ("p", "q", "r"), 1, 1, ("s",)),             # 1
    Shape("p-d1-c4-r3", ("p",), 1, 4, ("q", "r", "s")),            # 1.35
    Shape("pq-d1-c2", ("p", "q"), 1, 2, ("r",)),                   # 2.0
    Shape("pq-d1-c2-r2", ("p", "q"), 1, 2, ("r", "s")),            # 2.5
    Shape("pqrs-d1-c1", ("p", "q", "r", "s"), 1, 1, ("t",)),       # 3.5
    Shape("p-d2-c1", ("p",), 2, 1, ("q",)),                        # 4.9
    Shape("pq-d1-c3", ("p", "q"), 1, 3, ("r",), per_round=1),      # 11.8
)
SCHEME_CODES = range(16)


def job_text(shape: Shape, ss_code: int, tt_code: int) -> str:
    return f"{shape.header()}; ss=id:{ss_code:#06b}; tt=id:{tt_code:#06b}"


@dataclass
class Job:
    text: str
    shape: Shape


@dataclass
class JobResult:
    """The sets one closure job computed, plus the universe it used."""

    universe: object
    sets: dict[str, frozenset]


def _parse_job(text: str) -> dict[str, str]:
    fields = {}
    for part in text.split(";"):
        key, _, value = part.strip().partition("=")
        fields[key] = value
    return fields


def run_job(text: str) -> Outcome:
    """Build the universe and the logics from the job text, as a library
    caller does, then compute every set the checks look at."""
    fields = _parse_job(text)
    u = closure.Universe.build(
        fields["atoms"].split(","), int(fields["depth"]), int(fields["cap"]),
        fields["reserve"].split(","),
    )
    ss_scheme = scheme.schemes_from_selector(fields["ss"])[0]
    tt_scheme = scheme.schemes_from_selector(fields["tt"])[0]
    ss = semantics.LogicSpec(ss_scheme, semantics.SS)
    tt = semantics.LogicSpec(tt_scheme, semantics.TT)
    st = semantics.LogicSpec(ss_scheme, semantics.ST)
    sets = {}
    sets["ss"] = characterize.valid_subset(ss, u)
    sets["tt"] = characterize.valid_subset(tt, u)
    sets["st"] = characterize.valid_subset(st, u)
    sets["meet"] = sets["ss"] & sets["tt"]
    sets["t_union"] = closure.transitive_closure(sets["ss"] | sets["tt"], u)
    sets["td_ss"] = closure.dual_transitive_closure(sets["ss"], u)
    sets["td_meet"] = closure.dual_transitive_closure(sets["meet"], u)
    sets["star_ss"] = characterize.star_set(ss, u)
    return Outcome(False, JobResult(u, sets))


def _deck(rng: random.Random):
    """Scheme codes in shuffled passes over all sixteen, so that every run
    sees the schemes in nearly equal numbers; a job's cost depends on its
    schemes by up to a factor of two."""
    while True:
        yield from rng.sample(SCHEME_CODES, len(SCHEME_CODES))


def universe_jobs(rng: random.Random, rounds: int) -> list[Job]:
    decks = {shape: (_deck(rng), _deck(rng)) for shape in SHAPES}
    jobs = []
    for _ in range(rounds):
        round_jobs = [
            Job(job_text(shape, next(decks[shape][0]), next(decks[shape][1])), shape)
            for shape in SHAPES
            for _ in range(shape.per_round)
        ]
        rng.shuffle(round_jobs)
        jobs += round_jobs
    return jobs


# --- the workloads -------------------------------------------------------

@dataclass
class Workload:
    operations: list                 # Request | Job | None (verify)
    warm_up: list = field(default_factory=list)


def _rounds(seconds: int, per_second: float) -> int:
    return max(1, math.ceil(seconds * per_second))


def make_workload(name: str, seed: int, seconds: int) -> Workload:
    if name == "decide":
        rng = random.Random(f"decide:{seed}")
        ops = [r for _ in range(_rounds(seconds, DECIDE_ROUNDS_PER_S)) for r in decide_round(rng)]
        warm = [r for r in decide_round(random.Random("decide:warm-up")) if r.inference]
        return Workload(ops, warm)
    if name == "universe":
        rng = random.Random(f"universe:{seed}")
        ops = universe_jobs(rng, _rounds(seconds, UNIVERSE_ROUNDS_PER_S))
        # One job per shape: the first Universe object of a shape is the one
        # the program's caches keep, and later equal objects run slower
        # than it, so every timed job must come after that first one.
        warm = [Job(job_text(shape, 15, 0), shape) for shape in SHAPES]
        return Workload(ops, warm)
    if name == "verify":
        return Workload([None])
    raise ValueError(f"unknown workload {name!r}")


def run_operation(workload: str, op) -> Outcome:
    if workload == "decide":
        return run_cli([*CHECK_ARGS, op.text])
    if workload == "universe":
        return run_job(op.text)
    return run_cli(list(VERIFY_ARGS))

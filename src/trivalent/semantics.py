"""Valuations, standards of evaluation, and validity.

A valuation assigns one of the three truth values to each atom of a
declared finite atom set; formulas are evaluated by recursion through a
scheme's tables.  A formula-standard is the set of values that count as
satisfying a single formula (strict = {1}, tolerant = {1, i}); a standard
pairs a premise formula-standard with a conclusion formula-standard.  An
inference is satisfied by a valuation when, if every premise meets the
premise standard, the conclusion meets the conclusion standard; it is
valid under a (scheme, standard) pair when every valuation satisfies it.

Because evaluation is truth-functional, validity is decided by enumerating
the valuations over the atoms of the inference only.  Valuations are
ordered canonically: atoms sorted by name, value tuples ordered
lexicographically with 0 < i < 1, so the all-0 valuation comes first and
counterexample search is deterministic.

Classical validity is decided by a separate two-valued evaluator (plain
Boolean operations, no scheme tables); it serves as the independent
reference point for the collapse results checked in :mod:`.verification`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping, Sequence, Union

from .errors import MissingAtomError, ResourceLimitError
from .formula import And, Formula, Inference, Neg, Or, Var, atoms, subformulas
from .scheme import I, Scheme, T, TruthValue, is_bnm

DEFAULT_ATOM_CAP = 12


@dataclass(frozen=True, slots=True)
class Valuation:
    """A total assignment of truth values to a declared finite atom set."""

    items: tuple[tuple[str, TruthValue], ...]

    @classmethod
    def of(cls, mapping: dict[str, TruthValue] | Iterable[tuple[str, TruthValue]]) -> "Valuation":
        pairs = dict(mapping)
        return cls(tuple(sorted(pairs.items())))

    def value(self, name: str) -> TruthValue:
        for key, val in self.items:
            if key == name:
                return val
        raise MissingAtomError(name)

    def __str__(self) -> str:
        return "{" + ", ".join(f"{k}={v.symbol}" for k, v in self.items) + "}"


@dataclass(frozen=True, slots=True)
class FormulaStandard:
    """The set of truth values that satisfy a single formula."""

    allowed: frozenset[TruthValue]

    def accepts(self, value: TruthValue) -> bool:
        return value in self.allowed

    @property
    def text(self) -> str:
        return "".join(v.symbol for v in sorted(self.allowed)) or "-"

    def __str__(self) -> str:
        return self.text


STRICT = FormulaStandard(frozenset({T}))
TOLERANT = FormulaStandard(frozenset({T, I}))


@dataclass(frozen=True, slots=True)
class Standard:
    """A premise formula-standard paired with a conclusion formula-standard."""

    premise: FormulaStandard
    conclusion: FormulaStandard

    @property
    def name(self) -> str:
        named = _STANDARD_NAMES.get(self)
        return named if named is not None else f"{self.premise.text}:{self.conclusion.text}"

    def __str__(self) -> str:
        return self.name


SS = Standard(STRICT, STRICT)
TT = Standard(TOLERANT, TOLERANT)
ST = Standard(STRICT, TOLERANT)
TS = Standard(TOLERANT, STRICT)

_STANDARD_NAMES = {SS: "ss", TT: "tt", ST: "st", TS: "ts"}
_NAMED_STANDARDS = {"ss": SS, "tt": TT, "st": ST, "ts": TS}


def parse_formula_standard(text: str) -> FormulaStandard:
    values = set()
    body = text.strip()
    if body == "-":
        body = ""
    for ch in body:
        values.add(TruthValue.from_symbol(ch))
    return FormulaStandard(frozenset(values))


def parse_standard(text: str) -> Standard:
    """``ss``/``tt``/``st``/``ts``, or ``X:Y`` with X, Y strings over 0, i, 1."""
    body = text.strip()
    if body in _NAMED_STANDARDS:
        return _NAMED_STANDARDS[body]
    if ":" not in body:
        raise ValueError(
            f"unknown standard {text!r}; expected ss/tt/st/ts or <premise>:<conclusion>"
        )
    left, _, right = body.partition(":")
    return Standard(parse_formula_standard(left), parse_formula_standard(right))


@dataclass(frozen=True, slots=True)
class LogicSpec:
    """A scheme together with a standard: a membership decider for inferences.

    Schemes are required to be Boolean normal and monotonic unless the
    instance is constructed with ``allow_non_bnm=True``.
    """

    scheme: Scheme
    standard: Standard
    label: str | None = field(default=None, compare=False)
    allow_non_bnm: bool = field(default=False, compare=False)

    def __post_init__(self):
        if not self.allow_non_bnm and not is_bnm(self.scheme):
            raise ValueError(
                "scheme is not Boolean normal monotonic; pass allow_non_bnm=True to override"
            )

    def __str__(self) -> str:
        return self.label or f"{self.scheme}/{self.standard}"


Logics = Union[LogicSpec, Sequence[LogicSpec]]


def as_logic_tuple(logics: Logics) -> tuple[LogicSpec, ...]:
    """Normalize a single logic or a sequence (read as intersection) to a tuple."""
    if isinstance(logics, LogicSpec):
        return (logics,)
    out = tuple(logics)
    if not out:
        raise ValueError("at least one logic is required")
    return out


# --- single-point evaluation ---------------------------------------------

def eval_formula(scheme: Scheme, valuation: Valuation, f: Formula) -> TruthValue:
    """Evaluate a formula by recursive table application."""
    if isinstance(f, Var):
        return valuation.value(f.name)
    if isinstance(f, Neg):
        return scheme.neg(eval_formula(scheme, valuation, f.child))
    if isinstance(f, And):
        return scheme.conj(
            eval_formula(scheme, valuation, f.left),
            eval_formula(scheme, valuation, f.right),
        )
    return scheme.disj(
        eval_formula(scheme, valuation, f.left),
        eval_formula(scheme, valuation, f.right),
    )


def satisfies_formula(
    scheme: Scheme, valuation: Valuation, f: Formula, standard: FormulaStandard
) -> bool:
    return standard.accepts(eval_formula(scheme, valuation, f))


def satisfies_inference(
    scheme: Scheme, valuation: Valuation, inf: Inference, standard: Standard
) -> bool:
    """Material reading: all premises up to the premise standard force the
    conclusion up to the conclusion standard."""
    if all(satisfies_formula(scheme, valuation, g, standard.premise) for g in inf.premises):
        return satisfies_formula(scheme, valuation, inf.conclusion, standard.conclusion)
    return True


# --- canonical valuation space -------------------------------------------

def sorted_atom_tuple(x: Formula | Inference | Iterable[str]) -> tuple[str, ...]:
    if isinstance(x, (Var, Neg, And, Or, Inference)):
        return tuple(sorted(atoms(x)))
    return tuple(sorted(set(x)))


def valuation_count(names: Sequence[str]) -> int:
    return 3 ** len(names)


def valuation_at(names: Sequence[str], index: int) -> Valuation:
    """The index-th valuation in canonical order (names sorted, 0 < i < 1)."""
    values = []
    remaining = index
    for position in range(len(names) - 1, -1, -1):
        values.append(TruthValue(remaining % 3))
        remaining //= 3
    values.reverse()
    return Valuation(tuple(zip(names, values)))


def _check_atom_cap(names: Sequence[str], atom_cap: int) -> None:
    """Raise before a valuation space over more than ``atom_cap`` atoms is built."""
    if len(names) > atom_cap:
        raise ResourceLimitError(
            f"valuation space ranges over {len(names)} atoms, above the cap of {atom_cap}"
        )


# --- vectorized evaluation over the whole valuation space -----------------
#
# The truth vector of a formula lists its value (as a byte 0/1/2) at every
# valuation over a fixed atom tuple, in canonical order.  One evaluator
# computes them for a stack of 1 to ``MAX_STACKED_SCHEMES`` schemes: a
# stacked vector is the truth vectors end to end, block ``s`` under
# ``schemes[s]``.  Adding ``3*s`` to block ``s`` of a negation's argument,
# or ``9*s`` to block ``s`` of the carry-free pair code ``3*left + right``,
# gives every block its own codes, so one 256-entry table per connective
# applies each scheme's table to its own block.

MAX_STACKED_SCHEMES = 256 // 9


def _var_vector(names: tuple[str, ...], name: str) -> bytes:
    position = names.index(name)
    period = 3 ** (len(names) - 1 - position)
    cycle = b"\x00" * period + b"\x01" * period + b"\x02" * period
    return cycle * (3 ** position)


def _stacked_tables(schemes: Sequence[Scheme]) -> tuple[bytes, bytes, bytes]:
    """Negation, conjunction and disjunction tables over the block codes."""
    neg, conj, disj = bytearray(256), bytearray(256), bytearray(256)
    for s, scheme in enumerate(schemes):
        neg[3 * s:3 * s + 3] = scheme.neg_table
        conj[9 * s:9 * s + 9] = scheme.conj_table
        disj[9 * s:9 * s + 9] = scheme.disj_table
    return bytes(neg), bytes(conj), bytes(disj)


def stacked_vectors(
    schemes: Sequence[Scheme],
    pool: Sequence[Formula],
    names: tuple[str, ...],
    atom_cap: int = DEFAULT_ATOM_CAP,
) -> list[bytes]:
    """Per pool formula, its truth vectors over ``names`` under each scheme
    end to end: bytes ``[s*3**n, (s+1)*3**n)`` hold its values under
    ``schemes[s]``.  Raises on more than ``MAX_STACKED_SCHEMES`` schemes or
    above ``atom_cap`` atoms before anything is built."""
    k = len(schemes)
    if not 1 <= k <= MAX_STACKED_SCHEMES:
        raise ValueError(f"a stack holds 1 to {MAX_STACKED_SCHEMES} schemes, not {k}")
    _check_atom_cap(names, atom_cap)
    size = valuation_count(names)
    length = k * size
    neg, conj, disj = _stacked_tables(schemes)
    neg_offsets = int.from_bytes(b"".join(bytes((3 * s,)) * size for s in range(k)), "big")
    pair_offsets = 3 * neg_offsets
    memo: dict[Formula, bytes] = {}
    for f in subformulas(pool):
        if isinstance(f, Var):
            if f.name not in names:
                raise MissingAtomError(f.name)
            memo[f] = _var_vector(names, f.name) * k
        elif isinstance(f, Neg):
            code = int.from_bytes(memo[f.child], "big") + neg_offsets
            memo[f] = code.to_bytes(length, "big").translate(neg)
        else:
            code = (
                3 * int.from_bytes(memo[f.left], "big")
                + int.from_bytes(memo[f.right], "big")
                + pair_offsets
            )
            memo[f] = code.to_bytes(length, "big").translate(conj if isinstance(f, And) else disj)
    return [memo[f] for f in pool]


@lru_cache(maxsize=None)
def truth_vector(scheme: Scheme, f: Formula, names: tuple[str, ...]) -> bytes:
    """``f``'s truth vector over ``names``, a stack of one.  The package never
    calls it: it and its cache stay for outside callers of ``cache_info()``."""
    return stacked_vectors((scheme,), (f,), names)[0]


# --- accept masks ----------------------------------------------------------
#
# A mask is an int with one byte per valuation over an atom tuple, in
# canonical order (valuation 0 is the most significant byte): the byte is 1
# where the formula meets a formula-standard.  Every decider reads its
# verdict off these masks, every validity verdict through
# ``_violation_masks``.  By truth-functionality a verdict read over a
# superset of an inference's atoms equals the verdict over its own atoms,
# so many inferences over one formula pool are decided at once by
# evaluating every pool formula once over the union of the pool's atoms.

Row = tuple[tuple[int, ...], int]


@lru_cache(maxsize=None)
def _accept_table(standard: FormulaStandard, meets: bool = True) -> bytes:
    """Byte ``v`` is 1 iff value ``v`` meets ``standard`` (fails it, if not ``meets``)."""
    allowed = standard.allowed
    return bytes(1 if v < 3 and (TruthValue(v) in allowed) == meets else 0 for v in range(256))


def full_mask(size: int) -> int:
    """The mask holding every one of ``size`` valuations."""
    return (1 << (8 * size)) // 255


def _mask(vector: bytes, table: bytes) -> int:
    return int.from_bytes(vector.translate(table), "big")


def _meets(vectors: Iterable[bytes], standard: FormulaStandard, meets: bool = True) -> list[int]:
    """Per vector, the mask of the bytes whose value meets ``standard``
    (fails it, if not ``meets``)."""
    table = _accept_table(standard, meets)
    return [_mask(v, table) for v in vectors]


def premise_mask(masks: Sequence[int] | Mapping[int, int], members: Iterable[int]) -> int:
    """The AND of the members' masks; -1 (every bit) for no members, so
    the empty premise set is never an antitheorem."""
    out = -1
    for i in members:
        out &= masks[i]
    return out


def _violation_masks(
    vectors: Sequence[bytes], rows: Sequence[Row], standard: Standard
) -> list[int]:
    """Per row, the bytes of the vectors where its inference fails under
    ``standard``: every premise meets the premise standard and the
    conclusion fails the conclusion standard.  Only the masks the rows
    read are built."""
    accept = _accept_table(standard.premise)
    reject = _accept_table(standard.conclusion, False)
    accepts = {i: _mask(vectors[i], accept) for i in {i for premises, _ in rows for i in premises}}
    rejects = {c: _mask(vectors[c], reject) for c in {c for _, c in rows}}
    return [premise_mask(accepts, premises) & rejects[c] for premises, c in rows]


def countervaluations(
    schemes: Sequence[Scheme],
    standards: Sequence[Standard],
    inf: Inference,
    atom_cap: int = DEFAULT_ATOM_CAP,
) -> list[list[Valuation | None]]:
    """Per scheme, per standard, the canonically first valuation falsifying
    the inference, or None: one pass over its own atoms per
    ``MAX_STACKED_SCHEMES`` schemes."""
    names = sorted_atom_tuple(inf)
    pool, rows = pool_rows((inf,))
    size = valuation_count(names)
    out = []
    for start in range(0, len(schemes), MAX_STACKED_SCHEMES):
        stack = schemes[start:start + MAX_STACKED_SCHEMES]
        vectors = stacked_vectors(stack, pool, names, atom_cap)
        # A violation byte is 1, so the first one of block s, counted from
        # the block's start, indexes the first falsifying valuation.
        found = [
            _violation_masks(vectors, rows, standard)[0].to_bytes(len(stack) * size, "big")
            for standard in standards
        ]
        for s in range(len(stack)):
            firsts = (violations.find(1, s * size, (s + 1) * size) for violations in found)
            out.append([None if i < 0 else valuation_at(names, i - s * size) for i in firsts])
    return out


def is_valid(logic: LogicSpec, inf: Inference, atom_cap: int = DEFAULT_ATOM_CAP) -> bool:
    """Validity decided over all valuations of the inference's own atoms."""
    return countervaluations((logic.scheme,), (logic.standard,), inf, atom_cap) == [[None]]


def find_countervaluation(
    logic: LogicSpec, inf: Inference, atom_cap: int = DEFAULT_ATOM_CAP
) -> Valuation | None:
    """The canonically first valuation falsifying the inference, if any."""
    return countervaluations((logic.scheme,), (logic.standard,), inf, atom_cap)[0][0]


def is_theorem(logic: LogicSpec, f: Formula, atom_cap: int = DEFAULT_ATOM_CAP) -> bool:
    """Does the formula meet the conclusion standard under every valuation?
    (Validity of ``=> f``.)"""
    return is_valid(logic, Inference((), f), atom_cap)


def is_antitheorem(
    logic: LogicSpec, gamma: Iterable[Formula], atom_cap: int = DEFAULT_ATOM_CAP
) -> bool:
    """Does every valuation drop some member below the premise standard?"""
    members = tuple(gamma)
    names = sorted_atom_tuple(n for g in members for n in atoms(g))
    vectors = stacked_vectors((logic.scheme,), members, names, atom_cap)
    return premise_mask(_meets(vectors, logic.standard.premise), range(len(members))) == 0


def formula_masks(
    logic: LogicSpec, formulas: Sequence[Formula], names: tuple[str, ...]
) -> tuple[list[int], list[int]]:
    """Per formula, the valuations over ``names`` where it meets the premise
    standard, and those where it fails the conclusion standard, both read
    off one evaluation.  Raises above ``DEFAULT_ATOM_CAP`` atoms before
    anything is built."""
    vectors = stacked_vectors((logic.scheme,), formulas, names)
    standard = logic.standard
    return _meets(vectors, standard.premise), _meets(vectors, standard.conclusion, False)


# --- classical (two-valued) validity --------------------------------------


def classical_masks(
    formulas: Sequence[Formula], names: tuple[str, ...], atom_cap: int = DEFAULT_ATOM_CAP
) -> list[int]:
    """Per formula, the two-valued valuations over ``names`` making it true,
    one byte per valuation in canonical order (names sorted, False < True).
    Plain Boolean operations over the subformula walk, with a memo for the
    call only.  Raises above ``atom_cap`` atoms before anything is built."""
    _check_atom_cap(names, atom_cap)
    n = len(names)
    full = full_mask(2 ** n)
    memo: dict[Formula, int] = {}
    for f in subformulas(formulas):
        if isinstance(f, Var):
            if f.name not in names:
                raise MissingAtomError(f.name)
            position = names.index(f.name)
            period = 2 ** (n - 1 - position)
            memo[f] = int.from_bytes((b"\x00" * period + b"\x01" * period) * 2 ** position, "big")
        elif isinstance(f, Neg):
            memo[f] = full ^ memo[f.child]
        elif isinstance(f, And):
            memo[f] = memo[f.left] & memo[f.right]
        else:
            memo[f] = memo[f.left] | memo[f.right]
    return [memo[f] for f in formulas]


def is_classically_valid(inf: Inference, atom_cap: int = DEFAULT_ATOM_CAP) -> bool:
    """Validity over all two-valued Boolean valuations."""
    names = sorted_atom_tuple(inf)
    *truths, holds = classical_masks((*inf.premises, inf.conclusion), names, atom_cap)
    rejects = full_mask(2 ** len(names)) ^ holds
    return premise_mask(truths, range(len(truths))) & rejects == 0


# --- pools: many inferences under many schemes in one pass ----------------
#
# A corpus is decided as a pool: its distinct formulas, each evaluated once
# over the union of their atoms with every scheme stacked, and each
# inference as a row of pool indices.


def pool_rows(inferences: Iterable[Inference]) -> tuple[tuple[Formula, ...], list[Row]]:
    """The distinct formulas of ``inferences`` in first-seen order, and each
    inference as (premise pool indices, conclusion pool index)."""
    index: dict[Formula, int] = {}
    rows = []
    for inf in inferences:
        premises = tuple(index.setdefault(g, len(index)) for g in inf.premises)
        rows.append((premises, index.setdefault(inf.conclusion, len(index))))
    return tuple(index), rows


def verdict_masks(
    schemes: Sequence[Scheme],
    pool: Sequence[Formula],
    rows: Sequence[Row],
    names: tuple[str, ...],
    standards: Sequence[Standard],
) -> list[list[int]]:
    """Per standard, per row, a mask whose bit ``s`` is set iff the row's
    inference is valid under ``schemes[s]`` and that standard.  The pool is
    evaluated once, stacked, over ``names`` (any superset of its atoms)."""
    vectors = stacked_vectors(schemes, pool, names)
    k, size = len(schemes), valuation_count(names)
    # Block s's mask in place: k*(k+1)/2 blocks of bytes in all, a few
    # stacked vectors' worth, bought back by one AND per block and row.
    # Bit s of a verdict is set iff the row's violations miss block s.
    blocks = [((1 << (8 * size)) - 1) << (8 * size * (k - 1 - s)) for s in range(k)]
    return [
        [
            sum(1 << s for s, block in enumerate(blocks) if not violations & block)
            for violations in _violation_masks(vectors, rows, standard)
        ]
        for standard in standards
    ]


def classical_verdicts(
    pool: Sequence[Formula], rows: Iterable[Row], names: tuple[str, ...]
) -> list[bool]:
    """Per row, classical validity read off ``classical_masks`` over
    ``names`` (any superset of the pool's atoms)."""
    truths = classical_masks(pool, names)
    full = full_mask(2 ** len(names))
    return [premise_mask(truths, premises) & (full ^ truths[c]) == 0 for premises, c in rows]

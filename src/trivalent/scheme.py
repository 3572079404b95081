"""Three-valued truth tables and the Boolean-normal monotonic family.

A scheme packages one unary table (negation) and two binary tables
(conjunction, disjunction) over the values 0, i, 1.  Two predicates carve
out the family this package is about:

* Boolean normal: restricted to {0, 1}, each table agrees with the
  two-valued Boolean operation.
* Monotonic: each table is monotone for the information order, in which
  i sits strictly below both 0 and 1 (and 0, 1 are incomparable).

Those two constraints force every middle-value cell except four:
and(0,i) and and(i,0) may be 0 or i, or(1,i) and or(i,1) may be 1 or i.
Hence exactly sixteen schemes, indexed here by a 4-bit code: reading the
cells in the order and(0,i), and(i,0), or(1,i), or(i,1) from the most
significant bit down, a bit is 1 when the cell takes the determinate value
(0 for the conjunction cells, 1 for the disjunction cells) and 0 when it
takes i.  The strong Kleene scheme is 0b1111, the weak one 0b0000, and the
left-sequential ("middle") one 0b1010.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import IntEnum


class TruthValue(IntEnum):
    """The three truth values; F and T are the classical ones, I the middle."""

    F = 0
    I = 1
    T = 2

    @property
    def symbol(self) -> str:
        return _SYMBOLS[self]

    @classmethod
    def from_symbol(cls, text: str) -> "TruthValue":
        try:
            return _FROM_SYMBOL[text.strip()]
        except KeyError:
            raise ValueError(f"unknown truth value {text!r}; expected 0, i or 1") from None


_SYMBOLS = {TruthValue.F: "0", TruthValue.I: "i", TruthValue.T: "1"}
_FROM_SYMBOL = {"0": TruthValue.F, "i": TruthValue.I, "1": TruthValue.T}

F, I, T = TruthValue.F, TruthValue.I, TruthValue.T

VALUES = (F, I, T)


def info_leq(a: TruthValue, b: TruthValue) -> bool:
    """Information order (reflexive): i lies below both 0 and 1."""
    return a == b or a is I


UnaryTable = tuple[TruthValue, TruthValue, TruthValue]
BinaryTable = tuple[TruthValue, ...]  # 9 entries, indexed by 3*a + b


@dataclass(frozen=True, slots=True)
class Scheme:
    """Truth tables for negation, conjunction and disjunction.

    ``neg_table`` is indexed by the argument value; ``conj_table`` and
    ``disj_table`` are flat 9-tuples indexed by ``3*left + right``.
    The name is a label only and does not take part in equality.  Whether
    the tables are BNM is decided at construction and kept on the instance.
    """

    neg_table: UnaryTable
    conj_table: BinaryTable
    disj_table: BinaryTable
    name: str | None = field(default=None, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)
    _bnm: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.neg_table) != 3 or len(self.conj_table) != 9 or len(self.disj_table) != 9:
            raise ValueError("scheme tables must have 3, 9 and 9 entries")
        object.__setattr__(
            self, "_hash", hash((self.neg_table, self.conj_table, self.disj_table))
        )
        object.__setattr__(self, "_bnm", is_boolean_normal(self) and is_monotonic(self))

    def __hash__(self) -> int:
        return self._hash

    def neg(self, a: TruthValue) -> TruthValue:
        return self.neg_table[a]

    def conj(self, a: TruthValue, b: TruthValue) -> TruthValue:
        return self.conj_table[3 * a + b]

    def disj(self, a: TruthValue, b: TruthValue) -> TruthValue:
        return self.disj_table[3 * a + b]

    def __str__(self) -> str:
        return self.name or "scheme"


def _classical_neg(a: TruthValue) -> TruthValue:
    return T if a is F else F


def _classical_conj(a: TruthValue, b: TruthValue) -> TruthValue:
    return T if (a is T and b is T) else F


def _classical_disj(a: TruthValue, b: TruthValue) -> TruthValue:
    return T if (a is T or b is T) else F


def is_boolean_normal(s: Scheme) -> bool:
    """Do all tables agree with the Boolean operations on {0, 1}?"""
    classical = (F, T)
    if any(s.neg(a) != _classical_neg(a) for a in classical):
        return False
    for a in classical:
        for b in classical:
            if s.conj(a, b) != _classical_conj(a, b):
                return False
            if s.disj(a, b) != _classical_disj(a, b):
                return False
    return True


def monotonicity_violations(s: Scheme) -> list[tuple[str, tuple, tuple]]:
    """All argument pairs witnessing a failure of information-monotonicity.

    Each entry is ``(op, low_args, high_args)`` with the arguments ordered
    componentwise in the information order but the results not.
    """
    out: list[tuple[str, tuple, tuple]] = []
    for a in VALUES:
        for b in VALUES:
            if info_leq(a, b) and not info_leq(s.neg(a), s.neg(b)):
                out.append(("neg", (a,), (b,)))
    for name, table in (("and", s.conj), ("or", s.disj)):
        for a1 in VALUES:
            for a2 in VALUES:
                for b1 in VALUES:
                    for b2 in VALUES:
                        if info_leq(a1, b1) and info_leq(a2, b2):
                            if not info_leq(table(a1, a2), table(b1, b2)):
                                out.append((name, (a1, a2), (b1, b2)))
    return out


def is_monotonic(s: Scheme) -> bool:
    """Exhaustive check of information-monotonicity over all argument pairs."""
    return not monotonicity_violations(s)


def is_bnm(s: Scheme) -> bool:
    """Boolean normal and monotonic; decided when the scheme is built."""
    return s._bnm


_FORCED_NEG: UnaryTable = (T, I, F)


def _bnm_tables(code: int) -> tuple[UnaryTable, BinaryTable, BinaryTable]:
    conj_0i = F if code & 0b1000 else I
    conj_i0 = F if code & 0b0100 else I
    disj_1i = T if code & 0b0010 else I
    disj_i1 = T if code & 0b0001 else I
    conj = {
        (F, F): F, (F, I): conj_0i, (F, T): F,
        (I, F): conj_i0, (I, I): I, (I, T): I,
        (T, F): F, (T, I): I, (T, T): T,
    }
    disj = {
        (F, F): F, (F, I): I, (F, T): T,
        (I, F): I, (I, I): I, (I, T): disj_i1,
        (T, F): T, (T, I): disj_1i, (T, T): T,
    }
    conj_table = tuple(conj[(a, b)] for a in VALUES for b in VALUES)
    disj_table = tuple(disj[(a, b)] for a in VALUES for b in VALUES)
    return _FORCED_NEG, conj_table, disj_table


def scheme_from_id(code: int, name: str | None = None) -> Scheme:
    """The BNM scheme with the given 4-bit code (see module docstring)."""
    if not 0 <= code <= 15:
        raise ValueError(f"scheme id must be in 0..15, got {code}")
    neg, conj, disj = _bnm_tables(code)
    return Scheme(neg, conj, disj, name if name is not None else f"bnm-{code:#06b}")


def scheme_id(s: Scheme) -> int:
    """The 4-bit code of a BNM scheme; raises ValueError for non-BNM tables."""
    if not is_bnm(s):
        raise ValueError("scheme id is defined only for BNM schemes")
    code = 0
    code |= 0b1000 if s.conj(F, I) is F else 0
    code |= 0b0100 if s.conj(I, F) is F else 0
    code |= 0b0010 if s.disj(T, I) is T else 0
    code |= 0b0001 if s.disj(I, T) is T else 0
    return code


_BNM_SCHEMES = tuple(scheme_from_id(code) for code in range(16))


def enumerate_bnm_schemes() -> list[Scheme]:
    """All sixteen Boolean-normal monotonic schemes, ordered by their code.

    The list is new on every call; the schemes in it are shared.
    """
    return list(_BNM_SCHEMES)


_PRESET_CODES = {"strong": 0b1111, "weak": 0b0000, "middle": 0b1010}


def preset(name: str) -> Scheme:
    """Named schemes: ``strong``, ``weak``, and the left-sequential ``middle``.

    ``middle`` evaluates left to right: a middle-valued left argument is
    infectious, while a determinate left argument may settle the result
    (and(0, i) = 0, or(1, i) = 1).  This table is a documented convention;
    the only property relied on elsewhere is that it is one of the sixteen.
    """
    try:
        code = _PRESET_CODES[name]
    except KeyError:
        raise ValueError(
            f"unknown scheme preset {name!r}; expected one of {sorted(_PRESET_CODES)}"
        ) from None
    return scheme_from_id(code, name)


# --- text format ---------------------------------------------------------

def scheme_to_text(s: Scheme) -> str:
    """Serialize all 21 table entries, one ``op(args) = value`` line each."""
    lines = []
    if s.name:
        lines.append(f"name = {s.name}")
    for a in VALUES:
        lines.append(f"neg({a.symbol}) = {s.neg(a).symbol}")
    for op, table in (("and", s.conj), ("or", s.disj)):
        for a in VALUES:
            for b in VALUES:
                lines.append(f"{op}({a.symbol},{b.symbol}) = {table(a, b).symbol}")
    return "\n".join(lines) + "\n"


def scheme_from_text(text: str, allow_non_bnm: bool = False) -> Scheme:
    """Parse the 21-entry key/value format produced by :func:`scheme_to_text`.

    Unless ``allow_non_bnm`` is set, tables failing Boolean normality or
    monotonicity are rejected, naming a violating cell pair.
    """
    entries: dict[tuple[str, tuple[TruthValue, ...]], TruthValue] = {}
    name: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'op(args) = value', got {raw!r}")
        lhs, _, rhs = line.partition("=")
        lhs = lhs.strip()
        rhs = rhs.strip()
        if lhs == "name":
            name = rhs
            continue
        m = re.fullmatch(r"(neg|and|or)\(([^)]*)\)", lhs)
        if m is None:
            raise ValueError(f"line {lineno}: unknown table entry {lhs!r}")
        op = m.group(1)
        args = tuple(TruthValue.from_symbol(part) for part in m.group(2).split(","))
        expected_arity = 1 if op == "neg" else 2
        if len(args) != expected_arity:
            raise ValueError(f"line {lineno}: {op} takes {expected_arity} argument(s)")
        key = (op, args)
        if key in entries:
            raise ValueError(f"line {lineno}: duplicate entry for {lhs}")
        entries[key] = TruthValue.from_symbol(rhs)

    missing = []
    for a in VALUES:
        if ("neg", (a,)) not in entries:
            missing.append(f"neg({a.symbol})")
    for op in ("and", "or"):
        for a in VALUES:
            for b in VALUES:
                if (op, (a, b)) not in entries:
                    missing.append(f"{op}({a.symbol},{b.symbol})")
    if missing:
        raise ValueError(f"missing table entries: {', '.join(missing)}")

    neg = tuple(entries[("neg", (a,))] for a in VALUES)
    conj = tuple(entries[("and", (a, b))] for a in VALUES for b in VALUES)
    disj = tuple(entries[("or", (a, b))] for a in VALUES for b in VALUES)
    s = Scheme(neg, conj, disj, name)
    if not allow_non_bnm:
        if not is_boolean_normal(s):
            raise ValueError("scheme is not Boolean normal on {0, 1}")
        violations = monotonicity_violations(s)
        if violations:
            op, low, high = violations[0]
            low_text = ",".join(v.symbol for v in low)
            high_text = ",".join(v.symbol for v in high)
            raise ValueError(
                f"scheme is not monotonic: {op}({low_text}) vs {op}({high_text})"
            )
    return s


def resolve_scheme(selector: str, allow_non_bnm: bool = False) -> Scheme:
    """Turn a CLI selector into a scheme: preset name, ``id:N``, or a file path."""
    if selector in _PRESET_CODES:
        return preset(selector)
    if selector.startswith("id:"):
        body = selector[3:]
        code = int(body, 0)
        return scheme_from_id(code)
    from pathlib import Path

    path = Path(selector)
    if path.exists():
        return scheme_from_text(path.read_text(encoding="utf-8"), allow_non_bnm)
    raise ValueError(
        f"unknown scheme selector {selector!r}; expected a preset name, id:<code>, "
        "or a readable file path"
    )


def schemes_from_selector(selector: str, allow_non_bnm: bool = False) -> list[Scheme]:
    """Resolve a comma-separated selector list; ``all`` expands to all sixteen."""
    out: list[Scheme] = []
    for part in selector.split(","):
        part = part.strip()
        if part == "all":
            out.extend(enumerate_bnm_schemes())
        elif part:
            out.append(resolve_scheme(part, allow_non_bnm))
    if not out:
        raise ValueError("empty scheme selector")
    return out

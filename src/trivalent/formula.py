"""Propositional language: AST, parser, printer, substitution, enumeration.

Concrete syntax
---------------
Atoms are identifiers (``[A-Za-z_][A-Za-z0-9_]*``).  Connectives, from
tightest to loosest binding: ``~`` (negation), ``&`` (conjunction),
``|`` (disjunction).  Both binary connectives associate to the left and
parentheses may be used freely.  An inference is written

    gamma_1, ..., gamma_n => phi        (n >= 0)

with premises read as a set: duplicates collapse and order is irrelevant.

Printing produces the minimal-parenthesis form under the precedence above,
and parsing that form returns a structurally identical AST.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Union

from .errors import ParseError, ResourceLimitError

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

DEFAULT_ENUMERATION_CAP = 100_000


@dataclass(frozen=True, slots=True)
class Var:
    name: str
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not _IDENT_RE.fullmatch(self.name):
            raise ValueError(f"invalid variable name: {self.name!r}")
        object.__setattr__(self, "_hash", hash(("var", self.name)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Neg:
    child: Formula
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(("neg", self.child)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return _text(self)


@dataclass(frozen=True, slots=True)
class And:
    left: Formula
    right: Formula
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(("and", self.left, self.right)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return _text(self)


@dataclass(frozen=True, slots=True)
class Or:
    left: Formula
    right: Formula
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(("or", self.left, self.right)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return _text(self)


Formula = Union[Var, Neg, And, Or]

# Binding strength, tightest highest: an operand is parenthesized when it
# binds more loosely than its place asks for.
_STRENGTH = {Or: 1, And: 2, Neg: 3, Var: 4}


def _text(f: Formula) -> str:
    """``f`` in minimal-parenthesis form, from an explicit stack of text pieces
    and of formulas with the strength their place asks for: no recursion."""
    pieces: list[str] = []
    stack: list[tuple[Formula, int] | str] = [(f, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            pieces.append(item)
            continue
        g, context = item
        kind = type(g)
        strength = _STRENGTH[kind]
        if strength < context:
            pieces.append("(")
            stack.append(")")
        if kind is Var:
            pieces.append(g.name)
        elif kind is Neg:
            pieces.append("~")
            stack.append((g.child, strength))
        else:
            stack += ((g.right, strength + 1), " & " if kind is And else " | ", (g.left, strength))
    return "".join(pieces)


@dataclass(frozen=True, slots=True)
class Inference:
    """A finite premise set together with a single conclusion."""

    premises: frozenset[Formula]
    conclusion: Formula
    _hash: int = field(init=False, repr=False, compare=False)

    def __init__(self, premises: Iterable[Formula], conclusion: Formula):
        object.__setattr__(self, "premises", frozenset(premises))
        object.__setattr__(self, "conclusion", conclusion)
        object.__setattr__(self, "_hash", hash((self.premises, self.conclusion)))

    def __hash__(self) -> int:
        return self._hash

    def sorted_premises(self) -> tuple[Formula, ...]:
        return tuple(sorted(self.premises, key=formula_key))

    def __str__(self) -> str:
        left = ", ".join(str(g) for g in self.sorted_premises())
        return f"{left} => {self.conclusion}" if left else f"=> {self.conclusion}"


def formula_key(f: Formula) -> str:
    """Total order on formulas: the printed form (printing is injective)."""
    return str(f)


# A substitution is a finite map from variable names to formulas, read as
# the identity off its domain.
Substitution = Mapping[str, Formula]


def atoms(x: Formula | Inference) -> frozenset[str]:
    """The set of variable names occurring in a formula or inference."""
    if isinstance(x, Inference):
        out: set[str] = set()
        for g in x.premises:
            out |= atoms(g)
        return frozenset(out | atoms(x.conclusion))
    found: set[str] = set()
    stack = [x]
    while stack:
        f = stack.pop()
        if isinstance(f, Var):
            found.add(f.name)
        elif isinstance(f, Neg):
            stack.append(f.child)
        else:
            stack.append(f.left)
            stack.append(f.right)
    return frozenset(found)


def subformulas(roots: Iterable[Formula]) -> list[Formula]:
    """The distinct subformulas of ``roots``, each listed after its children.
    Post-order with an explicit stack: a node is pushed once to expand it
    and once more, under its children, to list it."""
    listed: dict[Formula, None] = {}
    stack = [(f, False) for f in reversed(list(roots))]
    while stack:
        f, expanded = stack.pop()
        if f in listed:
            continue
        if expanded or isinstance(f, Var):
            listed[f] = None
            continue
        stack.append((f, True))
        if isinstance(f, Neg):
            stack.append((f.child, False))
        else:
            stack += ((f.right, False), (f.left, False))
    return list(listed)


def depth(f: Formula) -> int:
    """Connective-nesting depth; atoms have depth 0."""
    if isinstance(f, Var):
        return 0
    if isinstance(f, Neg):
        return 1 + depth(f.child)
    return 1 + max(depth(f.left), depth(f.right))


def substitute(f: Formula, sigma: Substitution) -> Formula:
    """Apply a substitution homomorphically; variables off-domain are kept."""
    if isinstance(f, Var):
        return sigma.get(f.name, f)
    if isinstance(f, Neg):
        return Neg(substitute(f.child, sigma))
    if isinstance(f, And):
        return And(substitute(f.left, sigma), substitute(f.right, sigma))
    return Or(substitute(f.left, sigma), substitute(f.right, sigma))


def substitute_inference(inf: Inference, sigma: Substitution) -> Inference:
    return Inference(
        (substitute(g, sigma) for g in inf.premises),
        substitute(inf.conclusion, sigma),
    )


# --- parsing -----------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<arrow>=>)|(?P<sym>[~&|(),]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[at]!r}", at)
        if m.group("ident"):
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        elif m.group("arrow"):
            tokens.append(("=>", "=>", m.start("arrow")))
        else:
            sym = m.group("sym")
            tokens.append((sym, sym, m.start("sym")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return self.advance()

    def formula(self) -> Formula:
        f = self.conjunct()
        while self.peek()[0] == "|":
            self.advance()
            f = Or(f, self.conjunct())
        return f

    def conjunct(self) -> Formula:
        f = self.negation()
        while self.peek()[0] == "&":
            self.advance()
            f = And(f, self.negation())
        return f

    def negation(self) -> Formula:
        if self.peek()[0] == "~":
            self.advance()
            return Neg(self.negation())
        return self.primary()

    def primary(self) -> Formula:
        kind, value, pos = self.peek()
        if kind == "ident":
            self.advance()
            return Var(value)
        if kind == "(":
            self.advance()
            f = self.formula()
            self.expect(")")
            return f
        raise ParseError(f"expected a formula, found {value or 'end of input'!r}", pos)

    def inference(self) -> Inference:
        premises: list[Formula] = []
        if self.peek()[0] not in ("=>",):
            premises.append(self.formula())
            while self.peek()[0] == ",":
                self.advance()
                premises.append(self.formula())
        self.expect("=>")
        conclusion = self.formula()
        return Inference(premises, conclusion)


def parse(text: str) -> Formula:
    """Parse a formula; raises ParseError (with position) on malformed input."""
    parser = _Parser(text)
    f = parser.formula()
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {value!r}", pos)
    return f


def parse_inference(text: str) -> Inference:
    """Parse ``G1, ..., Gn => F``; duplicate premises collapse (set semantics)."""
    parser = _Parser(text)
    inf = parser.inference()
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {value!r}", pos)
    return inf


# --- bounded enumeration ------------------------------------------------

def enumerate_formulas(
    names: Iterable[str],
    max_depth: int,
    max_count: int = DEFAULT_ENUMERATION_CAP,
) -> list[Formula]:
    """All formulas over the given atoms with depth <= max_depth.

    Canonical order: atoms sorted by name; then, layer by layer, formulas of
    depth exactly d+1 listed as negations of depth-d formulas (in prior
    order), then conjunctions, then disjunctions of ordered pairs drawn from
    earlier layers with at least one operand of depth d.  The depth-d output
    is a list prefix of the depth-(d+1) output, and the whole enumeration is
    deterministic.
    """
    sorted_names = sorted(set(names))
    if not sorted_names:
        raise ValueError("enumerate_formulas requires at least one atom")
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    for name in sorted_names:
        if not _IDENT_RE.fullmatch(name):
            raise ValueError(f"invalid variable name: {name!r}")

    result: list[Formula] = [Var(name) for name in sorted_names]
    newest: list[Formula] = list(result)
    for d in range(max_depth):
        older = list(result)
        fresh = set(newest)
        layer: list[Formula] = [Neg(f) for f in newest]
        for make in (And, Or):
            for f, g in itertools.product(older, older):
                if f in fresh or g in fresh:
                    layer.append(make(f, g))
        if len(result) + len(layer) > max_count:
            raise ResourceLimitError(
                f"formula enumeration exceeds cap of {max_count} "
                f"(atoms={sorted_names}, depth={d + 1})"
            )
        result.extend(layer)
        newest = layer
    return result


def iter_subsets(items: list, max_size: int) -> Iterator[tuple]:
    """Subsets of ``items`` with size <= max_size, smallest first, order-stable."""
    for size in range(min(max_size, len(items)) + 1):
        yield from itertools.combinations(items, size)

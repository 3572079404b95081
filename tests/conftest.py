import itertools
import random

import pytest
from hypothesis import strategies as st

from trivalent.closure import Universe
from trivalent.formula import And, Inference, Neg, Or, Var, parse
from trivalent.scheme import enumerate_bnm_schemes, preset


ATOM_NAMES = ("p", "q", "r")


def formulas(max_leaves: int = 6):
    atoms = st.sampled_from(ATOM_NAMES).map(Var)
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            inner.map(Neg),
            st.tuples(inner, inner).map(lambda pair: And(*pair)),
            st.tuples(inner, inner).map(lambda pair: Or(*pair)),
        ),
        max_leaves=max_leaves,
    )


def inferences(max_premises: int = 3):
    return st.tuples(
        st.lists(formulas(), max_size=max_premises), formulas()
    ).map(lambda pair: Inference(pair[0], pair[1]))


def classical(f, value) -> bool:
    """Oracle: ``f``'s two-valued truth where atom ``name`` is
    ``value[name]``, by plain Python ``and``/``or``/``not``."""
    if isinstance(f, Var):
        return value[f.name]
    if isinstance(f, Neg):
        return not classical(f.child, value)
    if isinstance(f, And):
        return classical(f.left, value) and classical(f.right, value)
    return classical(f.left, value) or classical(f.right, value)


def classical_scan(f, names) -> list[bool]:
    """Oracle: ``f``'s two-valued truth at every valuation over ``names``
    (sorted), in canonical order (False < True)."""
    return [
        classical(f, dict(zip(names, bits)))
        for bits in itertools.product((False, True), repeat=len(names))
    ]


bnm_schemes = st.sampled_from(enumerate_bnm_schemes())


@st.composite
def shared_pools(draw):
    """A pool over the first 1-4 of p, q, r, s whose later formulas reuse
    earlier ones as subformulas, as the same objects and as equal copies."""
    names = ("p", "q", "r", "s")[: draw(st.integers(1, 4))]
    leaves = st.sampled_from(names).map(Var)
    shape = st.recursive(
        leaves,
        lambda inner: st.one_of(
            inner.map(Neg),
            st.tuples(inner, inner).map(lambda pair: And(*pair)),
            st.tuples(inner, inner).map(lambda pair: Or(*pair)),
        ),
        max_leaves=4,
    )
    pool = draw(st.lists(shape, min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 4))):
        left = draw(st.sampled_from(pool))
        right = parse(str(draw(st.sampled_from(pool))))
        pool.append(draw(st.sampled_from([And(left, right), Or(left, right), Neg(right)])))
    return pool, names


RESERVE_ATOM = "s"


@st.composite
def small_universes(draw, max_pool: int = 4):
    """A pool of 1-4 random formulas, premise cap 1-2, and possibly the bare
    reserve atom ``s`` (absent from ``formulas()``)."""
    pool = draw(st.lists(formulas(max_leaves=4), min_size=1, max_size=max_pool, unique=True))
    reserve = [RESERVE_ATOM] if draw(st.booleans()) else []
    pool += [Var(name) for name in reserve]
    return Universe(pool, draw(st.integers(1, 2)), reserve)


@pytest.fixture(scope="session")
def strong():
    return preset("strong")


@pytest.fixture(scope="session")
def weak():
    return preset("weak")


@pytest.fixture(scope="session")
def middle():
    return preset("middle")


@pytest.fixture
def rng():
    return random.Random(20240607)

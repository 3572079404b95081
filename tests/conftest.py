import random

import pytest
from hypothesis import strategies as st

from trivalent.closure import Universe
from trivalent.formula import And, Inference, Neg, Or, Var
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


bnm_schemes = st.sampled_from(enumerate_bnm_schemes())

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

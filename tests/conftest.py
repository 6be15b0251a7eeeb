import numpy as np
import pytest

from ncflow.moebius import build_table


@pytest.fixture(scope="session")
def table_1m():
    return build_table(10**6)


@pytest.fixture(scope="session")
def table_10k():
    return build_table(10**4)


def unit_vector(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def hermitian_contraction(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2.0
    return h / np.linalg.norm(h, 2)


def word_shift_flow(w, v):
    """The free shift flow n -> tau(v^-1 alpha^n(w) v), for the index shift
    alpha, evaluated by reducing the word at each n and reading off the
    trace: an oracle that does not assume the closed form [w = e]."""
    from ncflow.flows import Flow
    from oracles import GroupElementSum

    def values_at(ns):
        words = (v.inverse() * w.shift(int(n)) * v for n in ns)
        return np.array([GroupElementSum.from_word(x).trace() for x in words], dtype=complex)

    return Flow(values_at=values_at, declared_bound=1.0, label="word_shift_flow")


def symbol_contraction(rng, dim):
    """Random Hermitian matrix with spectrum inside [0, 1]."""
    from ncflow.linalg import haar_unitary

    v = haar_unitary(dim, rng)
    lam = rng.random(dim)
    return (v * lam) @ v.conj().T

from fractions import Fraction

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from polyball.basis import Shape
from polyball.cp import OperatorTuple, ampliation
from polyball.subspaces import (
    construct_mt,
    construct_nadic,
    cur0_subspace,
    finite_codim_subspace,
    tensor_subspace,
    uncountable_family,
)
from polyball.symmetric import SymFockTruncation, coordinate_multiple_subspace


def random_row_tuple(rng, n, dim, norm):
    """Single-factor tuple of random matrices, jointly scaled to row norm ``norm``."""
    mats = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)) for _ in range(n)]
    row = sum(m @ m.conj().T for m in mats)
    scale = norm / np.sqrt(np.linalg.norm(row, 2))
    return OperatorTuple(Shape((n,)), dim, ((tuple(scale * m for m in mats)),))


def commuting_tuple(rng, n, dim, norm):
    """Simultaneously diagonalizable row tuple; all entries commute."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    u, _ = np.linalg.qr(g)
    mats = [u @ np.diag(rng.uniform(0.2, 1.0, dim) * np.exp(2j * np.pi * rng.uniform(0, 1, dim))) @ u.conj().T for _ in range(n)]
    row = sum(m @ m.conj().T for m in mats)
    scale = norm / np.sqrt(np.linalg.norm(row, 2))
    return OperatorTuple(Shape((n,)), dim, ((tuple(scale * m for m in mats)),))


def random_polyball_tuple(rng, n, dims, norm):
    """Cross-commuting k-tuple built as the ampliation of independent row contractions."""
    parts = [random_row_tuple(rng, ni, di, norm) for ni, di in zip(n, dims)]
    if len(parts) == 1:
        return parts[0]
    return ampliation(parts)


def random_normal_contraction(rng, dim, radius=0.9):
    """Normal matrix with spectrum inside the disc of the given radius."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    eigs = radius * rng.uniform(0.1, 1.0, dim) * np.exp(2j * np.pi * rng.uniform(0, 1, dim))
    return q @ np.diag(eigs) @ q.conj().T


def _first_exponent(n, t):
    """Leading exponent of the expansion of ``1 - t``: the least cap a suffix subspace of ``t`` takes."""
    return construct_nadic(n, t, 1).exponents[0]


@st.composite
def _one_factor_subspace(draw, max_cap):
    kind = draw(st.sampled_from(["mt", "cur0", "finite_codim"]))
    n = draw(st.sampled_from([2, 3]))
    if kind == "mt":
        t = draw(st.floats(0, 1, exclude_max=True))
        assume(_first_exponent(n, t) <= max_cap)
        return construct_mt(construct_nadic(n, t, draw(st.integers(1, 8))),
                            draw(st.integers(_first_exponent(n, t), max_cap)))
    cap = draw(st.integers(1, max_cap))
    if kind == "cur0":
        return cur0_subspace(n, cap)
    return finite_codim_subspace((n,), (cap,), draw(st.integers(0, cap + 1)), draw(st.integers(1, 2)))


@st.composite
def structured_subspaces(draw, max_cap=5, symmetric=True):
    """A structured subspace with every cap in ``1..max_cap``.

    Draws one-factor ``mt`` (n 2 or 3), ``cur0`` and ``finite_codim``; a
    two-factor ``finite_codim``; ``uncountable`` with omega in ``(1 - t, 1)``;
    a tensor of two drawn one-factor parts; and, with ``symmetric``, a
    ``coordinate_multiple`` subspace of the symmetric model.
    """
    kinds = ["one-factor", "finite_codim", "uncountable", "tensor"] + (["coordinate_multiple"] if symmetric else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "one-factor":
        return draw(_one_factor_subspace(max_cap))
    if kind == "tensor":
        return tensor_subspace([draw(_one_factor_subspace(max_cap)), draw(_one_factor_subspace(max_cap))])
    if kind == "uncountable":
        t = draw(st.floats(0.05, 0.95))
        omega = 1 - t + t * draw(st.floats(0, 1, exclude_min=True, exclude_max=True))
        assume(1 - t < omega < 1)
        # the least cap of each factor's expansion, as ``uncountable_family`` forms them
        least = (_first_exponent(2, 1 - omega), _first_exponent(2, float(1 - (1 - Fraction(t)) / Fraction(omega))))
        assume(max(least) <= max_cap)
        caps = tuple(draw(st.integers(lo, max_cap)) for lo in least)
        return uncountable_family(t, omega, caps, n_terms=draw(st.integers(1, 8)))
    k = draw(st.integers(1, 2))
    n = tuple(draw(st.lists(st.sampled_from([1, 2, 3]), min_size=k, max_size=k)))
    caps = tuple(draw(st.lists(st.integers(1, max_cap), min_size=k, max_size=k)))
    if kind == "finite_codim":
        return finite_codim_subspace(n, caps, draw(st.integers(0, sum(caps) + 1)), draw(st.integers(1, 2)))
    factor = draw(st.integers(0, k - 1))
    sf = SymFockTruncation(Shape(n, caps=caps), draw(st.integers(1, 2)))
    return coordinate_multiple_subspace(sf, factor, draw(st.integers(1, n[factor])))

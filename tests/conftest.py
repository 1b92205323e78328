import numpy as np

from polyball.basis import Shape
from polyball.cp import OperatorTuple, ampliation


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

"""Free-semigroup words, multi-degrees, and basis indexing for graded tensor products.

Conventions used throughout the package:

* a factor is addressed by its 0-based position ``i`` in the shape,
* letters of the free semigroup on ``n_i`` generators are the integers
  ``1..n_i`` (the empty tuple is the identity word),
* a multi-degree is a plain ``tuple[int, ...]`` of length ``k``,
* words of a fixed length are ordered lexicographically by letter value,
  and tensor words of a fixed multi-degree lexicographically by factor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

Word = tuple[int, ...]
MultiDegree = tuple[int, ...]


@dataclass(frozen=True)
class Shape:
    """Generator counts of the factors, with optional per-factor truncation caps."""

    n: tuple[int, ...]
    caps: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", tuple(int(v) for v in self.n))
        if self.caps is not None:
            object.__setattr__(self, "caps", tuple(int(v) for v in self.caps))
        if self.k < 1:
            raise ValueError("a shape needs at least one factor")
        if any(ni < 1 for ni in self.n):
            raise ValueError(f"generator counts must be >= 1, got {self.n}")
        if self.caps is not None:
            if len(self.caps) != self.k:
                raise ValueError("caps must carry one entry per factor")
            if any(d < 0 for d in self.caps):
                raise ValueError(f"caps must be >= 0, got {self.caps}")

    @property
    def k(self) -> int:
        return len(self.n)

    def with_caps(self, caps) -> "Shape":
        return Shape(self.n, tuple(int(c) for c in caps))

    def require_caps(self) -> tuple[int, ...]:
        if self.caps is None:
            raise ValueError("this operation needs a shape with truncation caps")
        return self.caps


def word_rank(n_i: int, word: Word) -> int:
    """Lexicographic rank of ``word`` among all words of its length."""
    r = 0
    for letter in word:
        if not 1 <= letter <= n_i:
            raise ValueError(f"letter {letter} out of range 1..{n_i}")
        r = r * n_i + (letter - 1)
    return r


def grade_dim(shape: Shape, q: MultiDegree) -> int:
    """Dimension ``prod n_i**q_i`` of the grade-``q`` slice (coefficient space excluded)."""
    if len(q) != shape.k:
        raise ValueError(f"multi-degree {q} does not match k={shape.k}")
    if any(qi < 0 for qi in q):
        raise ValueError(f"multi-degree must be nonnegative, got {q}")
    d = 1
    for ni, qi in zip(shape.n, q):
        d *= ni**qi
    return d


def simplex_cumulative_count(m: int, k: int) -> int:
    """Number of q in Z_+^k with q_1 + ... + q_k <= m, i.e. C(m+k, k)."""
    if m < 0 or k < 1:
        raise ValueError(f"need m >= 0 and k >= 1, got m={m}, k={k}")
    return math.comb(m + k, k)


def iter_grades(caps: tuple[int, ...]):
    """All multi-degrees q <= caps, in lexicographic order."""
    return itertools.product(*(range(c + 1) for c in caps))

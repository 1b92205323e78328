import itertools

import pytest

from oracle import enumerate_words, word_unrank
from polyball.basis import Shape, grade_dim, iter_grades, simplex_cumulative_count, word_rank


def test_enumerate_words_identity():
    assert enumerate_words(2, 0) == [()]


def test_enumerate_words_exhaustive_n2_q2():
    assert enumerate_words(2, 2) == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_enumerate_words_n3_q4_distinct():
    # brute-force dedup oracle
    words = enumerate_words(3, 4)
    assert len(words) == 81
    assert len(set(words)) == 81
    assert words == sorted(words)


def test_word_rank_roundtrip():
    for n_i, q in [(2, 3), (3, 2), (1, 4), (4, 2)]:
        for r, w in enumerate(enumerate_words(n_i, q)):
            assert word_rank(n_i, w) == r
            assert word_unrank(n_i, q, r) == w


def test_grade_dim_values():
    assert grade_dim(Shape((2, 3)), (2, 1)) == 12
    assert grade_dim(Shape((1, 1)), (5, 9)) == 1
    assert grade_dim(Shape((2, 2)), (0, 0)) == 1


def test_grade_dim_unit_step():
    shape = Shape((2, 3, 2))
    for q in itertools.product(range(3), repeat=3):
        for i in range(3):
            step = tuple(qi + (1 if j == i else 0) for j, qi in enumerate(q))
            assert grade_dim(shape, step) == shape.n[i] * grade_dim(shape, q)


@pytest.mark.parametrize(
    "m,k,layer,cumulative",
    [(3, 2, 4, 10), (0, 1, 1, 1), (0, 4, 1, 1), (5, 3, 21, 56)],
)
def test_simplex_count(m, k, layer, cumulative):
    assert simplex_cumulative_count(m, k) == cumulative
    # the degree-m layer is what the cumulative count adds at m
    assert cumulative - (simplex_cumulative_count(m - 1, k) if m else 0) == layer


def test_simplex_count_matches_lattice_enumeration():
    # brute-force lattice-point oracle
    for k in (1, 2, 3):
        for m in range(6):
            cumulative = sum(1 for q in iter_grades((m,) * k) if sum(q) <= m)
            assert simplex_cumulative_count(m, k) == cumulative


def test_shape_validation():
    with pytest.raises(ValueError):
        Shape(())
    with pytest.raises(ValueError):
        Shape((0, 2))
    with pytest.raises(ValueError):
        Shape((2,), caps=(-1,))
    with pytest.raises(ValueError):
        Shape((2, 2), caps=(1,))

"""Word-model letter targets as strided views: bit for bit against the index-map route of ``tests/oracle.py``,
no index map in the word-model intertwining check, one transfer-map step per grade in ``check connection``."""

import math

import numpy as np
import pytest
from hypothesis import example, find, given, settings
from hypothesis import strategies as st

from conftest import random_polyball_tuple
from oracle import IndexLeafRows, index_kernel_blocks, index_kernel_layers, index_verify_intertwining
from polyball import berezin
from polyball.basis import Shape
from polyball.berezin import berezin_kernel, connection_residuals, verify_intertwining
from polyball.cp import OperatorTuple, ampliation
from polyball.fock import FockTruncation, bump


@st.composite
def word_cases(draw):
    """``(n, dims, caps, slab, seed)``: k in 1..3, n_i in 1..3, one cap possibly 0, at most 300 words."""
    k = draw(st.integers(1, 3))
    n = tuple(draw(st.integers(1, 3)) for _ in range(k))
    dims = tuple(draw(st.integers(1, 2)) for _ in range(k))
    caps = [draw(st.integers(1, 3)) for _ in range(k)]
    if draw(st.booleans()):
        caps[draw(st.integers(0, k - 1))] = 0
    words = math.prod(sum(ni**c for c in range(cap + 1)) for ni, cap in zip(n, caps))
    caps = tuple(caps) if words <= 300 else tuple(min(c, 1) for c in caps)
    return n, dims, caps, draw(st.sampled_from([0, 2**16, 2**40])), draw(st.integers(0, 2**32 - 1))


def _letter_grids(case):
    """``(A, B)`` of every letter ``(i, j, q)`` with ``q + e_i`` inside the caps: its view split to ``(A, d_i, B)``
    (``B`` in words: the rank is 1 here)."""
    n, _, caps, _, _ = case
    ft = FockTruncation(Shape(n, caps=caps))
    views = [(ft.letter_rows(np.empty((ft.word_dim(bump(q, i)), 0)), i, 1, q)[0].shape[:-1], n[i] ** q[i])
             for q in ft.grades for i in range(len(n)) if q[i] < caps[i]]
    return [(a, run // d) for (a, run), d in views]


@pytest.mark.parametrize("shape", [(7,), (3, 4), (2, 3, 4), (3, 1, 2, 2)])
def test_boxes_hold_every_position_once_in_order(shape):
    grid = np.arange(math.prod(shape)).reshape(shape)
    for a in range(grid.size + 1):
        for b in range(a, grid.size + 1):
            boxes = berezin._boxes(shape, a, b)
            assert len(boxes) <= 2 * len(shape) - 1
            assert [p for _, _, box in boxes for p in grid[box].ravel()] == list(range(a, b))
            assert [(lo, hi) for lo, hi, _ in boxes] == [(lo, lo + grid[box].size) for lo, _, box in boxes]


def test_the_cases_reach_strided_views_and_wide_runs():
    # a letter with words of an earlier factor in front (A > 1), and one with words of a later factor behind
    # its own (B > rank)
    find(word_cases(), lambda c: any(a > 1 for a, _ in _letter_grids(c)))
    find(word_cases(), lambda c: any(b > 1 for _, b in _letter_grids(c)))


@settings(max_examples=25, deadline=None)
@given(case=word_cases())
@example(case=((2, 1, 2), (1, 2, 1), (2, 2, 2), 2**16, 1))  # strided views into the leaves
@example(case=((2, 2), (1, 1), (3, 2), 0, 2))  # dimH 1 and slabs of one row: every product one row
def test_view_route_is_bit_equal_to_the_index_route(case):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(berezin, "SLAB_BYTES", case[3])
        _check_view_route(*case)


@pytest.mark.parametrize("n, dims, caps", [((2, 2), (1, 2), (3, 2)), ((2, 1, 2), (1, 1, 2), (2, 2, 2))])
def test_view_route_keeps_a_lone_last_row(monkeypatch, n, dims, caps):
    # slabs of 7 rows: a leaf source block of 8 rows leaves its last row alone in its slab, and the
    # last letter of a pair into the leaf reads it
    monkeypatch.setattr(berezin, "SLAB_BYTES", 240)
    _check_view_route(n, dims, caps, 240, 4)


def _check_view_route(n, dims, caps, slab, seed):
    t = random_polyball_tuple(np.random.default_rng(seed), n, dims, 0.7)
    blocks = berezin_kernel(t, caps).blocks
    want = index_kernel_blocks(t, caps)
    assert all(np.array_equal(blocks[q].view(np.uint64), want[q].view(np.uint64)) for q in want)
    dd, ft = berezin._kernel_truncation(t, caps, "full")
    step = berezin._slab_rows(t.dimH)
    with berezin._workers() as pool:
        for (_, plans), (_, index_plans) in zip(berezin._kernel_layers(t, ft, dd, pool),
                                                index_kernel_layers(t, ft, dd, pool)):
            for u, plan in plans.items():
                rows, oracle = berezin._LeafRows(ft, plan, ft.dim(u)), IndexLeafRows(index_plans[u], ft.dim(u))
                assert all(not isinstance(v, np.ndarray) for k, v in vars(rows).items() if k != "plan")
                d = len(blocks[u])
                for f0, f1 in [(0, d), *np.sort(np.random.default_rng(seed).integers(0, d + 1, (6, 2)))]:
                    assert np.array_equal(rows[f0:f1].view(np.uint64), blocks[u][f0:f1].view(np.uint64))
                # each pair into the leaf, read slab by slab as _residual_slabs reads it
                for i in range(plan.i):  # the tested pairs into a leaf are of the factors before its own
                    if u[i] == 0:
                        continue
                    for j in range(1, n[i] + 1):
                        q = bump(u, i, -1)
                        targets, index = rows.letter_rows(i, j, q), ft.shift(i, j, q)[0]
                        for a in range(0, len(index), step):
                            got = berezin._read_rows(targets, a, min(a + step, len(index)))
                            assert np.array_equal(got.view(np.uint64), oracle[index[a : a + step]].view(np.uint64))
    if 0 in caps:
        with pytest.raises(ValueError, match="no grade pair"):
            verify_intertwining(t, caps)
    else:
        assert verify_intertwining(t, caps) == index_verify_intertwining(t, caps)


def test_word_model_intertwining_builds_no_index_map(monkeypatch):
    # n (2, 1, 2): the letters of factors 1 and 2 write strided views; no shift map is built, and the
    # letters' pieces, the tested pairs and the leaf rows hold no per-row array
    calls, pieces, made = [], [], []
    shift_data, letter_pieces, init = FockTruncation.shift_data, berezin._letter_pieces, berezin._LeafRows.__init__
    monkeypatch.setattr(FockTruncation, "shift_data", lambda self, *a: calls.append(a) or shift_data(self, *a))
    monkeypatch.setattr(berezin, "_letter_pieces", lambda *a: pieces.append(letter_pieces(*a)) or pieces[-1])
    monkeypatch.setattr(berezin._LeafRows, "__init__", lambda self, *a: made.append(self) or init(self, *a))
    t = random_polyball_tuple(np.random.default_rng(2), (2, 1, 2), (2, 2, 2), 0.7)
    assert verify_intertwining(t, (3, 3, 3)) < 1e-10
    assert calls == [] and pieces and made
    assert all(kept is None and w is None for grade in pieces for _, (_, _, kept, _, w) in grade)
    assert all(not isinstance(v, np.ndarray) for rows in made for k, v in vars(rows).items() if k != "plan")
    dd, ft = berezin._kernel_truncation(t, (3, 3, 3), "full")
    assert all(isinstance(v, int) or isinstance(v, tuple) for pair in berezin._tested_pairs(ft, ft.grades, ft.grades)
               for v in pair)


def test_a_defect_of_rank_zero_leaves_no_row_to_test():
    # the unit scalar on both factors: every grade has 0 rows, the leaves too
    unit = OperatorTuple(Shape((1,)), 1, ((np.ones((1, 1), dtype=complex),),))
    assert verify_intertwining(ampliation([unit, unit]), (2, 2)) == 0.0


def test_connection_residuals_take_one_cp_apply_per_grade(monkeypatch):
    calls = []
    apply = berezin.cp_apply
    monkeypatch.setattr(berezin, "cp_apply", lambda t, i, y: calls.append(i) or apply(t, i, y))
    t = random_polyball_tuple(np.random.default_rng(3), (2, 2), (2, 2), 0.7)
    got = connection_residuals(t, (4, 3))
    assert len(calls) == len(got) - 1  # every grade but the vacuum

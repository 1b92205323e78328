"""Berezin kernels, the connection identity, and index-formula machinery.

The kernel of a tuple is built one total degree at a time from its vacuum
row, the defect square root, through the intertwining
``K T_{i,j}^* = (S_{i,j}^* (x) I) K``; rows live on the truncated Fock tensor
product with the defect range as coefficient space.  Grade blocks of the
kernel are exact (truncation only discards rows beyond the caps), so the
connection identity is a genuine two-route consistency check.  Kernel rows and
intertwining residuals are formed in row slabs of bounded memory on the
calling thread; BLAS's threads are the only parallelism, and the bits do not
depend on how many it runs.

Multipliers that intertwine the universal shifts are accepted as input data
(coefficient blocks of their symbols); they are validated, never synthesized
from a tuple.  Their blocks follow from the vacuum in the same way, through
``Theta S_{i,j} = S_{i,j} Theta``, in the word model and the symmetric model
alike.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .basis import Shape, grade_dim, iter_grades, word_rank
from .cp import (
    DefectData,
    OperatorTuple,
    PartialPermutation,
    PsdVerdict,
    cp_apply,
    cp_apply_power,
    defect_data,
    divide_real,
    gc_paused,
    json_field,
    matrix_from_pairs,
    matrix_to_pairs,
    psd_verdict,
    require_budget,
    require_commutative,
    require_membership,
    slab_gram,
    spectral_norms,
    stacked_norm,
    tolerance,
)
from .fock import (
    FockTruncation,
    GradedOperator,
    bump,
    defect_verdict,
    last_step,
    require_model,
    truncation_for,
)

SLAB_BYTES = 2**20  # rows of one kernel slab: about this many bytes of a dimH-wide complex block


@dataclass
class BerezinKernel:
    """Grade blocks of the kernel ``H -> truncated Fock (x) defect range``."""

    op: OperatorTuple
    truncation: FockTruncation
    blocks: dict[tuple[int, ...], np.ndarray]
    defect: DefectData

    def grade_gram(self, q: tuple[int, ...]) -> np.ndarray:
        """``K^* (P_q (x) I) K`` as a dimH x dimH matrix."""
        b = self.blocks[q]
        return b.conj().T @ b

    def kk_star_diag(self, grades=None) -> GradedOperator:
        """Dense grade-diagonal blocks of ``K K^*``; the oracle of ``curvature_operator_trace``."""
        grades = self.truncation.grades if grades is None else grades
        return GradedOperator(
            self.truncation,
            {(q, q): self.blocks[q] @ self.blocks[q].conj().T for q in grades},
        )

    def kk_star_full(self, box: FockTruncation | None = None) -> GradedOperator:
        """Every grade block of ``K K^*`` on ``box`` (default: the kernel's truncation).

        ``box`` is a smaller truncation of the same model and coefficient
        space, such as ``interior_box``: its blocks are the kernel's own, so
        the operator is the restriction of the full one, entry for entry.
        """
        box = self.truncation if box is None else box
        blocks = {}
        for src in box.grades:
            for dst in box.grades:
                blocks[(src, dst)] = self.blocks[dst] @ self.blocks[src].conj().T
        return GradedOperator(box, blocks)


def kernel_tail_bound(t: OperatorTuple, caps: tuple[int, ...]) -> float:
    """``sum_i ||Phi_i^{D_i+1}(I)||`` for the kernel at caps ``D``: only ``check connection`` reports it.

    ``I - K*K = I - prod_i (id - Phi_i^{D_i+1})(I)`` is dominated by the sum of
    the per-factor tails, not their max, for pure tuples.  It needs the tuple
    and the caps, not the kernel's blocks.
    """
    return sum(spectral_norms(np.stack([cp_apply_power(t, i, None, caps[i] + 1) for i in range(t.k)])).tolist())


def berezin_kernel(t: OperatorTuple, caps: tuple[int, ...], model: str = "full") -> BerezinKernel:
    """The whole kernel: every degree of ``_kernel_layers``, leaves formed, with ``blocks`` in ``ft.grades`` order.

    A kernel of more than ``SIZE_BUDGET`` bytes is refused before any block is
    allocated, from the closed-form ``total_dim``.
    """
    dd, ft = _kernel_truncation(t, caps, model)
    blocks: dict[tuple[int, ...], np.ndarray] = {}
    for stored, leaves in _kernel_layers(t, ft, dd):
        blocks |= stored | _leaf_blocks(t, ft, leaves)
    return BerezinKernel(t, ft, {q: blocks[q] for q in ft.grades}, dd)


def _kernel_truncation(t: OperatorTuple, caps: tuple[int, ...], model: str,
                       budget_caps: tuple[int, ...] | None = None) -> tuple[DefectData, FockTruncation]:
    """The defect and the kernel's truncation, after commutativity (symmetric model), membership and size budget."""
    if model == "symmetric":
        require_commutative(t)
    require_membership(t)
    dd = defect_data(t)
    ft = truncation_for(model, t.shape.with_caps(caps), dd.rank)
    budget = ft if budget_caps is None else truncation_for(model, t.shape.with_caps(budget_caps), dd.rank)
    require_budget(f"Berezin kernel at caps {budget.shape.caps}", 16 * budget.total_dim * t.dimH)
    return dd, ft


def _slab_rows(width: int) -> int:
    """Rows of one ``_by_slabs`` slab: about ``SLAB_BYTES`` of a ``width``-column complex block, at least ``width``."""
    return max(SLAB_BYTES // (16 * width), width)


def _by_slabs(work, pieces, width: int) -> list[list]:
    """``work(*args, rows)`` over the row slabs ``rows`` of each piece ``(count, args)`` of ``pieces``, in order.

    A piece is cut into slabs of ``_slab_rows(width)`` rows from its first
    row, so a slab's Gram matrix is no larger than itself.  Every slab runs on
    the calling thread; BLAS's own threads are the only parallelism.  Returns
    the results of each piece, in row order.
    """
    step = _slab_rows(width)
    return [[work(*args, slice(a, min(a + step, count))) for a in range(0, count, step)] for count, args in pieces]


def _is_leaf(ft: FockTruncation, q: tuple[int, ...]) -> bool:
    """Whether no grade is built from ``q != 0``: no ``q + e_i`` inside the caps has ``last_step == (i, q)``.

    That is ``q_i`` at its cap for every ``i`` from the last factor where
    ``q_i > 0`` on: with no zero cap, the grades with the last factor at its cap.
    """
    if not any(q):
        return False
    i = last_step(q)[0]
    return q[i:] == ft.shape.caps[i:]


class _Plan(NamedTuple):
    """How a grade's rows are written (``_plan``): from ``grade`` (block ``src``) by factor ``i``, ``{j: T_{i,j}}``,
    each entry as ``_letter_rows`` takes it."""

    i: int
    grade: tuple[int, ...]
    src: np.ndarray
    entries: dict


def _kernel_layers(t: OperatorTuple, ft: FockTruncation, dd: DefectData):
    """The kernel one total degree ``|q|`` at a time, from ``|q| = 0``: ``(stored, leaves)`` per degree.

    ``stored`` is ``{q: K_q}`` for the grades of the degree that other grades
    are built from, and the vacuum; ``leaves`` is ``{u: _Plan}`` for the
    grades of the next degree that no grade is built from (``_is_leaf``),
    whose source blocks are in ``stored``.  A leaf block is never formed here:
    ``berezin_kernel`` forms it with ``_leaf_blocks``, and in the word model
    ``verify_intertwining`` forms only the rows each residual slab reads.

    The vacuum block is ``D^{1/2}`` on the defect range.  Grade ``q`` follows
    from grade ``q - e_i`` (``i`` the last factor with ``q_i > 0``), one degree
    down, by ``K T_{i,j}^* = (S_{i,j}^* (x) I) K``: the ``S_{i,j}`` target rows
    of grade ``q`` are ``(K_{q - e_i} T_{i,j}^*) / w`` with the shift weights
    ``w`` (``_letter_pieces``).  Each degree is planned first, then its stored
    grades are formed in row slabs (``_by_slabs``).  The slabs write
    disjoint rows, so every block has the same bits for any slab size.  Only
    the stored grades of the last degree are held here, so a caller that
    drops each degree once the next one is yielded keeps two degrees of
    stored grades alive.
    """
    by_degree: list[list[tuple[int, ...]]] = [[] for _ in range(sum(ft.shape.caps) + 2)]
    for q in ft.grades:
        by_degree[sum(q)].append(q)
    stored: dict[tuple[int, ...], np.ndarray] = {}
    for grades, ahead in zip(by_degree, by_degree[1:]):
        layer, pieces = {}, []
        # the stored blocks of a degree are rows of one buffer: with an allocation per block, freed blocks of
        # earlier degrees left holes between live ones, and the peak of a check moved by megabytes with what
        # the process had allocated before
        rows = np.zeros((sum(ft.dim(q) for q in grades if any(q) and not _is_leaf(ft, q)), t.dimH), dtype=complex)
        at = 0
        for q in grades:
            if not any(q):
                layer[q] = dd.range_basis.conj().T @ dd.sqrt  # rank x dimH
            elif not _is_leaf(ft, q):
                layer[q], at = rows[at : at + ft.dim(q)], at + ft.dim(q)
                pieces += _letter_pieces(ft, layer[q], _plan(t, ft, q, stored))
        _by_slabs(_write_rows, pieces, t.dimH)
        del pieces  # their targets are not held while the caller reads the degree
        stored = layer
        yield stored, {u: _plan(t, ft, u, stored) for u in ahead if _is_leaf(ft, u)}


def _plan(t: OperatorTuple, ft: FockTruncation, q: tuple[int, ...], below: dict) -> _Plan:
    """How the rows of grade ``q != 0`` are written: from ``below[q - e_i]`` by the letters of factor ``i``, the
    last factor with ``q_i > 0``, last to first (``_letter_pieces``)."""
    i, src = last_step(q)
    gathers = t.partial_permutations[i]
    return _Plan(i, src, below[src], {j: t.entry(i, j) if gathers[j - 1] is None else gathers[j - 1]
                                      for j in range(t.shape.n[i], 0, -1)})


def _letter_pieces(ft: FockTruncation, block: np.ndarray, plan: _Plan) -> list:
    """The ``_by_slabs`` pieces of ``_write_rows`` that fill ``block`` by ``plan``, one per letter.

    Letter ``j`` sends the source rows ``kept`` (all when None) to its targets
    (``ft.letter_rows``) with the shift weights ``w`` (None when all are 1, as
    for every word-model letter).  The same recursion serves both models on
    the truncation of ``ft.model``; in the symmetric model (a commutative
    tuple, see ``_kernel_truncation``) a monomial reached by several letters
    takes the rows of the last one, so the letters run last to first and each
    writes only the targets not yet written, as the mask ``written`` read
    through the same ``letter_rows`` tells.  A target of weight 1 is reached
    by no other letter (the squared weights into a target sum to 1), so only
    letters with other weights are checked.  Every row is written by exactly
    one letter.
    """
    pieces, written = [], None
    for j, entry in plan.entries.items():
        targets, w, _ = ft.letter_rows(block, plan.i, j, plan.grade)
        kept = None
        if w is not None:
            written = np.zeros(len(block), dtype=bool) if written is None else written
            mask = ft.letter_rows(written, plan.i, j, plan.grade)[0]
            fresh = ~mask[...].reshape(-1)
            if not fresh.all():  # monomials a later letter reached keep its rows
                kept, w = np.flatnonzero(fresh), w[fresh]
            mask[...] = True
            if (w == 1.0).all():
                w = None
        pieces.append((len(plan.src) if kept is None else len(kept), (targets, plan.src, kept, entry, w)))
    return pieces


def _leaf_blocks(t: OperatorTuple, ft: FockTruncation, leaves: dict) -> dict:
    """``{u: K_u}`` of the ``leaves`` of ``_kernel_layers``, formed in row slabs."""
    blocks, pieces = {}, []
    for u, plan in leaves.items():
        blocks[u] = np.zeros((ft.dim(u), t.dimH), dtype=complex)
        pieces += _letter_pieces(ft, blocks[u], plan)
    _by_slabs(_write_rows, pieces, t.dimH)
    return blocks


def _write_rows(targets, src: np.ndarray, kept: np.ndarray | None, entry: np.ndarray, w: np.ndarray | None,
                rows: slice) -> None:
    """Slab ``rows`` of one letter, one product: the ``targets`` (``ft.letter_rows``, by ``_boxes``) of the rows
    ``kept`` (or all) of ``src``."""
    sel = rows if kept is None else kept[rows]
    out = _letter_rows(src[sel], entry, None if w is None else w[rows])
    if kept is not None:
        targets[np.unravel_index(sel, targets.shape[:-1])] = out
        return
    for lo, hi, box in _boxes(targets.shape[:-1], rows.start, rows.stop):
        targets[box] = out[lo - rows.start : hi - rows.start].reshape(*(s.stop - s.start for s in box), -1)


def _boxes(shape: tuple[int, ...], a: int, b: int) -> list:
    """``(lo, hi, box)``: the positions ``a:b`` of a C-ordered grid of ``shape`` as at most ``2 len(shape) - 1`` boxes,
    in order; ``box`` holds a slice per axis, and ``grid[box]`` holds the positions ``lo:hi``."""
    if a >= b:
        return []
    if len(shape) == 1:
        return [(a, b, (slice(a, b),))]
    inner = math.prod(shape[1:])
    o = a // inner
    if o == (b - 1) // inner:  # inside one row
        return [(lo + o * inner, hi + o * inner, (slice(o, o + 1), *box))
                for lo, hi, box in _boxes(shape[1:], a - o * inner, b - o * inner)]
    first, last = -(-a // inner), b // inner  # the whole rows
    whole = [(first * inner, last * inner, (slice(first, last), *(slice(0, d) for d in shape[1:])))]
    return _boxes(shape, a, first * inner) + whole[: last > first] + _boxes(shape, last * inner, b)


def _letter_rows(src_rows: np.ndarray, entry: np.ndarray | PartialPermutation, w: np.ndarray | None) -> np.ndarray:
    """``(src_rows T^*) / w``: the kernel rows one letter ``T`` sends to its targets.

    The product comes first, then the division, so exact rows stay exact.
    Weights None are all 1, whose division would keep every bit.  A
    ``PartialPermutation`` entry is a gather of columns, with the product's
    bits: column ``r`` of ``src_rows T^*`` is ``src_rows[:, c] conj(v)``
    for the nonzero ``v`` at ``(r, c)``, and 0 when row ``r`` of ``T`` is.
    """
    if isinstance(entry, PartialPermutation):
        rows = np.zeros((len(src_rows), src_rows.shape[1]), dtype=complex)
        rows[:, entry.rows] = src_rows[:, entry.cols] * np.conj(entry.values)
    else:
        rows = src_rows @ entry.conj().T
    if w is not None:
        divide_real(rows, w[:, None])
    return rows


class _LeafRows:
    """The rows of a word-model leaf grade, formed on demand through views of its source block (``_LeafView``).

    Each row is formed as in its ``_write_rows`` slab: in one product of two
    rows or more of its letter, or alone if it is alone in its slab, since
    numpy takes a one-row product as a matrix-vector product, whose bits differ.
    """

    def __init__(self, ft: FockTruncation, plan: _Plan, rows: int):
        self.ft, self.plan, self.step = ft, plan, _slab_rows(plan.src.shape[1])
        self.shape = (rows, plan.src.shape[1])
        self.grid = ft.letter_rows(np.empty((rows, 0)), plan.i, 1, plan.grade)[0].shape[:2]  # a letter's (A, L) rows

    def __getitem__(self, rows: slice) -> np.ndarray:
        view = _LeafView(self, self.plan.src.reshape(1, *self.grid, self.shape[1]), True)
        return _read_rows(view, *rows.indices(self.shape[0])[:2])

    def letter_rows(self, i: int, j: int, q: tuple[int, ...]) -> _LeafView:
        """``ft.letter_rows`` of the leaf's rows for a factor ``i`` before its own: the rows its letters write
        from the targets of letter ``(i, j)`` in the source block."""
        src = self.ft.letter_rows(self.plan.src, i, j, bump(q, self.plan.i, -1))[0]
        d = self.grid[0] // (len(src) * self.ft.shape.n[i])
        return _LeafView(self, src.reshape(len(src), d, self.grid[1], self.shape[1]), j == self.ft.shape.n[i])

    def product(self, j: int, src_rows: np.ndarray, last: bool) -> np.ndarray:
        """``src_rows T_j^*`` with the bits of the slabs: each row alone when slabs are one row, and the source
        block's last row alone when ``last`` and the slabs leave it alone."""
        alone = len(src_rows) if self.step == 1 else int(last and len(self.plan.src) % self.step == 1)
        m = len(src_rows) - alone
        entry = self.plan.entries[j]
        parts = [_letter_rows(src_rows[:m] if m > 1 else src_rows[[0, 0]], entry, None)[:m]] if m else []
        parts += [_letter_rows(src_rows[r : r + 1], entry, None) for r in range(m, len(src_rows))]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


@dataclass(frozen=True)
class _LeafView:
    """Rows of a word-model leaf split to ``(A, d, n, L)``: letter ``m + 1`` of its ``n`` writes ``[:, :, m]`` from
    the source rows ``src[:, :, :]`` of ``(A, d, L)``, whose last row is the source block's when ``last``."""

    leaf: _LeafRows
    src: np.ndarray
    last: bool

    @property
    def shape(self) -> tuple[int, ...]:
        a, d, run, width = self.src.shape
        return a, d, len(self.leaf.plan.entries), run, width

    def parts(self, box):
        """``(sel, rows)`` per letter of the leaf: its rows ``[box][sel]``."""
        sa, sd, sj, sr = box
        rows = np.ascontiguousarray(self.src[sa, sd, sr]).reshape(-1, self.src.shape[-1])
        last = self.last and (sa.stop, sd.stop, sr.stop) == self.src.shape[:3]
        shape = (sa.stop - sa.start, sd.stop - sd.start, -1, self.src.shape[-1])
        for m in range(sj.start, sj.stop):
            yield (slice(None), slice(None), m - sj.start), self.leaf.product(m + 1, rows, last).reshape(shape)


def _row_parts(targets, box):
    """``(sel, rows)``: the target rows ``[box][sel]``, whole from ``letter_rows`` or by letters from ``_LeafView``."""
    return targets.parts(box) if isinstance(targets, _LeafView) else [(..., targets[box])]


def _read_rows(targets, a: int, b: int) -> np.ndarray:
    """The target rows ``a:b``, in source order, box by box (``_boxes``) and batch by batch (``_row_parts``)."""
    out = np.empty((b - a, targets.shape[-1]), dtype=complex)
    for lo, hi, box in _boxes(targets.shape[:-1], a, b):
        for sel, rows in _row_parts(targets, box):
            out[lo - a : hi - a].reshape(*(s.stop - s.start for s in box), -1)[sel] = rows
    return out


def verify_intertwining(t: OperatorTuple, caps: tuple[int, ...], model: str = "full") -> float:
    """Max residual of ``K T_{i,j}^* = (S_{i,j}^* (x) I) K`` over grades ``q`` with ``q + e_i`` inside the caps.

    The kernel of ``t`` at ``caps`` on the truncation of ``model`` is built
    one degree at a time (``_kernel_layers``).  Its word-model leaf grades are
    never formed whole: each residual slab forms the leaf rows it reads from
    the stored rows of their source grade (``_leaf_rows``).  When the stored
    grades of degree ``L`` arrive, with the leaf plans of degree ``L + 1``, the
    pairs from stored grades of degree ``L - 1`` into them run, and so do the
    pairs from degree ``L`` into leaves; the stored grades of degree ``L - 1``
    are then dropped.  So the stored grades of two degrees are alive at a time,
    and the residuals are formed a row slab at a time (``_layer_residual``).
    The refusals come in the order of ``berezin_kernel``
    (``_kernel_truncation``, with the size budget of the whole kernel at
    ``caps``); then a factor with cap 0, which has no grade pair and whose
    identity would go untested, is refused.  The pairs the recursion wrote are
    left out (see ``_tested_pairs``), since their residuals are exactly 0.0.
    """
    dd, ft = _kernel_truncation(t, caps, model)
    if 0 in ft.shape.caps:
        raise ValueError(f"caps {ft.shape.caps} leave a factor with no grade pair to test; "
                         "every cap must be >= 1")
    worst = 0.0
    below: dict = {}  # the stored grades of the degree below
    here: dict = {}  # the leaves of this degree
    for stored, leaves in _kernel_layers(t, ft, dd):
        ahead = _leaf_rows(t, ft, leaves)
        # a pair's grades are one degree apart: from the degree below into the stored grades of this
        # degree, and from this degree into the leaves of the next
        worst = max(worst, _layer_residual(t, ft, below | stored | here, stored | ahead))
        below, here = stored, ahead
    return worst


def _leaf_rows(t: OperatorTuple, ft: FockTruncation, leaves: dict) -> dict:
    """``{u: rows}`` of the ``leaves`` of ``_kernel_layers``: ``_LeafRows`` when every letter into a leaf is a word
    letter (unweighted, at ``(j - 1) n_i^c``; a symmetric one is only at ``n_i = 1``), else ``_leaf_blocks``."""
    word = FockTruncation.factor_letter
    if all(ft.factor_letter(i, j, c - 1)[1] is None and ft.factor_letter(i, j, c - 1)[0] == word(ft, i, j, c - 1)[0]
           for u in leaves for i, c in enumerate(u) if c for j in range(1, ft.shape.n[i] + 1)):
        return {u: _LeafRows(ft, plan, ft.dim(u)) for u, plan in leaves.items()}
    return _leaf_blocks(t, ft, leaves)


def _layer_residual(t: OperatorTuple, ft: FockTruncation, lower: dict, upper: dict) -> float:
    """Max intertwining residual of the tested pairs with ``q`` in ``lower`` and ``q + e_i`` in ``upper``.

    Grades map to their blocks or their ``_LeafRows``.  The letters of one
    ``(i, q)`` are one piece, so each slab of ``K_q`` is read, or formed, once
    for all of them.  Each residual is formed in row slabs (``_by_slabs``),
    and ``cp.stacked_norm`` takes its norm from their Gram matrices in row
    order.
    """
    letters: dict = {}
    for i, j, q in _tested_pairs(ft, lower, upper):
        up = upper[bump(q, i)]
        targets, w = (up.letter_rows(i, j, q), None) if isinstance(up, _LeafRows) else ft.letter_rows(up, i, j, q)[:2]
        letters.setdefault((i, q), []).append((t.entry(i, j), targets, w))
    pieces = [(ft.dim(q), (lower[q], these)) for (i, q), these in letters.items()]
    slabs = _by_slabs(_residual_slabs, pieces, t.dimH)
    return max([0.0] + [stacked_norm(parts) for piece in slabs for parts in zip(*piece)])


def _residual_slabs(lower, letters, rows: slice) -> list[tuple[float, np.ndarray | None]]:
    """``cp.slab_gram`` of slab ``rows`` of each letter's residual ``K_q T^* - (S^* (x) I) K_{q + e_i}``.

    ``lower`` is ``K_q``; ``letters`` holds ``(T, targets, w)`` per letter:
    its target rows of ``K_{q + e_i}`` (``ft.letter_rows``, or
    ``_LeafRows.letter_rows``), read box by box (``_boxes``), and its weights
    (None: all 1, a scaling that would keep every bit), applied to a copy of
    the rows read, never to ``K_{q + e_i}``.  Beside the slab of ``K_q``, one
    residual and one batch of target rows are alive at a time.
    """
    src = lower[rows]
    grams = []
    for entry, targets, w in letters:
        resid = src @ entry.conj().T
        for lo, hi, box in _boxes(targets.shape[:-1], rows.start, rows.stop):
            part = resid[lo - rows.start : hi - rows.start].reshape(*(s.stop - s.start for s in box), -1)
            for sel, rhs in _row_parts(targets, box):
                if w is not None:
                    rhs = rhs * w[lo:hi].reshape(*rhs.shape[:-1], 1)
                view = part[sel]
                view -= rhs
                del rhs
        grams.append(slab_gram(resid, lower.shape[0]))
        del resid
    return grams


def _tested_pairs(ft: FockTruncation, grades, into):
    """``(i, j, q)`` of each pair, ``q`` in ``grades``, whose intertwining residual can be nonzero.

    Only pairs with ``q + e_i`` in ``into`` are yielded (beyond the caps there
    is no identity).  A pair is also left out when ``last_step(q + e_i) == (i,
    q)`` and its ``ft.factor_letter`` weights are all 1 (None): ``_kernel_layers`` built grade ``q + e_i``
    from ``q`` through factor ``i``, and a target of weight 1 is reached by no
    other letter, so it wrote those rows as ``K_q T_{i,j}^*`` itself and the
    residual is exactly 0.0.  Word-model weights are all 1, so there that is
    every pair whose ``q`` is 0 past factor ``i``; symmetric weights are all 1
    only for ``n_i = 1`` or ``q_i = 0``.
    """
    for i in range(ft.shape.k):
        for j in range(1, ft.shape.n[i] + 1):
            for q in grades:
                up = bump(q, i)
                if up not in into:
                    continue
                if last_step(up) != (i, q) or ft.factor_letter(i, j, q[i])[1] is not None:
                    yield i, j, q


def connection_identity(kb: BerezinKernel, q: tuple[int, ...]):
    """Both sides of ``K^*(P_q (x) I)K = Phi^q(defect)`` plus the residual."""
    if not kb.truncation.has_grade(q):
        raise ValueError(f"grade {q} beyond caps")
    rhs = kb.defect.defect
    for i in range(kb.op.k):
        rhs = cp_apply_power(kb.op, i, rhs, q[i])
    return _connection(kb.blocks[q], rhs)


def connection_residuals(t: OperatorTuple, caps: tuple[int, ...],
                         budget_caps: tuple[int, ...] | None = None) -> dict[tuple[int, ...], float]:
    """``{q: residual}`` of ``connection_identity`` on every grade of the word-model kernel at ``caps``.

    The kernel is built one degree at a time (``_kernel_layers``), and each
    block is dropped once its residual is taken: the stored grades of one
    degree and one leaf of the next are alive at a time.  ``Phi^q(D)`` is
    ``Phi_i(Phi^{q - e_i}(D))``, ``i`` the last factor with ``q_i > 0``, from
    the images of the degree below: one ``cp_apply`` per grade, in the order
    of ``connection_identity``'s maps.  The refusals and the size budget at
    ``budget_caps`` are those of ``berezin_kernel``, and every residual has
    its bits.
    """
    dd, ft = _kernel_truncation(t, caps, "full", budget_caps)
    out, images = {}, {}

    def image(q):
        return dd.defect if not any(q) else cp_apply(t, last_step(q)[0], images[last_step(q)[1]])

    for stored, leaves in _kernel_layers(t, ft, dd):
        images = {q: image(q) for q in stored}
        for q, block in stored.items():
            out[q] = _connection(block, images[q])[2]
        for u, plan in leaves.items():
            out[u] = _connection(_leaf_blocks(t, ft, {u: plan})[u], image(u))[2]
    return out


def _connection(block: np.ndarray, rhs: np.ndarray):
    """``(lhs, rhs, residual)`` of the connection identity at a grade, from its kernel block and ``Phi^q(D)``."""
    lhs = block.conj().T @ block
    return lhs, rhs, float(spectral_norms(lhs - rhs))


def identity_minus_kk_star(kb: BerezinKernel, box: FockTruncation) -> GradedOperator:
    """``I - K K^*`` on ``box``, formed in place on the ``kk_star_full`` blocks with the bits of ``identity - kk``:
    the operator whose defect the characteristic-function test reads."""
    d = kb.kk_star_full(box)
    for (src, dst), b in d.blocks.items():
        if src == dst:
            np.subtract(np.eye(len(b), dtype=complex), b, out=b)
        else:
            b *= -1.0
    return d


def has_characteristic_function(kb: BerezinKernel) -> PsdVerdict:
    """PSD test of ``Delta_{S (x) I}(I - K K^*)`` on interior grades, by ``fock.defect_verdict``.

    A zero cap reads as positive with minimum 0.0.
    """
    v = defect_verdict("characteristic-function test", kb.truncation, partial(identity_minus_kk_star, kb))
    return psd_verdict(np.zeros(0)) if v is None else v


@dataclass(frozen=True)
class TraceCheck:
    value: float  # weighted operator-trace route
    ratio: float  # per-grade ratio route
    residual: float


def curvature_operator_trace(kb: BerezinKernel, q: tuple[int, ...]) -> TraceCheck:
    """``trace[Delta_{S(x)I}(K K^*)(N_{<=q} (x) I)]`` against the grade-ratio route.

    Only grade traces enter, so the route carries the diagonals of the grade
    blocks of ``K K^*`` on the grades ``s <= q`` and never forms a block
    product.  The creation operators map basis vectors to weighted basis
    vectors, injectively for each letter, so ``id - Phi_i`` acts on those
    diagonals by scattering squared shift weights; both models differ only in
    the ``factor_letter`` weights.  The squares are the exact ratios, never a
    rounded square root squared.  Grade ``s`` reads only the grades ``s - e_i``
    below it, so ``q`` may reach the caps.
    """
    ft = kb.truncation
    caps = ft.shape.caps
    if len(q) != ft.shape.k or any(qi < 0 for qi in q):
        raise ValueError(f"grade {q} must have {ft.shape.k} non-negative entries")
    if any(qi > c for qi, c in zip(q, caps)):
        raise ValueError(f"grade {q} lies beyond caps {caps}")
    lattice = list(iter_grades(q))
    diag = {s: np.einsum("rh,rh->r", kb.blocks[s], kb.blocks[s].conj()).real for s in lattice}
    for i in range(ft.shape.k):
        nxt = {}
        for s in lattice:
            if s[i] == 0:
                nxt[s] = diag[s]
                continue
            src = bump(s, i, -1)
            # sum every letter first, subtract once: keeps exact values such as 1.0 exact
            shifted = np.zeros(ft.dim(s))
            for j in range(1, ft.shape.n[i] + 1):
                targets, _, squares = ft.letter_rows(shifted, i, j, src)
                targets[...] += (diag[src] if squares is None else squares * diag[src]).reshape(targets.shape)
            nxt[s] = diag[s] - shifted
        diag = nxt
    value = 0.0
    for s in lattice:
        value += float(diag[s].sum()) / ft.word_dim(s)
    ratio = float(np.trace(kb.grade_gram(q)).real) / ft.word_dim(q)
    return TraceCheck(value, ratio, abs(value - ratio))


@dataclass
class InnerMultiplier:
    """Symbol coefficients of a multi-analytic operator, one block per multi-degree.

    ``coeffs[d]`` has shape ``(num_basis(d), dim_target, dim_source)``; entry
    ``b`` is the coefficient of the degree-``d`` symbol basis vector of index
    ``b``: the tensor word in the ``"full"`` model, the monomial ``z^b`` in the
    ``"symmetric"`` model.  The operator multiplies by the symbol, which in the
    word model extends a source word on the right, factor by factor.
    """

    shape: Shape
    dim_source: int
    dim_target: int
    coeffs: dict[tuple[int, ...], np.ndarray] = field(default_factory=dict)
    model: str = "full"
    isometric: bool = False

    def materialize_blocks(self, caps: tuple[int, ...]) -> dict:
        """Blocks ``(source grade s) -> (target grade s + d)`` on the truncation of ``self.model``.

        The vacuum block ``(0 -> d)`` is ``coeffs[d]`` scaled by the norms of the
        symbol basis vectors.  Every other block follows one grade down by
        ``Theta S_{i,j} = S_{i,j} Theta``, with ``i`` the last factor where
        ``s_i > 0``: ``B[s -> t] = (w_t B[s - e_i -> t - e_i]) / w_s`` on the
        ``S_{i,j}`` targets.  Their bytes, ``16 ds dt`` times the sum over
        degrees ``d`` of ``prod_i sum_{c <= caps_i - d_i} f_i(c + d_i) f_i(c)``
        (``f_i`` the grade dimensions of factor ``i``), are checked first.
        """
        shape = Shape(self.shape.n, caps)
        ds, dt = self.dim_source, self.dim_target
        src = truncation_for(self.model, shape, ds)
        dst = truncation_for(self.model, shape, dt)
        f = src.factor_dim
        entries = sum(math.prod(sum(f(i, c + di) * f(i, c) for c in range(cap - di + 1))
                                for i, (cap, di) in enumerate(zip(shape.caps, d))) for d in self.coeffs)
        require_budget(f"multiplier blocks at caps {shape.caps}", 16 * ds * dt * entries)
        blocks: dict = {}
        for d, coeff in self.coeffs.items():
            for s in src.grades:
                tgrade = tuple(si + di for si, di in zip(s, d))
                if not dst.has_grade(tgrade):
                    continue
                if not any(s):
                    norms = _basis_norms(src, d)
                    if len(coeff) != len(norms):
                        raise ValueError(f"degree {d} needs {len(norms)} coefficients, got {len(coeff)}")
                    blocks[(s, tgrade)] = (norms[:, None, None] * coeff).reshape(dst.dim(d), ds).astype(complex)
                    continue
                i, s0 = last_step(s)
                t0 = bump(tgrade, i, -1)
                prev = blocks[(s0, t0)]
                block = np.zeros((dst.dim(tgrade), src.dim(s)), dtype=complex)
                for j in range(1, shape.n[i] + 1):
                    rows, w_t, _ = dst.letter_rows(block, i, j, t0)
                    sub = rows[...]  # the rows themselves, or a copy that is written back
                    cols, w_s, _ = src.letter_rows(np.moveaxis(sub, -1, 0), i, j, s0)
                    value = ((1.0 if w_t is None else w_t[:, None]) * prev) / (1.0 if w_s is None else w_s)
                    cols[...] = value.T.reshape(cols.shape)
                    rows[...] = sub
                blocks[(s, tgrade)] = block
        return blocks

    def interior_grades(self, ft: FockTruncation) -> list[tuple[int, ...]]:
        """Grades ``s`` of ``ft`` with ``s + d`` inside the caps for every symbol degree ``d``."""
        top = [max((d[i] for d in self.coeffs), default=0) for i in range(ft.shape.k)]
        return [s for s in ft.grades if all(si + m <= c for si, m, c in zip(s, top, ft.shape.caps))]


def _basis_norms(ft: FockTruncation, q: tuple[int, ...]) -> np.ndarray:
    """Norms of the grade-``q`` symbol basis vectors (1 for words, ``sqrt(b!/|b|!)`` for ``z^b``).

    Each is the product of the shift weights along a path from the vacuum.
    """
    norms = {}
    for p in iter_grades(q):
        if not any(p):
            norms[p] = np.ones(1)
            continue
        i, p0 = last_step(p)
        v = np.empty(ft.word_dim(p))
        for j in range(1, ft.shape.n[i] + 1):
            rows, w, _ = ft.letter_rows(v, i, j, p0)
            rows[...] = (norms[p0] if w is None else norms[p0] * w).reshape(rows.shape)
        norms[p] = v
    return norms[q]


def monomial_multiplier(shape: Shape, factor: int, word: tuple[int, ...]) -> InnerMultiplier:
    """Right extension by a single word in one factor; an isometric multiplier."""
    d = tuple(len(word) if i == factor else 0 for i in range(shape.k))
    num = grade_dim(Shape(shape.n), d)
    coeff = np.zeros((num, 1, 1), dtype=complex)
    rank = word_rank(shape.n[factor], word)
    coeff[rank, 0, 0] = 1.0
    return InnerMultiplier(Shape(shape.n), 1, 1, {d: coeff}, isometric=True)


def validate_multiplier(theta: InnerMultiplier, caps: tuple[int, ...]) -> float:
    """Blockwise intertwining residual against the universal shifts; isometry if flagged."""
    return _validate_blocks(theta, theta.materialize_blocks(caps), caps)


def _validate_blocks(theta: InnerMultiplier, blocks: dict, caps: tuple[int, ...]) -> float:
    shape = Shape(theta.shape.n, caps)
    ds, dt = theta.dim_source, theta.dim_target
    src_ft = truncation_for(theta.model, shape, ds)
    dst_ft = truncation_for(theta.model, shape, dt)
    worst = 0.0
    for (s, tgrade), b in blocks.items():
        for i in range(shape.k):
            s_up, t_up = bump(s, i), bump(tgrade, i)
            if not (src_ft.has_grade(s_up) and dst_ft.has_grade(t_up)):
                continue
            up_block = blocks.get((s_up, t_up))
            if up_block is None:
                up_block = np.zeros((dst_ft.dim(t_up), src_ft.dim(s_up)), dtype=complex)
            resid = np.empty((shape.n[i], dst_ft.dim(t_up), src_ft.dim(s)), dtype=complex)
            for j in range(1, shape.n[i] + 1):
                # Theta S_{i,j} minus S_{i,j} Theta on source grade s, through the letter's rows and columns
                cols, w_s, _ = src_ft.letter_rows(up_block.T, i, j, s)
                resid[j - 1] = cols[...].reshape(src_ft.dim(s), dst_ft.dim(t_up)).T * (1.0 if w_s is None else w_s)
                rows, w_t, _ = dst_ft.letter_rows(resid[j - 1], i, j, tgrade)
                rows[...] -= (b if w_t is None else w_t[:, None] * b).reshape(rows.shape)
            worst = max(worst, float(spectral_norms(resid).max()))
    # the residual is rounding in the weighted recursion, so it grows with the coefficients
    scale = max((float(np.abs(b).max()) for b in blocks.values() if b.size), default=0.0)
    if not tolerance("multiplier", worst, scale)[0]:
        raise ValueError(f"multiplier does not intertwine the shifts (residual {worst:.3e})")
    if theta.isometric:
        # Theta^* Theta - I on interior source grades: the Gram of the adjoint blocks B[s->t]^*
        interior = theta.interior_grades(src_ft)
        adjoints = {(t, s): b.conj().T for (s, t), b in blocks.items()}
        resid = _slab_residual(src_ft.dim, interior, _sources(adjoints, dst_ft.grades, interior))
        if not tolerance("intertwine", resid)[0]:
            raise ValueError(f"multiplier flagged isometric but Theta*Theta != I (residual {resid:.3e})")
    return worst


@dataclass(frozen=True)
class IndexCheck:
    lhs: float
    rhs: float
    residual: float
    completion_residual: float


def _require_same_model(theta: InnerMultiplier, ft: FockTruncation, what: str) -> None:
    """Refuse, by name, a multiplier of the other model than ``ft``'s: grade dimensions and weights differ."""
    if theta.model != ft.model:
        raise ValueError(f"a {theta.model!r}-model multiplier on a {ft.model!r}-model {what}")


def index_formula_check(kb: BerezinKernel, theta: InnerMultiplier, blocks: dict | None = None) -> IndexCheck:
    """``curv = rank - trace[Theta (P_C (x) I) Theta^* (N_{<=q} (x) I)]`` at the depth ``q = caps - 1``.

    Serves both models: the multiplier must be of the kernel's model and must
    complete the kernel range projection to the identity on interior grades;
    otherwise it is rejected.  ``blocks`` are ``theta``'s, materialized at the
    kernel's caps, when the caller has them.
    """
    ft = kb.truncation
    require_index_caps(ft.shape.caps)
    _require_same_model(theta, ft, "kernel")
    blocks = theta.materialize_blocks(ft.shape.caps) if blocks is None else blocks
    _validate_blocks(theta, blocks, ft.shape.caps)
    return index_check_from_blocks(kb, theta, blocks)


def require_index_caps(caps: tuple[int, ...]) -> None:
    """Refuse a zero cap: the index check reads the grades ``q <= caps - 1``, and a zero cap leaves none."""
    if 0 in caps:
        raise ValueError(f"caps {tuple(caps)} leave a factor with no interior grade to check the index on; "
                         "every cap must be >= 1")


def index_check_from_blocks(kb, theta, blocks) -> IndexCheck:
    """Shared finite-depth index evaluation given materialized multiplier blocks."""
    ft = kb.truncation
    q = tuple(c - 1 for c in ft.shape.caps)
    comp = _completion_residual(kb, theta, blocks)
    if not tolerance("completion", comp)[0]:
        raise ValueError(f"K K* + Theta Theta* != I on interior grades (residual {comp:.3e})")
    lhs = curvature_operator_trace(kb, q).value
    term = 0.0
    zero = (0,) * ft.shape.k
    for s in iter_grades(q):
        b0 = blocks.get((zero, s))
        if b0 is not None:
            term += float(np.linalg.norm(b0) ** 2) / ft.word_dim(s)
    rhs = kb.defect.rank - term
    return IndexCheck(lhs, rhs, abs(lhs - rhs), comp)


def _completion_residual(kb: BerezinKernel, theta: InnerMultiplier, blocks) -> float:
    """Largest block norm of ``K K^* + Theta Theta^* - I`` on interior grades; sources in ``ft.grades`` order."""
    ft = kb.truncation
    interior = theta.interior_grades(ft)
    return _slab_residual(ft.dim, interior, _sources(blocks, ft.grades, interior), kb.blocks)


def _sources(blocks: dict, sources, grades) -> list[dict]:
    """``{q: B[s->q]}`` for each grade ``s`` of ``sources``, in that order, with a block into ``grades``.

    The block keys are read once, so the cost is linear in the blocks.
    """
    into, outs = set(grades), {s: {} for s in sources}
    for (s, q), b in blocks.items():
        if q in into and s in outs:
            outs[s][q] = b
    return [o for o in outs.values() if o]


def _slab_residual(dim, grades, sources, kernel: dict | None = None, minus=None) -> float:
    """Largest block norm of ``K K^* + sum_s B_s B_s^* - M`` on ``grades``, by column slabs.

    The one routine of the three multiplier Gram identities: the completion
    ``K K^* + Theta Theta^* = I``, the isometry ``Theta^* Theta = I`` (adjoint
    blocks as sources) and ``P_M = sum_s Psi_s Psi_s^*``.  ``sources`` holds
    one ``{q: B_s[q]}`` per source (see ``_sources``); ``kernel`` the blocks
    ``K_q``, or None for no ``K K^*`` term; ``minus(p)`` column ``p`` of ``M`` as
    ``{q: M[p->q]}``, or None for the identity.

    The slab of column ``p`` is the stacked kernel rows times ``K_p^*``, plus one
    product per block of each source feeding ``p`` (sources in their order),
    minus ``M``'s column last.  Grades are ordered by dimension, so the blocks
    of one row dimension are one contiguous stack and take one
    ``spectral_norms`` call.  No grades-square matrix is formed.
    """
    order = sorted(grades, key=dim)
    if not order:
        return 0.0
    ends = np.cumsum([0] + [dim(q) for q in order]).tolist()
    offset = dict(zip(order, ends))
    runs: dict = {}  # row dimension -> (first row, block count)
    for q in order:
        start, count = runs.get(dim(q), (offset[q], 0))
        runs[dim(q)] = (start, count + 1)
    k_rows = None if kernel is None else np.concatenate([kernel[q] for q in order])
    feeds: dict = {}  # column grade -> the sources with a block there, in their order
    for outs in sources:
        for p in outs:
            feeds.setdefault(p, []).append(outs)
    worst = 0.0
    for p in order:
        slab = np.zeros((ends[-1], dim(p)), dtype=complex) if k_rows is None else k_rows @ kernel[p].conj().T
        for outs in feeds.get(p, ()):
            bp_h = outs[p].conj().T
            for q, bq in outs.items():
                slab[offset[q] : offset[q] + dim(q)] += bq @ bp_h
        for q, m in ({p: np.eye(dim(p))} if minus is None else minus(p)).items():
            slab[offset[q] : offset[q] + dim(q)] -= m
        for d, (start, count) in runs.items():
            stack = slab[start : start + count * d].reshape(count, d, dim(p))
            worst = max(worst, float(spectral_norms(stack).max()))
    return worst


@gc_paused
def multiplier_to_json(theta: InnerMultiplier) -> str:
    return json.dumps(
        {
            "model": theta.model,
            "n": list(theta.shape.n),
            "dim_source": theta.dim_source,
            "dim_target": theta.dim_target,
            "isometric": theta.isometric,
            "blocks": [
                {
                    "degree": list(d),
                    "coeffs": [matrix_to_pairs(mat) for mat in coeff],
                }
                for d, coeff in sorted(theta.coeffs.items())
            ],
        }
    )


@gc_paused
def multiplier_from_json(text: str) -> InnerMultiplier:
    """A multiplier from its JSON; a field that is missing, null or of the wrong type is refused by name."""
    data = json.loads(text)
    n = tuple(json_field(data, "n", "ints"))
    ds, dt = json_field(data, "dim_source", "int"), json_field(data, "dim_target", "int")
    coeffs = {}
    for entry in json_field(data, "blocks", "list"):
        d = tuple(json_field(entry, "degree", "ints"))
        if len(d) != len(n):
            raise ValueError(f"field 'degree' must have {len(n)} entries, one per factor; got {len(d)}")
        mats = [matrix_from_pairs(flat, dt, ds) for flat in json_field(entry, "coeffs", "list")]
        coeffs[d] = np.stack(mats, axis=0)
    isometric = data.get("isometric", False)
    if not isinstance(isometric, bool):  # bool("false") is True
        raise ValueError("field 'isometric' must be true or false")
    return InnerMultiplier(Shape(n), ds, dt, coeffs, model=require_model(data.get("model", "full")),
                           isometric=isometric)

"""Reference routes the library no longer runs, kept for the tests to compare against.

* ``grade_trace_table_walk``: one transfer-map application per lattice point,
  the depth-first walk over every factor that the trace-duality table replaced.
* ``defect_product_traces``: ``trace[(id - Phi_1^{q+1}) ... (id - Phi_k^{q+1})(I)]``
  recomputed from the identity for every ``q``; the library reads these traces
  off the cumulative sums of the grade table instead.
* ``completion_residual_pairs``: the block norms of ``K K^* + Theta Theta^* - I``
  one grade pair at a time, each by SVD; the library builds whole column slabs
  and takes their block norms from batched Gram spectra.
* ``embedding_matrix`` and ``folded_berezin``: the symmetrization isometry
  from monomials into words, and the symmetric kernel obtained by folding the
  word-model kernel through it; the library builds the symmetric kernel on its
  own truncation instead.
* ``defect_shift_composed``: ``(id - Phi_1) ... (id - Phi_k)(y)`` as one new
  operator per factor, ``out - apply_cp_shift(out, i)``; the library applies
  each ``id - Phi_i`` in place on ``y``'s blocks.
* ``interior_verdict``: the PSD verdict of an operator already shifted on the
  whole truncation, read on the grades it is given; the library forms and
  shifts only the interior box, in ``fock.defect_verdict``.
* ``intertwining_residuals``: the residual of ``K T_{i,j}^* = (S_{i,j}^* (x) I) K``
  for every letter and grade pair; the library leaves out the pairs the
  kernel recursion wrote, whose residuals are exactly 0.0.
* ``connection_payload_full``: the ``check connection`` payload read off a
  kernel at the full ``--caps``; the command builds only the box
  ``min(qmax, caps)`` that it reads.
* ``enumerate_words``, ``word_unrank`` and ``leq``: the words of one length in
  rank order, the inverse of ``basis.word_rank``, and the componentwise order
  of multi-degrees; the library addresses words by rank arithmetic alone.
* ``graded_projection`` and ``vacuum_projection``: grade-diagonal projections
  as block-graded operators.
* ``min_eig``, ``cp_matrix`` and ``defect_map_expanded``: the smallest
  eigenvalue of the Hermitian part, the transfer map as a dense
  ``dimH**2 x dimH**2`` matrix, and the defect map by binomial expansion.
* ``word_product_adjoint``: ``T_{i,word}^*`` as one product of adjoints; the
  kernel recursion writes those rows one letter at a time.
* ``grade_trace``: one normalized grade trace by iterating the transfer maps;
  the library fills the whole box by trace duality.
* ``isometry_defect``: ``||I - K^* K||`` of a kernel, summed over its grades.
* ``monomial_weight`` and ``universal_factorial_form_value``: exact monomial
  norms, and the factorial form of the universal commutative tuple from exact
  counts.
* ``op_identity``, ``op_block``, ``op_trace`` and ``op_grade_trace``: the
  identity as a block-graded operator, one block (zeros when it is not
  stored), and the whole and one-grade traces; an empty operator is
  ``GradedOperator(ft)``.
* ``creation_op`` and ``apply_cp_shift``: the creation operator of one letter
  as a block-graded operator, and the transfer map of the universal shift of
  one factor as a new operator; the library describes shifts by index maps
  and applies ``id - Phi_i`` in place, in ``fock.defect_shift``.
* ``tail_bound``: ``berezin.kernel_tail_bound`` at a kernel's own caps;
  ``check connection`` calls ``kernel_tail_bound`` with its ``--caps``.
* ``partial_sum``: the sum of the digits of a digit expansion with exponent at
  most ``q``; the library counts the suffix subspace's grades in closed form.
* ``index_kernel_blocks``, ``IndexLeafRows`` and ``index_verify_intertwining``:
  the kernel recursion, the leaf rows and the intertwining residuals with
  every letter's targets as a ``shift`` index map, scattered and gathered by
  fancy indexing; the library reads a letter's targets through
  ``FockTruncation.letter_rows``: strided views of its runs, and a gather of
  the factor's positions for the symmetric letters that are not one run.
* ``index_materialize_blocks``, ``index_validate_residual`` and
  ``index_operator_trace``: the multiplier recursion, its intertwining
  residual and the operator-trace route with every letter as a ``shift``
  index map.
* ``index_shift_data``: ``FockTruncation.shift_data`` from the basis itself,
  words or monomials listed and multiplied by the letter one at a time; the
  library reads it off ``letter_rows`` of the word positions.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import partial

import numpy as np

from polyball.basis import Shape, grade_dim, iter_grades
from polyball import berezin
from polyball.berezin import BerezinKernel, berezin_kernel, connection_identity, kernel_tail_bound
from polyball.cp import (
    OperatorTuple,
    PsdVerdict,
    cp_apply,
    cp_apply_power,
    defect_data,
    herm,
    psd_verdict,
    require_budget,
    slab_gram,
    spectral_norms,
    stacked_norm,
)
from polyball.curvature import _real
from polyball.fock import FockTruncation, GradedOperator, _cp_shift_blocks, bump, last_step, truncation_for
from polyball.subspaces import NAdicExpansion
from polyball.symmetric import SymFockTruncation, monomials


def grade_trace_table_walk(t: OperatorTuple, qmax: tuple[int, ...], word_dim=None) -> dict[tuple[int, ...], float]:
    """Normalized grade traces on the box ``q <= qmax``: ``trace[Phi^q(defect)] / word_dim(q)``."""
    if word_dim is None:
        word_dim = partial(grade_dim, t.shape)
    table: dict[tuple[int, ...], float] = {}

    def walk(i: int, y: np.ndarray, prefix: tuple[int, ...]) -> None:
        if i == t.k:
            table[prefix] = float(_real(np.trace(y))) / word_dim(prefix)
            return
        cur = y
        for qi in range(qmax[i] + 1):
            walk(i + 1, cur, prefix + (qi,))
            if qi < qmax[i]:
                cur = cp_apply(t, i, cur)

    walk(0, defect_data(t).defect, ())
    return table


def defect_product_traces(t: OperatorTuple, q_max: int) -> list[float]:
    """``trace[(id - Phi_1^{q+1}) ... (id - Phi_k^{q+1})(I)]`` for ``q = 0..q_max``."""
    out = []
    eye = np.eye(t.dimH, dtype=complex)
    for qq in range(q_max + 1):
        y = eye
        for i in range(t.k):
            y = y - cp_apply_power(t, i, y, qq + 1)
        out.append(float(np.trace(y).real))
    return out


def completion_residual_pairs(kb, theta, blocks) -> float:
    """``max || (K K^* + Theta Theta^* - I)[qq, p] ||_2`` over interior grade pairs, pair by pair."""
    ft = kb.truncation
    interior = theta.interior_grades(ft)
    # target grade -> {source grade: block}, sources in ``ft.grades`` order
    into: dict = {t: {} for t in ft.grades}
    for s in ft.grades:
        for t in ft.grades:
            b = blocks.get((s, t))
            if b is not None:
                into[t][s] = b
    worst = 0.0
    for p in interior:
        kp_h = kb.blocks[p].conj().T
        for qq in interior:
            val = kb.blocks[qq] @ kp_h
            tt = np.zeros_like(val)
            for s, bq in into[qq].items():
                bp = into[p].get(s)
                if bp is not None:
                    tt += bq @ bp.conj().T
            expected = np.eye(ft.dim(qq)) if p == qq else np.zeros((ft.dim(qq), ft.dim(p)))
            worst = max(worst, float(np.linalg.norm(val + tt - expected, 2)))
    return worst


def embedding_matrix(n: int, q: int) -> np.ndarray:
    """Isometry from the degree-``q`` monomial slice into the degree-``q`` word slice.

    Column ``alpha`` is the normalized sum of the word vectors with content
    ``alpha``.
    """
    mons = monomials(n, q)
    index = {m: c for c, m in enumerate(mons)}
    contents = [index[tuple(word.count(letter) for letter in range(1, n + 1))]
                for word in itertools.product(range(1, n + 1), repeat=q)]
    counts = np.bincount(contents, minlength=len(mons))
    v = np.zeros((n**q, len(mons)), dtype=complex)
    for widx, c in enumerate(contents):
        v[widx, c] = 1.0 / math.sqrt(counts[c])
    return v


def folded_berezin(t: OperatorTuple, caps: tuple[int, ...]) -> BerezinKernel:
    """Symmetric kernel of a commutative tuple as ``V^*`` applied to the word kernel, grade by grade.

    ``V`` is the tensor product of the ``embedding_matrix`` isometries of the
    factors, acting on the word index with the coefficient index untouched.
    """
    kb = berezin_kernel(t, caps)
    r = kb.truncation.coeff_dim
    sf = SymFockTruncation(kb.truncation.shape, coeff_dim=r)
    blocks = {}
    for q in sf.grades:
        v = np.array([[1.0]], dtype=complex)
        for i in range(t.k):
            v = np.kron(v, embedding_matrix(t.shape.n[i], q[i]))
        folded = kb.blocks[q].reshape(kb.truncation.word_dim(q), r, t.dimH)
        blocks[q] = np.einsum("wm,wrh->mrh", v.conj(), folded).reshape(sf.dim(q), t.dimH)
    return BerezinKernel(t, sf, blocks, kb.defect)


def defect_shift_composed(y: GradedOperator) -> GradedOperator:
    """``(id - Phi_1) o ... o (id - Phi_k)`` applied to ``y`` without touching it, one new operator per factor."""
    out = y
    for i in range(y.trunc.shape.k):
        out = out - apply_cp_shift(out, i)
    return out


def interior_verdict(d: GradedOperator, interior) -> PsdVerdict:
    """PSD verdict of the Hermitian part of ``d`` on ``interior``: one ``to_dense``, one spectrum.

    A diagonal interior is its own spectrum; anything else takes one ``eigvalsh``.
    """
    h = d.to_dense(interior, hermitian=True)
    diag = h.diagonal()
    return psd_verdict(np.sort(diag.real) if np.count_nonzero(h) == np.count_nonzero(diag) else np.linalg.eigvalsh(h))


def intertwining_residuals(kb: BerezinKernel) -> dict[tuple, float]:
    """``(i, j, q) -> ||K_q T_{i,j}^* - (S_{i,j}^* (x) I) K_{q + e_i}||`` for every ``q + e_i`` inside the caps."""
    ft, t = kb.truncation, kb.op
    out = {}
    for i in range(t.k):
        for j in range(1, t.shape.n[i] + 1):
            for q in ft.grades:
                up = bump(q, i)
                if not ft.has_grade(up):
                    continue
                resid = kb.blocks[q] @ t.entry(i, j).conj().T
                targets, w, _ = ft.shift(i, j, q)
                rhs = kb.blocks[up][targets]
                rhs *= w[:, None]
                resid -= rhs
                out[(i, j, q)] = float(spectral_norms(resid))
    return out


def connection_payload_full(t: OperatorTuple, caps: tuple[int, ...], qmax: int, tol: float) -> dict:
    """The ``check connection`` JSON payload, table included, from a kernel built at ``caps``."""
    kb = berezin_kernel(t, caps)
    grades = sorted(iter_grades(tuple(min(qmax, c) for c in caps)))
    resids = [connection_identity(kb, q)[2] for q in grades]
    return {
        "command": "check",
        "kind": "connection",
        "caps": list(caps),
        "max_residual": max(resids),
        "tail_bound": tail_bound(kb),
        "tol": tol,
        "within_tol": max(resids) <= tol,
        "table": [{f"q{i + 1}": q[i] for i in range(t.k)} | {"residual": r} for q, r in zip(grades, resids)],
    }


def enumerate_words(n_i: int, q: int) -> list[tuple[int, ...]]:
    """All ``n_i**q`` words of length ``q``, lexicographically ordered; ``q=0`` gives the identity."""
    if n_i < 1 or q < 0:
        raise ValueError(f"need n_i >= 1 and q >= 0, got n_i={n_i}, q={q}")
    return list(itertools.product(range(1, n_i + 1), repeat=q))


def word_unrank(n_i: int, q: int, rank: int) -> tuple[int, ...]:
    """Inverse of ``basis.word_rank`` at length ``q``."""
    if not 0 <= rank < n_i**q:
        raise ValueError(f"rank {rank} out of range for n_i={n_i}, q={q}")
    letters = []
    for _ in range(q):
        rank, digit = divmod(rank, n_i)
        letters.append(digit + 1)
    return tuple(reversed(letters))


def leq(q: tuple[int, ...], p: tuple[int, ...]) -> bool:
    """Componentwise partial order on multi-degrees."""
    return all(a <= b for a, b in zip(q, p))


def graded_projection(ft: FockTruncation, q: tuple[int, ...]) -> GradedOperator:
    """Orthogonal projection onto the grade-``q`` slice."""
    if not ft.has_grade(q):
        raise ValueError(f"grade {q} beyond caps {ft.shape.caps}")
    return GradedOperator(ft, {(q, q): np.eye(ft.dim(q), dtype=complex)})


def vacuum_projection(ft: FockTruncation, i: int | None = None) -> GradedOperator:
    """Projection onto the vacuum slice of factor ``i`` (all factors when ``i`` is None)."""
    return GradedOperator(ft, {(q, q): np.eye(ft.dim(q), dtype=complex) for q in ft.grades
                               if not (any(q) if i is None else q[i])})


def min_eig(a: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of ``a``; 0.0 for an empty matrix."""
    return float(np.linalg.eigvalsh(herm(a))[0]) if a.size else 0.0


def cp_matrix(t: OperatorTuple, i: int) -> np.ndarray:
    """Dense ``dimH**2 x dimH**2`` matrix of the factor-``i`` transfer map, sized against the budget first."""
    require_budget(f"dense transfer matrix of dimH {t.dimH}", 16 * t.dimH**4)
    out = np.zeros((t.dimH**2, t.dimH**2), dtype=complex)
    for a in t.factors[i]:
        out += np.kron(a, a.conj())
    return out


def defect_map_expanded(t: OperatorTuple, p: tuple[int, ...], y: np.ndarray) -> np.ndarray:
    """Binomial expansion ``sum_{0<=s<=p} (-1)^{|s|} C(p,s) Phi^s(y)`` of ``cp.defect_map``."""
    out = np.zeros((t.dimH, t.dimH), dtype=complex)
    for s in itertools.product(*(range(v + 1) for v in p)):
        term = np.asarray(y, dtype=complex)
        for i in range(t.k):
            term = cp_apply_power(t, i, term, s[i])
        coeff = (-1) ** sum(s)
        for pi, si in zip(p, s):
            coeff *= math.comb(pi, si)
        out += coeff * term
    return out


def word_product_adjoint(t: OperatorTuple, i: int, word: tuple[int, ...]) -> np.ndarray:
    """``T_{i,word}^* = T_{j_p}^* ... T_{j_1}^*`` for a letter word of factor ``i``."""
    out = np.eye(t.dimH, dtype=complex)
    for letter in word:
        out = t.entry(i, letter).conj().T @ out
    return out


def grade_trace(t: OperatorTuple, q: tuple[int, ...]) -> float:
    """Normalized trace ``trace[Phi^q(defect)] / prod n_i**q_i`` at one grade."""
    y = defect_data(t).defect
    for i in range(t.k):
        y = cp_apply_power(t, i, y, q[i])
    return float(_real(np.trace(y))) / grade_dim(t.shape, q)


def isometry_defect(kb: BerezinKernel) -> float:
    """``||I - K^* K||``; bounded by the tail for pure tuples."""
    gram = sum(kb.grade_gram(q) for q in kb.truncation.grades)
    return float(spectral_norms(np.eye(kb.op.dimH) - gram))


def monomial_weight(alpha: tuple[int, ...]) -> Fraction:
    """Squared monomial norm ``alpha! / |alpha|!``, exact."""
    num = 1
    for a in alpha:
        num *= math.factorial(a)
    return Fraction(num, math.factorial(sum(alpha)))


def universal_factorial_form_value(n: tuple[int, ...], q: int) -> float:
    """Factorial-form sequence of the universal commutative tuple, from exact counts."""
    if q < 1:
        raise ValueError("the factorial form needs q >= 1")
    total = math.prod(math.comb(q + ni, ni) for ni in n)
    fact = math.prod(math.factorial(ni) for ni in n)
    return fact * total / math.prod(float(q) ** ni for ni in n)


def op_identity(ft: FockTruncation) -> GradedOperator:
    return GradedOperator(ft, {(q, q): np.eye(ft.dim(q), dtype=complex) for q in ft.grades})


def op_block(op: GradedOperator, src, dst) -> np.ndarray:
    """The block ``src -> dst`` of ``op``, zeros when it is not stored."""
    b = op.blocks.get((src, dst))
    return np.zeros((op.trunc.dim(dst), op.trunc.dim(src)), dtype=complex) if b is None else b


def op_trace(op: GradedOperator) -> complex:
    return sum(np.trace(b) for (src, dst), b in op.blocks.items() if src == dst)


def op_grade_trace(op: GradedOperator, q: tuple[int, ...]) -> complex:
    b = op.blocks.get((q, q))
    return complex(np.trace(b)) if b is not None else 0.0


def creation_op(ft: FockTruncation, i: int, j: int) -> GradedOperator:
    """Creation operator of factor ``i``, letter ``j``, tensored with the coefficient identity."""
    if not 1 <= j <= ft.shape.n[i]:
        raise ValueError(f"letter {j} out of range for factor {i}")
    blocks = {}
    for q in ft.grades:
        up = bump(q, i)
        if not ft.has_grade(up):
            continue
        rows, w, _ = ft.shift(i, j, q)
        b = np.zeros((ft.dim(up), ft.dim(q)), dtype=complex)
        b[rows, np.arange(ft.dim(q))] = w
        blocks[(q, up)] = b
    return GradedOperator(ft, blocks)


def apply_cp_shift(y: GradedOperator, i: int) -> GradedOperator:
    """Transfer map of the universal shift of factor ``i`` applied blockwise.

    Block support moves up by one grade in factor ``i``; blocks that would
    cross the caps are dropped, so the interior margin grows by one there.
    """
    return GradedOperator(y.trunc, dict(_cp_shift_blocks(y, i)), bump(y.margin, i))


def tail_bound(kb: BerezinKernel) -> float:
    """``kernel_tail_bound`` at the kernel's caps."""
    return kernel_tail_bound(kb.op, kb.truncation.shape.caps)


def partial_sum(exp: NAdicExpansion, q: int) -> Fraction:
    """Sum of the stored digits with exponent at most ``q``."""
    return sum(
        (Fraction(d, exp.base**k) for k, d in zip(exp.exponents, exp.digits) if k <= q),
        Fraction(0),
    )


# -- the index-map route of the kernel recursion and the intertwining residuals --------------------------------


def _index_plan(t: OperatorTuple, ft: FockTruncation, q: tuple[int, ...], below: dict):
    """``(source block, [(T, targets, kept, w)])``: the letters of grade ``q`` as ``ft.shift`` index maps."""
    i, src = last_step(q)
    written = np.zeros(ft.dim(q), dtype=bool)
    letters = []
    for j in range(t.shape.n[i], 0, -1):
        targets, w, _ = ft.shift(i, j, src)
        kept = None
        fresh = ~written[targets]
        if not fresh.all():
            kept, targets, w = np.flatnonzero(fresh), targets[fresh], w[fresh]
        if (w == 1.0).all():
            w = None
        written[targets] = True
        letters.append((t.entry(i, j), targets, kept, w))
    return below[src], letters


def _index_write_rows(block, targets, src, kept, entry, w, rows):
    block[targets[rows]] = berezin._letter_rows(src[rows if kept is None else kept[rows]], entry,
                                                None if w is None else w[rows])


def _index_pieces(block, plan) -> list:
    src, letters = plan
    return [(len(targets), (block, targets, src, kept, entry, w)) for entry, targets, kept, w in letters]


def index_kernel_layers(t: OperatorTuple, ft: FockTruncation, dd):
    """``berezin._kernel_layers`` with every letter's rows scattered through its index map."""
    by_degree = [[] for _ in range(sum(ft.shape.caps) + 2)]
    for q in ft.grades:
        by_degree[sum(q)].append(q)
    stored: dict = {}
    for grades, ahead in zip(by_degree, by_degree[1:]):
        layer, pieces = {}, []
        for q in grades:
            if not any(q):
                layer[q] = dd.range_basis.conj().T @ dd.sqrt
            elif not berezin._is_leaf(ft, q):
                layer[q] = np.zeros((ft.dim(q), t.dimH), dtype=complex)
                pieces += _index_pieces(layer[q], _index_plan(t, ft, q, stored))
        berezin._by_slabs(_index_write_rows, pieces, t.dimH)
        stored = layer
        yield stored, {u: _index_plan(t, ft, u, stored) for u in ahead if berezin._is_leaf(ft, u)}


def index_kernel_blocks(t: OperatorTuple, caps: tuple[int, ...], model: str = "full") -> dict:
    """The blocks of ``berezin_kernel`` by the index-map route."""
    dd, ft = berezin._kernel_truncation(t, caps, model)
    blocks: dict = {}
    for stored, leaves in index_kernel_layers(t, ft, dd):
        blocks |= stored
        pieces = []
        for u, plan in leaves.items():
            blocks[u] = np.zeros((ft.dim(u), t.dimH), dtype=complex)
            pieces += _index_pieces(blocks[u], plan)
        berezin._by_slabs(_index_write_rows, pieces, t.dimH)
    return blocks


class IndexLeafRows:
    """``berezin._LeafRows`` by per-row index arrays: each row's letter, source row and weight, and whether its
    ``_write_rows`` slab holds it alone."""

    def __init__(self, plan, rows: int):
        self.src, letters = plan
        self.entries = [entry for entry, *_ in letters]
        self.letter = np.empty(rows, dtype=int)
        self.source = np.empty(rows, dtype=int)
        self.weight = np.ones(rows)
        self.alone = np.zeros(rows, dtype=bool)
        step = berezin._slab_rows(self.src.shape[1])
        for m, (_, targets, kept, w) in enumerate(letters):
            self.letter[targets] = m
            self.source[targets] = np.arange(len(targets)) if kept is None else kept
            if w is not None:
                self.weight[targets] = w
            if step == 1:
                self.alone[targets] = True
            elif len(targets) % step == 1:
                self.alone[targets[-1]] = True

    def __len__(self) -> int:
        return len(self.letter)

    def __getitem__(self, idx) -> np.ndarray:
        if isinstance(idx, slice):
            idx = np.arange(*idx.indices(len(self)))
        out = np.empty((len(idx), self.src.shape[1]), dtype=complex)
        letter, alone = self.letter[idx], self.alone[idx]
        for m, entry in enumerate(self.entries):
            together = np.flatnonzero((letter == m) & ~alone)
            if len(together) == 1:
                together = np.repeat(together, 2)
            for sel in [together, *np.flatnonzero((letter == m) & alone)[:, None]]:
                if len(sel):
                    r = idx[sel]
                    w = self.weight[r]
                    out[sel] = berezin._letter_rows(self.src[self.source[r]], entry, None if (w == 1.0).all() else w)
        return out


def _index_residual_slabs(lower, upper, letters, rows):
    src = lower[rows]
    grams = []
    for entry, targets, w in letters:
        resid = src @ entry.conj().T
        rhs = np.take(upper, targets[rows], axis=0) if isinstance(upper, np.ndarray) else upper[targets[rows]]
        if w is not None:
            rhs *= w[rows][:, None]
        resid -= rhs
        grams.append(slab_gram(resid, len(lower)))
    return grams


def index_verify_intertwining(t: OperatorTuple, caps: tuple[int, ...], model: str = "full") -> float:
    """``berezin.verify_intertwining`` with the pairs' targets as ``ft.shift`` index maps, gathered by ``np.take``,
    and the leaf rows formed by ``IndexLeafRows``."""
    dd, ft = berezin._kernel_truncation(t, caps, model)
    worst, below, here = 0.0, {}, {}
    for stored, leaves in index_kernel_layers(t, ft, dd):
        ahead = {u: IndexLeafRows(plan, ft.dim(u)) for u, plan in leaves.items()}
        lower, upper = below | stored | here, stored | ahead
        letters: dict = {}
        for i, j, q in berezin._tested_pairs(ft, lower, upper):
            targets, w, _ = ft.shift(i, j, q)
            letters.setdefault((i, q), []).append((t.entry(i, j), targets, None if (w == 1.0).all() else w))
        pieces = [(ft.dim(q), (lower[q], upper[bump(q, i)], these)) for (i, q), these in letters.items()]
        slabs = berezin._by_slabs(_index_residual_slabs, pieces, t.dimH)
        worst = max([worst] + [stacked_norm(parts) for piece in slabs for parts in zip(*piece)])
        below, here = stored, ahead
    return worst


def index_shift_data(ft: FockTruncation, i: int, j: int, q: tuple[int, ...]):
    """``ft.shift_data(i, j, q)`` from the factor bases: a word takes the digit ``j`` in front, a monomial
    ``alpha`` becomes ``alpha + e_j`` with squared weight ``(alpha_j + 1)/(q_i + 1)``."""
    def basis(l, c):
        return enumerate_words(ft.shape.n[l], c) if ft.model == "full" else list(monomials(ft.shape.n[l], c))

    up = {x: r for r, x in enumerate(basis(i, q[i] + 1))}
    if ft.model == "full":
        letter = [(up[(j,) + x], 1.0) for x in basis(i, q[i])]
    else:
        letter = [(up[tuple(a + (l == j - 1) for l, a in enumerate(x))], (x[j - 1] + 1) / (q[i] + 1))
                  for x in basis(i, q[i])]
    dims = [len(basis(l, c)) for l, c in enumerate(q)]
    ranks = list(np.unravel_index(np.arange(math.prod(dims)), dims))
    squares = np.array([sq for _, sq in letter])[ranks[i]]
    ranks[i] = np.array([r for r, _ in letter])[ranks[i]]
    return np.ravel_multi_index(tuple(ranks), [len(up) if l == i else d for l, d in enumerate(dims)]), \
        np.sqrt(squares), squares


def _index_basis_norms(ft: FockTruncation, q: tuple[int, ...]) -> np.ndarray:
    """``berezin._basis_norms`` by the ``shift_data`` index maps."""
    norms = {}
    for p in iter_grades(q):
        if not any(p):
            norms[p] = np.ones(1)
            continue
        i, p0 = last_step(p)
        v = np.empty(ft.word_dim(p))
        for j in range(1, ft.shape.n[i] + 1):
            tgt, w, _ = ft.shift_data(i, j, p0)
            v[tgt] = norms[p0] * w
        norms[p] = v
    return norms[q]


def index_materialize_blocks(theta, caps: tuple[int, ...]) -> dict:
    """``InnerMultiplier.materialize_blocks`` with each letter's rows and columns as ``shift`` index maps."""
    shape = Shape(theta.shape.n, caps)
    src = truncation_for(theta.model, shape, theta.dim_source)
    dst = truncation_for(theta.model, shape, theta.dim_target)
    blocks: dict = {}
    for d, coeff in theta.coeffs.items():
        for s in src.grades:
            tgrade = tuple(si + di for si, di in zip(s, d))
            if not dst.has_grade(tgrade):
                continue
            if not any(s):
                norms = _index_basis_norms(src, d)
                blocks[(s, tgrade)] = (norms[:, None, None] * coeff).reshape(dst.dim(d), -1).astype(complex)
                continue
            i, s0 = last_step(s)
            prev = blocks[(s0, bump(tgrade, i, -1))]
            block = np.zeros((dst.dim(tgrade), src.dim(s)), dtype=complex)
            for j in range(1, shape.n[i] + 1):
                rows, w_t, _ = dst.shift(i, j, bump(tgrade, i, -1))
                cols, w_s, _ = src.shift(i, j, s0)
                block[np.ix_(rows, cols)] = (w_t[:, None] * prev) / w_s
            blocks[(s, tgrade)] = block
    return blocks


def index_validate_residual(theta, blocks: dict, caps: tuple[int, ...]) -> float:
    """The intertwining residual of ``berezin.validate_multiplier``, ``Theta S_{i,j} - S_{i,j} Theta`` block by
    block, with every letter as a ``shift`` index map."""
    shape = Shape(theta.shape.n, caps)
    src = truncation_for(theta.model, shape, theta.dim_source)
    dst = truncation_for(theta.model, shape, theta.dim_target)
    worst = 0.0
    for (s, tgrade), b in blocks.items():
        for i in range(shape.k):
            s_up, t_up = bump(s, i), bump(tgrade, i)
            if not (src.has_grade(s_up) and dst.has_grade(t_up)):
                continue
            up_block = blocks.get((s_up, t_up))
            if up_block is None:
                up_block = np.zeros((dst.dim(t_up), src.dim(s_up)), dtype=complex)
            resid = np.empty((shape.n[i], dst.dim(t_up), src.dim(s)), dtype=complex)
            for j in range(1, shape.n[i] + 1):
                cols, w_s, _ = src.shift(i, j, s)
                resid[j - 1] = up_block[:, cols] * w_s
                rows, w_t, _ = dst.shift(i, j, tgrade)
                resid[j - 1][rows] -= w_t[:, None] * b
            worst = max(worst, float(spectral_norms(resid).max()))
    return worst


def index_operator_trace(kb: BerezinKernel, q: tuple[int, ...]) -> float:
    """The value of ``berezin.curvature_operator_trace`` with the squared weights scattered by ``shift`` index maps."""
    ft = kb.truncation
    lattice = list(iter_grades(q))
    diag = {s: np.einsum("rh,rh->r", kb.blocks[s], kb.blocks[s].conj()).real for s in lattice}
    for i in range(ft.shape.k):
        nxt = {}
        for s in lattice:
            if s[i] == 0:
                nxt[s] = diag[s]
                continue
            src = bump(s, i, -1)
            shifted = np.zeros(ft.dim(s))
            for j in range(1, ft.shape.n[i] + 1):
                rows, _, squares = ft.shift(i, j, src)
                shifted[rows] += squares * diag[src]
            nxt[s] = diag[s] - shifted
        diag = nxt
    value = 0.0
    for s in lattice:
        value += float(diag[s].sum()) / ft.word_dim(s)
    return value

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
"""

from __future__ import annotations

import itertools
import math
from functools import partial

import numpy as np

from polyball.basis import grade_dim, iter_grades
from polyball.berezin import BerezinKernel, berezin_kernel, connection_identity
from polyball.cp import OperatorTuple, PsdVerdict, cp_apply, cp_apply_power, defect_data, psd_verdict, spectral_norms
from polyball.curvature import _real
from polyball.fock import GradedOperator, apply_cp_shift, bump
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


def defect_shift_composed(y: GradedOperator, factors=None) -> GradedOperator:
    """``(id - Phi_1) o ... o (id - Phi_k)`` applied to ``y`` without touching it, one new operator per factor."""
    out = y
    for i in range(y.trunc.shape.k) if factors is None else factors:
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
        "tail_bound": kb.tail_bound,
        "tol": tol,
        "within_tol": max(resids) <= tol,
        "table": [{f"q{i + 1}": q[i] for i in range(t.k)} | {"residual": r} for q, r in zip(grades, resids)],
    }

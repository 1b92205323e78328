"""Invariant subspaces of truncated Fock tensor products and their multiplicity.

Three representations are supported:

* ``structured``: the subspace meets every grade in a coordinate subspace,
  described by an exact index set per grade.  Per-grade traces are exact
  integers and deep-grade limits are exact rationals; nothing needs to be
  materialized.  All named constructions (digit-expansion subspaces, their
  tensor products, the single-ladder complement, finite codimension) are of
  this form.
* ``basis``: one orthonormal basis matrix per grade.
* ``span``: orthonormal columns over the whole truncation, for subspaces
  that do not split per multi-degree (needed by non-graded fixtures).

Invariance is certified, not assumed: constructors and loaders can emit
per-grade residuals of shift invariance, with boundary components at the
truncation caps excluded.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .basis import Shape, word_rank
from .cp import OperatorTuple, matrix_from_pairs, matrix_to_pairs, max_spectral_norm, require_budget
from .curvature import CurvEstimate, _complement_curvature, _occupation, _ratio_table, _summary
from .fock import (
    FockTruncation,
    GradedOperator,
    bump,
    defect_verdict,
    truncation_for,
)

GRAM_TOL = 1e-12
INVARIANCE_TOL = 1e-10
DECOMPOSITION_TOL = 1e-10
SUPPORT_TOL = 1e-12


class InvarianceError(ValueError):
    """A subspace fails shift invariance beyond tolerance."""


@dataclass
class GradedSubspace:
    truncation: FockTruncation
    kind: str
    index_set_fn: object | None = None
    limit: Fraction | None = None
    grade_bases: dict | None = None
    columns: np.ndarray | None = None
    count_fn: object | None = None  # closed-form per-grade count, avoids materializing
    params: dict = field(default_factory=dict)

    # -- mode dispatch -----------------------------------------------------

    @property
    def mode(self) -> str:
        if self.index_set_fn is not None:
            return "structured"
        if self.grade_bases is not None:
            return "basis"
        return "span"

    def grade_trace_exact(self, q) -> int | None:
        """Exact trace of the range projection on grade ``q``, when countable."""
        if self.count_fn is not None:
            return int(self.count_fn(q))
        if self.index_set_fn is not None:
            return len(self.index_set_fn(q))
        if self.grade_bases is not None:
            b = self.grade_bases.get(q)
            return 0 if b is None else b.shape[1]
        return None

    def grade_trace(self, q) -> float:
        exact = self.grade_trace_exact(q)
        if exact is not None:
            return float(exact)
        ft = self.truncation
        rows = self.columns[ft.offset(q) : ft.offset(q) + ft.dim(q), :]
        return float(np.linalg.norm(rows) ** 2)

    def grade_basis(self, q) -> np.ndarray:
        """Orthonormal basis of the grade-``q`` slice (graded modes only)."""
        ft = self.truncation
        if self.index_set_fn is not None:
            return _coordinate_basis(ft.dim(q), np.asarray(self.index_set_fn(q), dtype=int))
        if self.grade_bases is not None:
            b = self.grade_bases.get(q)
            return b if b is not None else np.zeros((ft.dim(q), 0), dtype=complex)
        raise ValueError("a span-mode subspace has no per-grade basis")

    def complement_grade_basis(self, q) -> np.ndarray:
        ft = self.truncation
        if self.index_set_fn is not None:
            outside = np.ones(ft.dim(q), dtype=bool)
            outside[np.asarray(self.index_set_fn(q), dtype=int)] = False
            return _coordinate_basis(ft.dim(q), np.flatnonzero(outside))
        if self.grade_bases is not None:
            return _orthogonal_complement(self.grade_basis(q))
        raise ValueError("a span-mode subspace has no per-grade complement")

    def complement_columns(self) -> np.ndarray:
        if self.columns is None:
            raise ValueError("complement_columns applies to span mode")
        return _orthogonal_complement(self.columns)

    # -- projections and certificates ---------------------------------------

    def projection(self, box: FockTruncation | None = None) -> GradedOperator:
        """The range projection as a block-graded operator on ``box`` (default: the whole truncation).

        ``box`` is a smaller truncation of the same model and coefficient
        space, such as ``interior_box``; index sets, grade bases and column
        rows of a grade do not depend on the caps, so the blocks formed are
        those of the whole projection.
        """
        ft = self.truncation
        box = ft if box is None else box
        if self.mode == "span":
            blocks = {}
            off = {q: ft.offset(q) for q in box.grades}
            for p in box.grades:
                rows_p = self.columns[off[p] : off[p] + ft.dim(p), :]
                for q in box.grades:
                    rows_q = self.columns[off[q] : off[q] + ft.dim(q), :]
                    b = rows_q @ rows_p.conj().T
                    if np.linalg.norm(b) > 0:
                        blocks[(p, q)] = b
            return GradedOperator(box, blocks)
        blocks = {}
        for q in box.grades:
            if self.index_set_fn is not None:
                idx = np.asarray(self.index_set_fn(q), dtype=int)
                if idx.size:
                    b = np.zeros((ft.dim(q), ft.dim(q)), dtype=complex)
                    b[idx, idx] = 1.0
                    blocks[(q, q)] = b
            else:
                b = self.grade_basis(q)
                if b.shape[1]:
                    blocks[(q, q)] = b @ b.conj().T
        return GradedOperator(box, blocks)

    def gram_residual(self) -> float:
        """How far the stored bases are from orthonormal."""
        bases = list((self.grade_bases or {}).values())
        if self.columns is not None:
            bases.append(self.columns)
        return max_spectral_norm(b.conj().T @ b - np.eye(b.shape[1]) for b in bases)

    def certify_invariance(self) -> float:
        """Max residual of shift invariance; boundary components are excluded."""
        ft = self.truncation
        caps = ft.shape.caps
        worst = 0.0
        if self.mode == "span":
            q_proj = self.columns @ self.columns.conj().T
            for i in range(ft.shape.k):
                cap_rows = np.concatenate(
                    [np.arange(ft.offset(q), ft.offset(q) + ft.dim(q)) for q in ft.grades if q[i] == caps[i]]
                )
                for j in range(1, ft.shape.n[i] + 1):
                    shifted = _apply_shift_columns(ft, i, j, self.columns)
                    resid = shifted - q_proj @ shifted
                    for c in range(self.columns.shape[1]):
                        if np.linalg.norm(self.columns[cap_rows, c]) > SUPPORT_TOL:
                            continue  # shift dropped components at the cap
                        worst = max(worst, float(np.linalg.norm(resid[:, c])))
            return worst
        for q in ft.grades:
            b = self.grade_basis(q)
            if not b.shape[1]:
                continue
            for i in range(ft.shape.k):
                up = bump(q, i)
                if not ft.has_grade(up):
                    continue
                b_up = self.grade_basis(up)
                resids = []
                for j in range(1, ft.shape.n[i] + 1):
                    rows, w, _ = ft.shift(i, j, q)
                    v = np.zeros((ft.dim(up), b.shape[1]), dtype=complex)
                    v[rows] = w[:, None] * b
                    resids.append(v - b_up @ (b_up.conj().T @ v))
                worst = max(worst, max_spectral_norm(resids))
        return worst


def _coordinate_basis(dim: int, idx: np.ndarray) -> np.ndarray:
    """The columns ``idx`` of the ``dim x dim`` identity."""
    b = np.zeros((dim, len(idx)), dtype=complex)
    b[idx, np.arange(len(idx))] = 1.0
    return b


def _orthogonal_complement(b: np.ndarray) -> np.ndarray:
    dim, m = b.shape
    if m == 0:
        return np.eye(dim, dtype=complex)
    u, s, _ = np.linalg.svd(b, full_matrices=True)
    rank = int(np.sum(s > 1e-12))
    return u[:, rank:]


def _apply_shift_columns(ft, i, j, columns):
    """Shift acting on full-height column stacks, dropping cap-grade sources."""
    out = np.zeros_like(columns)
    for q in ft.grades:
        up = bump(q, i)
        if not ft.has_grade(up):
            continue
        src = columns[ft.offset(q) : ft.offset(q) + ft.dim(q), :]
        rows, w, _ = ft.shift(i, j, q)
        out[ft.offset(up) + rows, :] += w[:, None] * src
    return out


# -- constructions ----------------------------------------------------------


def full_subspace(ft: FockTruncation) -> GradedSubspace:
    return GradedSubspace(ft, "full", index_set_fn=lambda q: np.arange(ft.dim(q)),
                          limit=Fraction(ft.coeff_dim), count_fn=ft.dim, params={})


def zero_subspace(ft: FockTruncation) -> GradedSubspace:
    return GradedSubspace(ft, "zero", index_set_fn=lambda q: np.arange(0),
                          limit=Fraction(0), count_fn=lambda q: 0, params={})


@dataclass(frozen=True)
class NAdicExpansion:
    """Greedy digit expansion of ``1 - t`` in base ``n`` with digits ``1..n-1``."""

    base: int
    target: float
    exponents: tuple[int, ...]
    digits: tuple[int, ...]
    tail: Fraction
    value: Fraction  # sum of d_p / n^{k_p}


def construct_nadic(n_i: int, t: float, n_terms: int = 20) -> NAdicExpansion:
    """Digit extraction for ``1 - t``, skipping zero digits by advancing the exponent."""
    if n_i < 2:
        raise ValueError("digit expansions need at least 2 generators")
    if not 0 <= t < 1:
        raise ValueError(f"target must lie in [0, 1), got {t}")
    if n_terms < 1:
        raise ValueError(f"a digit expansion needs at least 1 term, got {n_terms}")
    remainder = 1 - Fraction(t)
    exponents: list[int] = []
    digits: list[int] = []
    k = 0
    while remainder > 0 and len(digits) < n_terms and k < 10_000:
        k += 1
        d = int(remainder * n_i**k)
        d = min(d, n_i - 1)
        if d == 0:
            continue
        exponents.append(k)
        digits.append(d)
        remainder -= Fraction(d, n_i**k)
    value = sum((Fraction(d, n_i**k) for k, d in zip(exponents, digits)), Fraction(0))
    return NAdicExpansion(n_i, t, tuple(exponents), tuple(digits), remainder, value)


def construct_mt(exp: NAdicExpansion, cap: int) -> GradedSubspace:
    """Single-factor subspace spanned by the words whose suffix lies in the digit word sets.

    The shift prepends letters, so suffix sets are invariant; the grade-``q``
    trace is exactly ``sum_{k_p <= q} d_p n^{q - k_p}``.
    """
    n = exp.base
    if exp.exponents and cap < exp.exponents[0]:
        raise ValueError(f"cap {cap} is below the leading exponent {exp.exponents[0]}")
    suffixes: list[tuple[int, ...]] = []
    prev = 0
    for p, (k, d) in enumerate(zip(exp.exponents, exp.digits)):
        for j in range(1, d + 1):
            if p == 0:
                suffixes.append((j,) * k)
            else:
                suffixes.append((j,) * (k - prev) + (n,) * prev)
        prev = k
    ft = FockTruncation(Shape((n,), caps=(cap,)), coeff_dim=1)

    def index_set(q):
        # a word ends with suffix s exactly when its rank is rank(s) mod n**len(s)
        ranks = np.arange(n ** q[0])
        keep = np.zeros(len(ranks), dtype=bool)
        for s in suffixes:
            if len(s) <= q[0]:
                keep |= ranks % n ** len(s) == word_rank(n, s)
        return ranks[keep]

    def count(q):
        return sum(d * n ** (q[0] - k) for k, d in zip(exp.exponents, exp.digits) if k <= q[0])

    sub = GradedSubspace(
        ft,
        "mt",
        index_set_fn=index_set,
        limit=exp.value,
        count_fn=count,
        params={
            "n": n,
            "t": exp.target,
            "exponents": list(exp.exponents),
            "digits": list(exp.digits),
        },
    )
    for q in ft.grades:
        if q[0] > 8:
            break  # suffix sets verified exhaustively on small grades only
        if len(index_set(q)) != count(q):
            raise RuntimeError(f"suffix count mismatch at grade {q}")
    return sub


def cur0_subspace(n_1: int, cap: int) -> GradedSubspace:
    """Single-factor subspace whose complement is the ladder of powers of the first letter."""
    if n_1 < 2:
        raise ValueError("needs at least 2 generators")
    ft = FockTruncation(Shape((n_1,), caps=(cap,)), coeff_dim=1)

    def index_set(q):
        return np.arange(1, n_1 ** q[0])  # every word but the ladder (1,...,1), which has rank 0

    return GradedSubspace(ft, "cur0", index_set_fn=index_set, limit=Fraction(1),
                          count_fn=lambda q: n_1 ** q[0] - 1, params={"n": n_1})


def finite_codim_subspace(shape_n, caps, min_total_degree: int, dim_e: int = 1) -> GradedSubspace:
    """All grades of total degree at least ``min_total_degree``; finite codimension."""
    ft = FockTruncation(Shape(tuple(shape_n), caps=tuple(caps)), coeff_dim=dim_e)
    r = int(min_total_degree)

    def index_set(q):
        return np.arange(ft.dim(q)) if sum(q) >= r else np.arange(0)

    return GradedSubspace(ft, "finite_codim", index_set_fn=index_set,
                          limit=Fraction(dim_e),
                          count_fn=lambda q: ft.dim(q) if sum(q) >= r else 0,
                          params={"min_total_degree": r})


def tensor_subspace(parts: list[GradedSubspace]) -> GradedSubspace:
    """Tensor product of single-factor (or lower-arity) graded subspaces.

    Per-grade traces multiply exactly; so do the known limits.
    """
    if not parts:
        raise ValueError("need at least one part")
    if any(p.mode == "span" for p in parts):
        raise ValueError("tensor parts must be graded (structured or basis mode)")
    if any(p.truncation.model != "full" for p in parts):
        raise ValueError("tensor parts must be of the word model ('full')")
    n: tuple[int, ...] = ()
    caps: tuple[int, ...] = ()
    dim_e = 1
    for p in parts:
        n += p.truncation.shape.n
        caps += p.truncation.shape.caps
        dim_e *= p.truncation.coeff_dim
    ft = FockTruncation(Shape(n, caps=caps), coeff_dim=dim_e)
    arities = [p.truncation.shape.k for p in parts]
    limit = None
    if all(p.limit is not None for p in parts):
        limit = math.prod((p.limit for p in parts), start=Fraction(1))

    def split(q):
        out, pos = [], 0
        for a in arities:
            out.append(tuple(q[pos : pos + a]))
            pos += a
        return out

    def combine_indices(pieces, sets):
        # part indices are word*coeff interleaved per factor; the ambient layout
        # is word-major over all factors, then the combined coefficient index
        w_tot = sets[0] // parts[0].truncation.coeff_dim
        e_tot = sets[0] % parts[0].truncation.coeff_dim
        for p, piece, s in zip(parts[1:], pieces[1:], sets[1:]):
            cd = p.truncation.coeff_dim
            wd = p.truncation.word_dim(piece)
            w_tot = (w_tot[:, None] * wd + (s // cd)[None, :]).reshape(-1)
            e_tot = (e_tot[:, None] * cd + (s % cd)[None, :]).reshape(-1)
        return w_tot * dim_e + e_tot

    structured = all(p.index_set_fn is not None for p in parts)
    if structured:

        def index_set(q):
            pieces = split(q)
            sets = [np.asarray(p.index_set_fn(piece), dtype=int) for p, piece in zip(parts, pieces)]
            if any(len(s) == 0 for s in sets):
                return np.arange(0)
            return np.sort(combine_indices(pieces, sets))

        def count(q):
            total = 1
            for p, piece in zip(parts, split(q)):
                total *= p.grade_trace_exact(piece)
            return total

        return GradedSubspace(ft, "tensor", index_set_fn=index_set, limit=limit,
                              count_fn=count,
                              params={"parts": [_part_params(p) for p in parts]})

    def bases(q):
        pieces = split(q)
        mats = [p.grade_basis(piece) for p, piece in zip(parts, pieces)]
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        dims = [p.truncation.dim(piece) for p, piece in zip(parts, pieces)]
        sets = [np.arange(d) for d in dims]
        perm = combine_indices(pieces, sets)
        reordered = np.zeros_like(out)
        reordered[perm, :] = out
        return reordered

    grade_bases = {q: bases(q) for q in ft.grades}
    return GradedSubspace(ft, "tensor", grade_bases=grade_bases, limit=limit)


def _part_params(part: GradedSubspace) -> dict:
    """Params of a tensor part: its ``n`` if multi-factor (its arity on load), its ``dimE`` if above 1."""
    out = part.params | {"kind": part.kind}
    if part.truncation.shape.k > 1:
        out["n"] = list(part.truncation.shape.n)
    if part.truncation.coeff_dim > 1:
        out["dimE"] = part.truncation.coeff_dim
    return out


def uncountable_family(t: float, omega: float, caps, n=(2, 2), n_terms: int = 20) -> GradedSubspace:
    """Two-parameter family with compression curvature ``t`` for every ``omega``.

    Factor one carries the expansion of ``omega``, factor two the expansion of
    ``(1 - t) / omega``; remaining factors, if any, stay full.
    """
    if not 0 < t < 1:
        raise ValueError(f"t must lie in (0, 1), got {t}")
    if not 1 - t < omega < 1:
        raise ValueError(f"omega must lie in ({1 - t}, 1), got {omega}")
    if len(n) < 2 or n[0] < 2 or n[1] < 2:
        raise ValueError("needs two factors with at least 2 generators each")
    if len(caps) != len(n):
        raise ValueError(f"caps {tuple(caps)} must carry one entry per factor of n {tuple(n)}")
    exp1 = construct_nadic(n[0], 1 - omega, n_terms)
    target2 = 1 - (1 - Fraction(t)) / Fraction(omega)
    exp2 = construct_nadic(n[1], float(target2), n_terms)
    parts = [construct_mt(exp1, caps[0]), construct_mt(exp2, caps[1])]
    for i in range(2, len(n)):
        parts.append(full_subspace(FockTruncation(Shape((n[i],), caps=(caps[i],)))))
    sub = tensor_subspace(parts)
    sub.params["family"] = {"t": t, "omega": omega}
    return sub


def span_subspace(ft: FockTruncation, vectors: np.ndarray) -> GradedSubspace:
    """Subspace spanned by explicit full-height vectors; orthonormalized on entry."""
    require_budget(f"span subspace at caps {ft.shape.caps}", 16 * ft.total_dim**2)
    v = np.asarray(vectors, dtype=complex)
    if v.ndim != 2 or v.shape[0] != ft.total_dim:
        raise ValueError(f"vectors must be columns of height {ft.total_dim}")
    q, r = np.linalg.qr(v)
    keep = np.abs(np.diag(r)) > 1e-12
    return GradedSubspace(ft, "span", columns=q[:, keep])


def bidisc_difference_subspace(caps=(5, 5)) -> GradedSubspace:
    """Invariant span generated by the difference of the two coordinate vectors
    in the two-factor rank-one model; the standard non-Beurling example."""
    ft = FockTruncation(Shape((1, 1), caps=tuple(caps)), coeff_dim=1)
    seed = np.zeros((ft.total_dim, 1), dtype=complex)
    seed[ft.offset((1, 0)), 0] = 1.0
    seed[ft.offset((0, 1)), 0] = -1.0
    return invariant_span(ft, seed)


def invariant_span(ft: FockTruncation, seeds: np.ndarray) -> GradedSubspace:
    """Smallest shift-invariant subspace of the truncation containing the seeds."""
    cols = [np.asarray(s, dtype=complex) for s in np.asarray(seeds, dtype=complex).T]
    frontier = list(cols)
    while frontier:
        nxt = []
        for i in range(ft.shape.k):
            for j in range(1, ft.shape.n[i] + 1):
                shifted = _apply_shift_columns(ft, i, j, np.stack(frontier, axis=1))
                for c in range(shifted.shape[1]):
                    v = shifted[:, c]
                    if np.linalg.norm(v) > 1e-12:
                        nxt.append(v)
        added = []
        basis = np.stack(cols, axis=1)
        for v in nxt:
            w = v - basis @ (basis.conj().T @ v)
            if np.linalg.norm(w) > 1e-10:
                w = w / np.linalg.norm(w)
                cols.append(w)
                added.append(w)
                basis = np.stack(cols, axis=1)
        frontier = added
    return span_subspace(ft, np.stack(cols, axis=1))


# -- estimators and checks ---------------------------------------------------


@dataclass
class MultiplicityEstimate:
    """Per-grade occupation ratios of a subspace with corner and Cesaro forms."""

    n: tuple[int, ...]
    grade_values: dict
    corner_seq: list[float]
    cesaro_seq: list[float]
    estimate: float
    error_proxy: float
    exact_values: dict | None
    exact_limit: Fraction | None
    curvature: CurvEstimate
    caveats: tuple[str, ...] = ()


def multiplicity_estimate(sub: GradedSubspace, q_max: int) -> MultiplicityEstimate:
    """Per-grade ratios ``y_q = trace[P_M (P_q (x) I)] / trace[P_q]`` and their limits.

    Every grade is counted once; the compression curvature is read off the
    same counts as ``x_q = dim E - y_q``, so the complement identity
    ``y_q(M) + y_q(M perp) = dim E`` holds by construction.
    """
    occupation = _occupation(sub, q_max)
    table, exact = _ratio_table(occupation)
    return MultiplicityEstimate(
        **_summary(sub.truncation.shape.n, table),
        exact_values=exact,
        exact_limit=sub.limit,
        curvature=_complement_curvature(sub, occupation),
    )


@dataclass(frozen=True)
class BeurlingVerdict:
    positive: bool
    min_eigenvalue: float
    residual_grades: int


def beurling_check(sub: GradedSubspace) -> BeurlingVerdict:
    """PSD test of the defect of the range projection under the universal shifts, by ``fock.defect_verdict``.

    A structured subspace gives a diagonal defect, whose diagonal is its
    spectrum; basis and span mode take one ``eigvalsh``.
    """
    v = defect_verdict("Beurling test", sub.truncation, sub.projection)
    if v is None:
        raise ValueError("caps too small for the one-grade interior margin")
    return BeurlingVerdict(v.positive, v.min_eigenvalue, math.prod(sub.truncation.shape.caps))


@dataclass(frozen=True)
class InnerSequenceReport:
    ok: bool
    decomposition_residual: float
    grade_values: dict
    corner_value: float


def inner_sequence_check(sub: GradedSubspace, psis, q_max: int) -> InnerSequenceReport:
    """Verify ``P_M = sum psi_s psi_s^*`` and the normalized occupation sums.

    Each ``psi`` must be of the subspace's model; one of the other model is
    refused by name, as ``index_formula_check`` refuses it.

    The residual is ``berezin._slab_residual`` over every grade, one column at
    a time: column ``p`` of ``P_M`` is read from ``grade_basis(p)``, or from the
    span columns, so ``P_M`` is never formed whole.
    """
    from .berezin import _require_same_model, _slab_residual, _sources, validate_multiplier

    ft = sub.truncation
    caps = ft.shape.caps
    sources = []
    for psi in psis:
        _require_same_model(psi, ft, "subspace")
        validate_multiplier(psi, caps)
        if psi.dim_target != ft.coeff_dim:
            raise ValueError("multiplier target space must match the subspace coefficients")
        sources += _sources(psi.materialize_blocks(caps), ft.grades, ft.grades)

    def rows(q):
        return sub.columns[ft.offset(q) : ft.offset(q) + ft.dim(q)]

    def column(p):
        if sub.mode == "span":
            rows_p_h = rows(p).conj().T
            return {q: rows(q) @ rows_p_h for q in ft.grades}
        b = sub.grade_basis(p)
        return {p: b @ b.conj().T}

    worst = _slab_residual(ft.dim, ft.grades, sources, minus=column)
    if worst > DECOMPOSITION_TOL:
        raise ValueError(f"inner decomposition residual {worst:.3e} too large")
    sums = {q: sum(float(np.linalg.norm(outs[q]) ** 2) for outs in sources if q in outs) / ft.word_dim(q)
            for q in ft.grades}
    corner = sums[tuple(min(q_max, c) for c in caps)]
    return InnerSequenceReport(True, worst, sums, corner)


def compression_tuple(sub: GradedSubspace) -> OperatorTuple:
    """Explicit matrices of the shift compression to the orthocomplement on the whole truncation.

    Meant for spot checks at small caps; large-scale curvature goes through
    the per-grade counting route instead.
    """
    ft = sub.truncation
    require_budget(f"compression tuple at caps {ft.shape.caps}", 16 * ft.total_dim**2)
    if sub.mode == "span":
        comp = sub.complement_columns()
    else:
        cols = []
        for q in ft.grades:
            cb = sub.complement_grade_basis(q)
            full = np.zeros((ft.total_dim, cb.shape[1]), dtype=complex)
            full[ft.offset(q) : ft.offset(q) + ft.dim(q), :] = cb
            cols.append(full)
        comp = np.concatenate(cols, axis=1) if cols else np.zeros((ft.total_dim, 0), dtype=complex)
    m = comp.shape[1]
    factors = []
    for i in range(ft.shape.k):
        row = []
        for j in range(1, ft.shape.n[i] + 1):
            shifted = _apply_shift_columns(ft, i, j, comp)
            row.append(comp.conj().T @ shifted)
        factors.append(tuple(row))
    return OperatorTuple(Shape(ft.shape.n), m, tuple(factors))


# -- serialization ------------------------------------------------------------


def subspace_to_json(sub: GradedSubspace) -> str:
    ft = sub.truncation
    head = {
        "model": ft.model,
        "n": list(ft.shape.n),
        "caps": list(ft.shape.caps),
        "dimE": ft.coeff_dim,
    }
    if sub.mode == "structured":
        return json.dumps(head | {"mode": "structured", "kind": sub.kind, "params": sub.params})
    if sub.mode == "basis":
        grades = [
            {"q": list(q), "basis": matrix_to_pairs(b), "cols": b.shape[1]}
            for q, b in sorted(sub.grade_bases.items())
            if b.shape[1]
        ]
        return json.dumps(head | {"mode": "basis", "grades": grades})
    vecs = [matrix_to_pairs(col) for col in sub.columns.T]
    return json.dumps(head | {"mode": "span", "vectors": vecs})


def subspace_from_json(text: str) -> GradedSubspace:
    data = json.loads(text)
    n = tuple(int(v) for v in data["n"])
    caps = tuple(int(v) for v in data["caps"])
    dim_e = int(data.get("dimE", 1))
    ft = truncation_for(data.get("model", "full"), Shape(n, caps=caps), dim_e)
    mode = data["mode"]
    if mode not in ("structured", "basis", "span"):
        raise ValueError(f"unknown subspace mode {mode!r}; expected structured, basis or span")
    if mode == "structured":
        sub = _structured_from_params(data["kind"], data.get("params", {}), n, caps, dim_e, ft)
        if sub.truncation != ft:  # the class too: a model is a truncation class
            raise ValueError(f"structured {data['kind']!r} subspace lives on {_describe(sub.truncation)}, "
                             f"but the head says {_describe(ft)}")
        return sub
    if mode == "basis":
        bases = {}
        for entry in data["grades"]:
            q = tuple(int(v) for v in entry["q"])
            bases[q] = matrix_from_pairs(entry["basis"], ft.dim(q), int(entry["cols"]))
        sub = GradedSubspace(ft, "basis", grade_bases=bases)
    else:
        sub = span_subspace(ft, np.hstack([matrix_from_pairs(col, ft.total_dim, 1) for col in data["vectors"]]))
    if sub.gram_residual() > GRAM_TOL:
        raise ValueError("loaded basis is not orthonormal")
    resid = sub.certify_invariance()
    if resid > INVARIANCE_TOL:
        raise InvarianceError(f"loaded subspace is not shift invariant (residual {resid:.3e})")
    return sub


def _describe(ft: FockTruncation) -> str:
    return f"model {ft.model!r}, n {list(ft.shape.n)}, caps {list(ft.shape.caps)}, dimE {ft.coeff_dim}"


def _structured_from_params(kind: str, params: dict, n, caps, dim_e, ft=None) -> GradedSubspace:
    if ft is None:
        ft = FockTruncation(Shape(n, caps=caps), coeff_dim=dim_e)
    if kind == "coordinate_multiple":
        from .symmetric import coordinate_multiple_subspace

        return coordinate_multiple_subspace(ft, int(params["factor"]), int(params["var"]))
    if kind == "full":
        return full_subspace(ft)
    if kind == "zero":
        return zero_subspace(ft)
    if getattr(ft, "model", "full") == "symmetric":
        raise ValueError(f"structured kind {kind!r} is word-model only")
    if kind == "mt":
        exp = NAdicExpansion(
            int(params["n"]),
            float(params["t"]),
            tuple(int(v) for v in params["exponents"]),
            tuple(int(v) for v in params["digits"]),
            Fraction(0),
            sum(
                (Fraction(int(d), int(params["n"]) ** int(k))
                 for k, d in zip(params["exponents"], params["digits"])),
                Fraction(0),
            ),
        )
        return construct_mt(exp, caps[0])
    if kind == "cur0":
        return cur0_subspace(n[0], caps[0])
    if kind == "finite_codim":
        return finite_codim_subspace(n, caps, int(params["min_total_degree"]), dim_e)
    if kind == "tensor":
        parts = []
        pos = 0
        for part in params["parts"]:
            arity = len(part["n"]) if isinstance(part.get("n"), list) else 1
            parts.append(_structured_from_params(part["kind"], part, n[pos : pos + arity],
                                                 caps[pos : pos + arity], int(part.get("dimE", 1))))
            pos += arity
        sub = tensor_subspace(parts)
        if "family" in params:  # written by uncountable_family
            sub.params["family"] = params["family"]
        return sub
    raise ValueError(f"unknown structured kind {kind!r}")

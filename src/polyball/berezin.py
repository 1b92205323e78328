"""Berezin kernels, the connection identity, and index-formula machinery.

The kernel of a tuple is assembled row by row from adjoint word products
against the defect square root; rows live on the truncated Fock tensor
product with the defect range as coefficient space.  Grade blocks of the
kernel are exact (truncation only discards rows beyond the caps), so the
connection identity is a genuine two-route consistency check.

Multipliers that intertwine the universal shifts are accepted as input data
(coefficient blocks of their symbols); they are validated, never synthesized
from a tuple.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .basis import Shape, enumerate_words, grade_dim, iter_grades, word_rank
from .cp import DENSE_GUARD, PSD_TOL, DefectData, OperatorTuple, cp_apply_power, defect_data, require_membership
from .fock import (
    FockTruncation,
    GradedOperator,
    _expand_indices,
    _expand_weights,
    bump,
    defect_shift,
)

INTERTWINE_TOL = 1e-10
MULTIPLIER_TOL = 1e-12
COMPLETION_TOL = 1e-8


@dataclass
class BerezinKernel:
    """Grade blocks of the kernel ``H -> truncated Fock (x) defect range``."""

    op: OperatorTuple
    truncation: FockTruncation
    blocks: dict[tuple[int, ...], np.ndarray]
    defect: DefectData
    tail_bound: float

    def grade_block(self, q: tuple[int, ...]) -> np.ndarray:
        return self.blocks[q]

    def grade_gram(self, q: tuple[int, ...]) -> np.ndarray:
        """``K^* (P_q (x) I) K`` as a dimH x dimH matrix."""
        b = self.blocks[q]
        return b.conj().T @ b

    def isometry_defect(self) -> float:
        """``|| I - K^* K ||``; bounded by the tail for pure tuples."""
        gram = sum(self.grade_gram(q) for q in self.truncation.grades)
        return float(np.linalg.norm(np.eye(self.op.dimH) - gram, 2))

    def kk_star_diag(self, grades=None) -> GradedOperator:
        """Dense grade-diagonal blocks of ``K K^*``; the oracle of ``curvature_operator_trace``."""
        grades = self.truncation.grades if grades is None else grades
        return GradedOperator(
            self.truncation,
            {(q, q): self.blocks[q] @ self.blocks[q].conj().T for q in grades},
        )

    def kk_star_full(self) -> GradedOperator:
        ft = self.truncation
        if ft.total_dim > DENSE_GUARD:
            raise ValueError(
                f"full kernel range projection needs total dimension <= {DENSE_GUARD}; "
                f"got {ft.total_dim} (use smaller caps)"
            )
        blocks = {}
        for src in ft.grades:
            for dst in ft.grades:
                blocks[(src, dst)] = self.blocks[dst] @ self.blocks[src].conj().T
        return GradedOperator(ft, blocks)


def berezin_kernel(t: OperatorTuple, caps: tuple[int, ...]) -> BerezinKernel:
    """Assemble the kernel by word recursion over cached adjoint word products."""
    require_membership(t)
    dd = defect_data(t)
    shape = t.shape.with_caps(caps)
    ft = FockTruncation(shape, coeff_dim=dd.rank)
    prefix = dd.range_basis.conj().T @ dd.sqrt  # rank x dimH
    adj: list[dict[tuple[int, ...], np.ndarray]] = []
    for i in range(t.k):
        table: dict[tuple[int, ...], np.ndarray] = {(): np.eye(t.dimH, dtype=complex)}
        for q in range(1, caps[i] + 1):
            for w in enumerate_words(shape.n[i], q):
                table[w] = t.entry(i, w[-1]).conj().T @ table[w[:-1]]
        adj.append(table)

    blocks: dict[tuple[int, ...], np.ndarray] = {}
    for q in ft.grades:
        wd = ft.word_dim(q)
        block = np.zeros((wd * dd.rank, t.dimH), dtype=complex)

        def fill(i: int, acc: np.ndarray, widx: int) -> None:
            if i == t.k:
                block[widx * dd.rank : (widx + 1) * dd.rank, :] = acc
                return
            stride = 1
            for l in range(i + 1, t.k):
                stride *= shape.n[l] ** q[l]
            for r, w in enumerate(enumerate_words(shape.n[i], q[i])):
                fill(i + 1, acc @ adj[i][w], widx + r * stride)

        fill(0, prefix, 0)
        blocks[q] = block

    # I - K*K = I - prod_i (id - Phi_i^{D_i+1})(I) is dominated by the sum of
    # the per-factor tails, not their max
    eye = np.eye(t.dimH, dtype=complex)
    tail = sum(
        float(np.linalg.norm(cp_apply_power(t, i, eye, caps[i] + 1), 2)) for i in range(t.k)
    )
    return BerezinKernel(t, ft, blocks, dd, tail)


def verify_intertwining(kb: BerezinKernel) -> float:
    """Max residual of ``K T_{i,j}^* = (S_{i,j}^* (x) I) K`` over interior grades."""
    ft = kb.truncation
    t = kb.op
    cd = ft.coeff_dim
    worst = 0.0
    for i in range(t.k):
        for j in range(1, t.shape.n[i] + 1):
            for q in ft.grades:
                up = bump(q, i)
                if not ft.has_grade(up):
                    continue
                lhs = kb.blocks[q] @ t.entry(i, j).conj().T
                tgt, w = ft.shift_data(i, j, q)
                rows = _expand_indices(tgt, cd)
                rhs = _expand_weights(w, cd)[:, None] * kb.blocks[up][rows, :]
                worst = max(worst, float(np.linalg.norm(lhs - rhs, 2)))
    return worst


def connection_identity(kb: BerezinKernel, q: tuple[int, ...]):
    """Both sides of ``K^*(P_q (x) I)K = Phi^q(defect)`` plus the residual."""
    if not kb.truncation.has_grade(q):
        raise ValueError(f"grade {q} beyond caps")
    lhs = kb.grade_gram(q)
    rhs = kb.defect.defect
    for i in range(kb.op.k):
        rhs = cp_apply_power(kb.op, i, rhs, q[i])
    residual = float(np.linalg.norm(lhs - rhs, 2))
    return lhs, rhs, residual


@dataclass(frozen=True)
class PsdVerdict:
    positive: bool
    min_eigenvalue: float


def has_characteristic_function(kb: BerezinKernel) -> PsdVerdict:
    """PSD test of ``Delta_{S (x) I}(I - K K^*)`` on interior grades (margin 1 per factor)."""
    y = GradedOperator.identity(kb.truncation) - kb.kk_star_full()
    d = defect_shift(y)
    lo = d.min_eig_interior()
    bound = -PSD_TOL * max(d.norm_interior(), 1.0)
    return PsdVerdict(lo >= bound, lo)


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
    the ``shift_data`` weights.
    """
    ft = kb.truncation
    caps = ft.shape.caps
    if len(q) != ft.shape.k or any(qi < 0 for qi in q):
        raise ValueError(f"grade {q} must have {ft.shape.k} non-negative entries")
    if any(qi > c - 1 for qi, c in zip(q, caps)):
        raise ValueError(f"grade {q} needs one interior grade of margin below caps {caps}")
    lattice = list(iter_grades(q))
    cd = ft.coeff_dim
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
                tgt, w = ft.shift_data(i, j, src)
                w = _expand_weights(w, cd)
                shifted[_expand_indices(tgt, cd)] += (w * diag[src]) * w
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

    ``coeffs[d]`` has shape ``(num_words(d), dim_target, dim_source)``; entry
    ``b`` is the coefficient of the degree-``d`` tensor word of index ``b``.
    The operator sends a source word to target words extended on the right,
    factor by factor.
    """

    shape: Shape
    dim_source: int
    dim_target: int
    coeffs: dict[tuple[int, ...], np.ndarray] = field(default_factory=dict)
    model: str = "full"
    isometric: bool = False

    def materialize_blocks(self, caps: tuple[int, ...]) -> dict:
        """Blocks ``(source grade s) -> (target grade s + d)`` on the truncation."""
        if self.model != "full":
            raise ValueError("use the symmetric module to materialize symmetric multipliers")
        shape = Shape(self.shape.n, caps)
        ds, dt = self.dim_source, self.dim_target
        blocks: dict = {}
        for s in iter_grades(caps):
            for d, coeff in self.coeffs.items():
                tgrade = tuple(si + di for si, di in zip(s, d))
                if any(g > c for g, c in zip(tgrade, caps)):
                    continue
                wd_s = grade_dim(shape, s)
                wd_t = grade_dim(shape, tgrade)
                block = blocks.get((s, tgrade))
                if block is None:
                    block = np.zeros((wd_t * dt, wd_s * ds), dtype=complex)
                    blocks[(s, tgrade)] = block
                src_dims = tuple(shape.n[i] ** s[i] for i in range(shape.k))
                deg_dims = tuple(shape.n[i] ** d[i] for i in range(shape.k))
                tgt_dims = tuple(a * b for a, b in zip(src_dims, deg_dims))
                src_ranks = np.unravel_index(np.arange(wd_s), src_dims)
                for b in range(coeff.shape[0]):
                    beta_ranks = np.unravel_index(b, deg_dims)
                    combined = tuple(
                        sr * deg_dims[i] + beta_ranks[i] for i, sr in enumerate(src_ranks)
                    )
                    g = np.ravel_multi_index(combined, tgt_dims)
                    for a in range(wd_s):
                        block[g[a] * dt : (g[a] + 1) * dt, a * ds : (a + 1) * ds] += coeff[b]
        return blocks


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
    shape = Shape(theta.shape.n, caps)
    src_ft = FockTruncation(shape, coeff_dim=theta.dim_source)
    dst_ft = FockTruncation(shape, coeff_dim=theta.dim_target)
    blocks = theta.materialize_blocks(caps)
    return validate_multiplier_blocks(theta, blocks, src_ft, dst_ft)


def validate_multiplier_blocks(theta, blocks, src_ft, dst_ft) -> float:
    """Model-agnostic validation against the shift data of the given truncations."""
    shape = src_ft.shape
    worst = 0.0
    for (s, tgrade), b in blocks.items():
        for i in range(shape.k):
            s_up, t_up = bump(s, i), bump(tgrade, i)
            if not (src_ft.has_grade(s_up) and dst_ft.has_grade(t_up)):
                continue
            up_block = blocks.get((s_up, t_up))
            if up_block is None:
                up_block = np.zeros((dst_ft.dim(t_up), src_ft.dim(s_up)), dtype=complex)
            for j in range(1, shape.n[i] + 1):
                tgt_s, w_s = src_ft.shift_data(i, j, s)
                cs = np.zeros((src_ft.dim(s_up), src_ft.dim(s)), dtype=complex)
                cs[_expand_indices(tgt_s, theta.dim_source), np.arange(src_ft.dim(s))] = (
                    _expand_weights(w_s, theta.dim_source)
                )
                tgt_t, w_t = dst_ft.shift_data(i, j, tgrade)
                cd_ = np.zeros((dst_ft.dim(t_up), dst_ft.dim(tgrade)), dtype=complex)
                cd_[_expand_indices(tgt_t, theta.dim_target), np.arange(dst_ft.dim(tgrade))] = (
                    _expand_weights(w_t, theta.dim_target)
                )
                worst = max(worst, float(np.linalg.norm(up_block @ cs - cd_ @ b, 2)))
    if worst > MULTIPLIER_TOL:
        raise ValueError(f"multiplier does not intertwine the shifts (residual {worst:.3e})")
    if theta.isometric:
        resid = _isometry_residual(theta, src_ft.shape.caps, blocks, src_ft)
        if resid > INTERTWINE_TOL:
            raise ValueError(f"multiplier flagged isometric but Theta*Theta != I (residual {resid:.3e})")
    return worst


def _isometry_residual(theta, caps, blocks, src_ft) -> float:
    worst = 0.0
    max_deg = [0] * len(caps)
    for d in theta.coeffs:
        max_deg = [max(a, b) for a, b in zip(max_deg, d)]
    interior = [s for s in src_ft.grades if all(si <= c - m for si, c, m in zip(s, caps, max_deg))]
    for s in interior:
        for s2 in interior:
            gram = np.zeros((src_ft.dim(s2), src_ft.dim(s)), dtype=complex)
            for (src, tgrade), b in blocks.items():
                if src == s:
                    b2 = blocks.get((s2, tgrade))
                    if b2 is not None:
                        gram += b2.conj().T @ b
            expected = np.eye(src_ft.dim(s)) if s == s2 else 0.0
            worst = max(worst, float(np.linalg.norm(gram - expected, 2)))
    return worst


@dataclass(frozen=True)
class IndexCheck:
    lhs: float
    rhs: float
    residual: float
    completion_residual: float


def index_formula_check(
    kb: BerezinKernel, theta: InnerMultiplier, q: tuple[int, ...] | None = None
) -> IndexCheck:
    """``curv = rank - trace[Theta (P_C (x) I) Theta^* (N_{<=q} (x) I)]`` at finite depth.

    The supplied multiplier must complete the kernel range projection to the
    identity on interior grades; otherwise it is rejected.
    """
    validate_multiplier(theta, kb.truncation.shape.caps)
    blocks = theta.materialize_blocks(kb.truncation.shape.caps)
    return index_check_from_blocks(kb, theta, blocks, q)


def index_check_from_blocks(kb, theta, blocks, q=None) -> IndexCheck:
    """Shared finite-depth index evaluation given materialized multiplier blocks."""
    ft = kb.truncation
    caps = ft.shape.caps
    if q is None:
        q = tuple(c - 1 for c in caps)
    comp = _completion_residual(kb, theta, blocks)
    if comp > COMPLETION_TOL:
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
    ft = kb.truncation
    max_deg = [0] * ft.shape.k
    for d in theta.coeffs:
        max_deg = [max(a, b) for a, b in zip(max_deg, d)]
    interior = [
        s for s in ft.grades if all(si <= c - m for si, c, m in zip(s, ft.shape.caps, max_deg))
    ]
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
        into_p = into[p]
        for qq in interior:
            val = kb.blocks[qq] @ kp_h
            # Theta Theta* block (p -> qq): sum over source grades s of B[s->qq] B[s->p]^*
            tt = np.zeros_like(val)
            for s, bq in into[qq].items():
                bp = into_p.get(s)
                if bp is not None:
                    tt += bq @ bp.conj().T
            expected = np.eye(ft.dim(qq)) if p == qq else np.zeros((ft.dim(qq), ft.dim(p)))
            worst = max(worst, float(np.linalg.norm(val + tt - expected, 2)))
    return worst


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
                    "coeffs": [
                        [[float(v.real), float(v.imag)] for v in mat.reshape(-1)]
                        for mat in coeff
                    ],
                }
                for d, coeff in sorted(theta.coeffs.items())
            ],
        }
    )


def multiplier_from_json(text: str) -> InnerMultiplier:
    data = json.loads(text)
    n = tuple(int(v) for v in data["n"])
    ds, dt = int(data["dim_source"]), int(data["dim_target"])
    coeffs = {}
    for entry in data["blocks"]:
        d = tuple(int(v) for v in entry["degree"])
        mats = []
        for flat in entry["coeffs"]:
            arr = np.array([complex(re, im) for re, im in flat]).reshape(dt, ds)
            mats.append(arr)
        coeffs[d] = np.stack(mats, axis=0)
    return InnerMultiplier(
        Shape(n), ds, dt, coeffs, model=data.get("model", "full"),
        isometric=bool(data.get("isometric", False)),
    )

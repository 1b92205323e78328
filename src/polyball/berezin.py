"""Berezin kernels, the connection identity, and index-formula machinery.

The kernel of a tuple is built one total degree at a time from its vacuum
row, the defect square root, through the intertwining
``K T_{i,j}^* = (S_{i,j}^* (x) I) K``; rows live on the truncated Fock tensor
product with the defect range as coefficient space.  Grade blocks of the
kernel are exact (truncation only discards rows beyond the caps), so the
connection identity is a genuine two-route consistency check.

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

import numpy as np

from .basis import Shape, grade_dim, iter_grades, word_rank
from .cp import (
    DefectData,
    OperatorTuple,
    PsdVerdict,
    cp_apply_power,
    defect_data,
    json_field,
    matrix_from_pairs,
    matrix_to_pairs,
    psd_verdict,
    require_budget,
    require_membership,
    spectral_norms,
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
    eye = np.eye(t.dimH, dtype=complex)
    return sum(spectral_norms(np.stack([cp_apply_power(t, i, eye, caps[i] + 1) for i in range(t.k)])).tolist())


def berezin_kernel(t: OperatorTuple, caps: tuple[int, ...], model: str = "full",
                   budget_caps: tuple[int, ...] | None = None) -> BerezinKernel:
    """The whole kernel: every layer of ``_kernel_layers``, with ``blocks`` in ``ft.grades`` order.

    A kernel of more than ``SIZE_BUDGET`` bytes at ``budget_caps`` (default
    ``caps``) is refused before any block is allocated, from the closed-form
    ``total_dim``.  A caller that reads only the grades below larger caps passes
    those as ``budget_caps``: the kernel is built on the smaller box, and every
    input the larger one would refuse is still refused.
    """
    dd, ft = _kernel_truncation(t, caps, model, budget_caps)
    blocks: dict[tuple[int, ...], np.ndarray] = {}
    for layer in _kernel_layers(t, ft, dd):
        blocks |= layer
    return BerezinKernel(t, ft, {q: blocks[q] for q in ft.grades}, dd)


def _kernel_truncation(t: OperatorTuple, caps: tuple[int, ...], model: str,
                       budget_caps: tuple[int, ...] | None = None) -> tuple[DefectData, FockTruncation]:
    """The defect and the kernel's truncation, after the membership test and the size budget, in that order."""
    require_membership(t)
    dd = defect_data(t)
    ft = truncation_for(model, t.shape.with_caps(caps), dd.rank)
    budget = ft if budget_caps is None else truncation_for(model, t.shape.with_caps(budget_caps), dd.rank)
    require_budget(f"Berezin kernel at caps {budget.shape.caps}", 16 * budget.total_dim * t.dimH)
    return dd, ft


def _kernel_layers(t: OperatorTuple, ft: FockTruncation, dd: DefectData):
    """The kernel's grade blocks one total degree ``|q|`` at a time: ``{q: K_q}`` per layer, from ``|q| = 0``.

    The vacuum block is ``D^{1/2}`` on the defect range.  Grade ``q`` follows
    from grade ``q - e_i`` (``i`` the last factor with ``q_i > 0``), one layer
    down, by ``K T_{i,j}^* = (S_{i,j}^* (x) I) K``: the ``S_{i,j}`` target rows
    of grade ``q`` are ``(K_{q - e_i} T_{i,j}^*) / w`` with the shift weights
    ``w``.  The same recursion serves both models on the truncation of
    ``ft.model``; in the symmetric model (a commutative tuple, see
    ``symmetric.constrained_berezin``) a monomial reached by several letters
    takes the rows of the last one, so the letters run last to first and each
    forms only the rows of targets not yet written.

    Only the previous layer is held here, so a caller that drops each layer
    once the next one is yielded keeps two layers alive.
    """
    by_degree: list[list[tuple[int, ...]]] = [[] for _ in range(sum(ft.shape.caps) + 1)]
    for q in ft.grades:
        by_degree[sum(q)].append(q)
    prev: dict[tuple[int, ...], np.ndarray] = {}
    for grades in by_degree:
        layer = {}
        for q in grades:
            if not any(q):
                layer[q] = dd.range_basis.conj().T @ dd.sqrt  # rank x dimH
                continue
            i, src = last_step(q)
            block = np.zeros((ft.dim(q), t.dimH), dtype=complex)
            written = np.zeros(ft.dim(q), dtype=bool)
            for j in range(t.shape.n[i], 0, -1):
                targets, w, _ = ft.shift(i, j, src)
                src_rows = prev[src]
                fresh = ~written[targets]
                if not fresh.all():  # monomials a later letter reached keep its rows
                    targets, w, src_rows = targets[fresh], w[fresh], src_rows[fresh]
                block[targets] = _letter_rows(src_rows, t.entry(i, j), w)
                written[targets] = True
            layer[q] = block
        yield layer
        prev = layer


def _letter_rows(src_rows: np.ndarray, entry: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``(src_rows T^*) / w``: the kernel rows one letter ``T`` sends to its targets.

    The product comes first, then the division, so exact rows stay exact.
    """
    rows = src_rows @ entry.conj().T
    rows /= w[:, None]
    return rows


def verify_intertwining(t: OperatorTuple, caps: tuple[int, ...], model: str = "full") -> float:
    """Max residual of ``K T_{i,j}^* = (S_{i,j}^* (x) I) K`` over grades ``q`` with ``q + e_i`` inside the caps.

    The kernel of ``t`` at ``caps`` on the truncation of ``model`` is built
    layer by layer (``_kernel_layers``): the pairs of degree ``L`` read layers
    ``L`` and ``L + 1`` only, so they run as soon as layer ``L + 1`` exists and
    layer ``L`` is dropped after them; two layers are alive at a time.  The
    refusals come in the order of ``berezin_kernel`` (membership, then the size
    budget of the whole kernel at ``caps``); then a factor with cap 0, which
    has no grade pair and whose identity would go untested, is refused.  The
    pairs the recursion wrote are left out (see ``_tested_pairs``), since their
    residuals are exactly 0.0.
    """
    dd, ft = _kernel_truncation(t, caps, model)
    if 0 in ft.shape.caps:
        raise ValueError(f"caps {ft.shape.caps} leave a factor with no grade pair to test; "
                         "every cap must be >= 1")
    worst = 0.0
    lower = None
    for upper in _kernel_layers(t, ft, dd):
        if lower is not None:
            worst = max(worst, _layer_residual(t, ft, lower, upper))
        lower = upper
    return worst


def _layer_residual(t: OperatorTuple, ft: FockTruncation, lower: dict, upper: dict) -> float:
    """Max intertwining residual of the tested pairs with ``q`` in layer ``lower`` (``q + e_i`` in ``upper``).

    Each residual block is formed in place and takes one Gram spectrum.
    """
    worst = 0.0
    for i, j, q, targets, w in _tested_pairs(ft, lower):
        resid = lower[q] @ t.entry(i, j).conj().T
        rhs = upper[bump(q, i)][targets]
        rhs *= w[:, None]
        resid -= rhs
        del rhs  # one residual-sized temporary at a time
        worst = max(worst, float(spectral_norms(resid)))
    return worst


def _tested_pairs(ft: FockTruncation, grades):
    """``(i, j, q, targets, weights)`` of each pair, ``q`` in ``grades``, whose intertwining residual can be nonzero.

    Pairs with ``q + e_i`` beyond the caps have no identity.  A pair is also
    left out when ``last_step(q + e_i) == (i, q)`` and every weight of
    ``ft.shift(i, j, q)`` is exactly 1.0: ``_kernel_layers`` built grade
    ``q + e_i`` from ``q`` through factor ``i``, and a target of weight 1 is
    reached by no other letter (the squared weights into a target sum to 1),
    so it wrote those rows as ``K_q T_{i,j}^*`` itself and the residual is
    exactly 0.0.  Word-model weights are all 1, so there that is every pair
    whose ``q`` is 0 past factor ``i``; symmetric weights are all 1 only for
    ``n_i = 1`` or ``q_i = 0``.
    """
    for i in range(ft.shape.k):
        for j in range(1, ft.shape.n[i] + 1):
            for q in grades:
                up = bump(q, i)
                if not ft.has_grade(up):
                    continue
                targets, w, _ = ft.shift(i, j, q)
                if last_step(up) == (i, q) and (w == 1.0).all():
                    continue
                yield i, j, q, targets, w


def connection_identity(kb: BerezinKernel, q: tuple[int, ...]):
    """Both sides of ``K^*(P_q (x) I)K = Phi^q(defect)`` plus the residual."""
    if not kb.truncation.has_grade(q):
        raise ValueError(f"grade {q} beyond caps")
    lhs = kb.grade_gram(q)
    rhs = kb.defect.defect
    for i in range(kb.op.k):
        rhs = cp_apply_power(kb.op, i, rhs, q[i])
    residual = float(spectral_norms(lhs - rhs))
    return lhs, rhs, residual


def has_characteristic_function(kb: BerezinKernel) -> PsdVerdict:
    """PSD test of ``Delta_{S (x) I}(I - K K^*)`` on interior grades, by ``fock.defect_verdict``.

    ``I - K K^*`` is formed in place on the ``kk_star_full`` blocks, with the
    bits of ``identity - kk``.  A zero cap reads as positive with minimum 0.0.
    """

    def defect(box):
        d = kb.kk_star_full(box)
        for (src, dst), b in d.blocks.items():
            if src == dst:
                np.subtract(np.eye(len(b), dtype=complex), b, out=b)
            else:
                b *= -1.0
        return d

    v = defect_verdict("characteristic-function test", kb.truncation, defect)
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
    the ``shift_data`` weights.  The squares are the exact ratios, never a
    rounded square root squared.
    """
    ft = kb.truncation
    caps = ft.shape.caps
    if len(q) != ft.shape.k or any(qi < 0 for qi in q):
        raise ValueError(f"grade {q} must have {ft.shape.k} non-negative entries")
    if any(qi > c - 1 for qi, c in zip(q, caps)):
        raise ValueError(f"grade {q} needs one interior grade of margin below caps {caps}")
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
                targets, _, squares = ft.shift(i, j, src)
                shifted[targets] += squares * diag[src]
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
                    cols, w_s, _ = src.shift(i, j, s0)
                    rows, w_t, _ = dst.shift(i, j, t0)
                    block[np.ix_(rows, cols)] = (w_t[:, None] * prev) / w_s
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
            tgt, w, _ = ft.shift_data(i, j, p0)
            v[tgt] = norms[p0] * w
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
                # Theta S_{i,j} minus S_{i,j} Theta on source grade s, as shifted index maps
                cols, w_s, _ = src_ft.shift(i, j, s)
                resid[j - 1] = up_block[:, cols] * w_s
                rows, w_t, _ = dst_ft.shift(i, j, tgrade)
                resid[j - 1][rows] -= w_t[:, None] * b
            worst = max(worst, float(spectral_norms(resid).max()))
    if worst > MULTIPLIER_TOL:
        raise ValueError(f"multiplier does not intertwine the shifts (residual {worst:.3e})")
    if theta.isometric:
        # Theta^* Theta - I on interior source grades: the Gram of the adjoint blocks B[s->t]^*
        interior = theta.interior_grades(src_ft)
        adjoints = {(t, s): b.conj().T for (s, t), b in blocks.items()}
        resid = _slab_residual(src_ft.dim, interior, _sources(adjoints, dst_ft.grades, interior))
        if resid > INTERTWINE_TOL:
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
    _require_same_model(theta, ft, "kernel")
    blocks = theta.materialize_blocks(ft.shape.caps) if blocks is None else blocks
    _validate_blocks(theta, blocks, ft.shape.caps)
    return index_check_from_blocks(kb, theta, blocks)


def index_check_from_blocks(kb, theta, blocks) -> IndexCheck:
    """Shared finite-depth index evaluation given materialized multiplier blocks."""
    ft = kb.truncation
    q = tuple(c - 1 for c in ft.shape.caps)
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
    """Largest block norm of ``K K^* + Theta Theta^* - I`` on interior grades; sources in ``ft.grades`` order."""
    ft = kb.truncation
    interior = theta.interior_grades(ft)
    return _slab_residual(ft.dim, interior, _sources(blocks, ft.grades, interior), kb.blocks)


def _sources(blocks: dict, sources, grades) -> list[dict]:
    """``{q: B[s->q]}`` for each grade ``s`` of ``sources``, in that order, with a block into ``grades``."""
    out = []
    for s in sources:
        outs = {q: blocks[(s, q)] for q in grades if (s, q) in blocks}
        if outs:
            out.append(outs)
    return out


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
    worst = 0.0
    for p in order:
        slab = np.zeros((ends[-1], dim(p)), dtype=complex) if k_rows is None else k_rows @ kernel[p].conj().T
        for outs in sources:
            bp = outs.get(p)
            if bp is not None:
                bp_h = bp.conj().T
                for q, bq in outs.items():
                    slab[offset[q] : offset[q] + dim(q)] += bq @ bp_h
        for q, m in ({p: np.eye(dim(p))} if minus is None else minus(p)).items():
            slab[offset[q] : offset[q] + dim(q)] -= m
        for d, (start, count) in runs.items():
            stack = slab[start : start + count * d].reshape(count, d, dim(p))
            worst = max(worst, float(spectral_norms(stack).max()))
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
                    "coeffs": [matrix_to_pairs(mat) for mat in coeff],
                }
                for d, coeff in sorted(theta.coeffs.items())
            ],
        }
    )


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

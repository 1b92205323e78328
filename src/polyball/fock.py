"""Truncated Fock tensor products and block-graded operators.

A truncation stores one grade per multi-degree ``q <= caps``; the coefficient
space is folded into every grade, so a grade's ambient dimension is
``word_dim(q) * coeff_dim``.  Operators are kept block-sparse by grade pair
with dense blocks.  A model supplies one factor at a time: ``factor_dim`` and
``factor_letter``, a letter's targets and weights.  On these, ``letter_rows``
reads a letter's target rows of a grade block, a view when they are one run,
and ``shift`` gives them as an index map plus weights per grade, so kernels
are shifted without materializing the 0/1 matrices.

Truncation semantics: a shift out of the caps maps to zero.  Every operator
carries a per-factor interior margin counting the transfer-map applications
it contains; identities are asserted only on grades ``q_i <= D_i - margin_i``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .basis import Shape, grade_dim, iter_grades
from .cp import PsdVerdict, hermitian_spectrum, psd_verdict, require_budget, spectral_norms, tolerance


@dataclass(frozen=True)
class FockTruncation:
    """Truncated tensor product of full Fock spaces with a folded coefficient space."""

    shape: Shape
    coeff_dim: int = 1

    model = "full"

    def __post_init__(self):
        self.shape.require_caps()
        if self.coeff_dim < 0:
            raise ValueError("coefficient dimension must be >= 0")

    @cached_property
    def grades(self) -> tuple[tuple[int, ...], ...]:
        return tuple(iter_grades(self.shape.caps))

    @cached_property
    def _offsets(self) -> dict[tuple[int, ...], int]:
        out, pos = {}, 0
        for q in self.grades:
            out[q] = pos
            pos += self.dim(q)
        return out

    @property
    def total_dim(self) -> int:
        """``coeff_dim * prod_i cumulative_dim(i, caps_i)``: grade dimensions factor over the factors.

        No grade of the box is enumerated and no grade dimension computed, so a
        size budget is checked in ``k`` closed-form steps.
        """
        return self.coeff_dim * math.prod(self.cumulative_dim(i, cap) for i, cap in enumerate(self.shape.caps))

    def cumulative_dim(self, i: int, cap: int) -> int:
        """``sum_{c <= cap} factor_dim(i, c)`` in closed form: the geometric sum of ``n_i**c``."""
        n = self.shape.n[i]
        return cap + 1 if n == 1 else (n ** (cap + 1) - 1) // (n - 1)

    def factor_dim(self, i: int, c: int) -> int:
        """``n_i**c`` words: ``word_dim(q)`` is the product of ``factor_dim(i, q_i)``."""
        return self.shape.n[i] ** c

    def factor_letter(self, i: int, j: int, c: int):
        """``(targets, weights, squares)`` of letter ``j`` of factor ``i`` on the factor's degree-``c`` basis: the
        degree-``c + 1`` positions it sends them to, in source order (a slice for one run, else an index array),
        the shift weights and their exact squares (None when all are 1).  A word letter puts its digit in front."""
        run = self.shape.n[i] ** c
        return slice((j - 1) * run, j * run), None, None

    def word_dim(self, q: tuple[int, ...]) -> int:
        return grade_dim(self.shape, q)

    def dim(self, q: tuple[int, ...]) -> int:
        return self.word_dim(q) * self.coeff_dim

    def offset(self, q: tuple[int, ...]) -> int:
        return self._offsets[q]

    def has_grade(self, q: tuple[int, ...]) -> bool:
        return all(0 <= qi <= c for qi, c in zip(q, self.shape.caps))

    def letter_rows(self, block, i: int, j: int, q: tuple[int, ...]):
        """The rows of ``block`` (axis 0: grade ``q + e_i``) that letter ``j`` of factor ``i`` sends grade ``q`` to.

        Returns ``(rows, weights, squares)``: ``rows`` reads and writes the targets of grade ``q``'s rows, in C
        order over ``rows.shape[:1 - block.ndim]``, with ``factor_letter``'s weights and squares spread over them.
        The rows are split to ``(A, D, B)``: ``A`` the factors before ``i``, ``D`` factor ``i``'s degree ``q_i + 1``.
        A run of ``D`` is the view ``[:, run]``, ``D`` and ``B`` merged, contiguous when ``A = 1``; other targets
        are a ``_Gather`` of ``D``, needed only by symmetric letters ``j >= 2`` of factors with ``n_i >= 3``.
        """
        targets, weights, squares = self.factor_letter(i, j, q[i])
        a, d = math.prod(map(self.factor_dim, range(i), q)), self.factor_dim(i, q[i] + 1)
        b = len(block) // (a * d)
        if isinstance(targets, slice):
            rows = block.reshape(a, d * b, *block.shape[1:])[:, targets.start * b : targets.stop * b]
        else:
            rows = _Gather(block.reshape(a, d, b, *block.shape[1:]), targets)
        if weights is None:
            return rows, None, None
        spread = np.empty((2, a, len(weights), b))
        spread[0], spread[1] = weights[:, None], squares[:, None]
        return rows, *spread.reshape(2, -1)

    def shift_data(self, i: int, j: int, q: tuple[int, ...]):
        """The factor-``i`` letter-``j`` creation operator on grade ``q``, as ``letter_rows`` of the word positions:
        source word ``s`` maps to ``weights[s]`` times target word ``targets[s]`` of grade ``q + e_i``, and
        ``squares[s]`` is ``weights[s]**2`` without rounding a square root.  Weights all 1 are one array."""
        rows, weights, squares = self.letter_rows(np.arange(self.word_dim(bump(q, i))), i, j, q)
        targets = rows[...].reshape(-1)
        ones = np.ones(len(targets))
        return targets, ones if weights is None else weights, ones if squares is None else squares

    def coeff_rows(self, words: np.ndarray) -> np.ndarray:
        """Rows of a grade holding the given word (or monomial) indices, in the same order.

        Word ``w`` with coefficient ``c`` sits at row ``w * coeff_dim + c``.
        """
        return (words[:, None] * self.coeff_dim + np.arange(self.coeff_dim)).reshape(-1)

    def shift(self, i: int, j: int, q: tuple[int, ...]):
        """``shift_data`` over the coefficient space: ``(rows, weights, squares)``.

        Row ``r`` of grade ``q`` maps to ``weights[r]`` times row ``rows[r]`` of
        grade ``q + e_i``; every scatter of a shift goes through here.
        """
        targets, weights, squares = self.shift_data(i, j, q)
        w = np.repeat(weights, self.coeff_dim)
        return self.coeff_rows(targets), w, (w if squares is weights else np.repeat(squares, self.coeff_dim))


class _Gather:
    """``split[:, targets]`` of rows split to ``(A, D, B)``, keyed by ``(A, len(targets), B)`` positions: a gather
    to read, a scatter to write."""

    def __init__(self, split: np.ndarray, targets: np.ndarray):
        self.split, self.targets, self.shape = split, targets, (len(split), len(targets), *split.shape[2:])

    def _key(self, key):
        a, d, *rest = (slice(None),) * 3 if key is Ellipsis else key
        return (a, self.targets[d], *rest)

    def __getitem__(self, key):
        return self.split[self._key(key)]

    def __setitem__(self, key, value) -> None:
        self.split[self._key(key)] = value


def require_model(model: str) -> str:
    """``model`` itself if it names a model: ``"full"`` (words) or ``"symmetric"`` (monomials)."""
    if model not in ("full", "symmetric"):
        raise ValueError(f"unknown model {model!r}; expected 'full' or 'symmetric'")
    return model


def truncation_for(model: str, shape: Shape, coeff_dim: int = 1) -> FockTruncation:
    """The truncation of ``model`` on ``shape``."""
    if require_model(model) == "symmetric":
        from .symmetric import SymFockTruncation

        return SymFockTruncation(shape, coeff_dim)
    return FockTruncation(shape, coeff_dim)


def interior_box(ft: FockTruncation) -> FockTruncation | None:
    """The truncation of ``ft``'s model and ``coeff_dim`` at caps ``c - 1``: the grades a defect test reads.

    Grade dimensions and shift maps do not depend on the caps, so the blocks
    of an operator on these grades are those it has on ``ft``.  A zero cap
    leaves no interior grade: ``None``.
    """
    if 0 in ft.shape.caps:
        return None
    return truncation_for(ft.model, ft.shape.with_caps(c - 1 for c in ft.shape.caps), ft.coeff_dim)


def last_step(q: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """``(i, q - e_i)``, ``i`` the last factor with ``q_i > 0``: the grade recursions build ``q`` from."""
    i = max(l for l, v in enumerate(q) if v)
    return i, bump(q, i, -1)


def bump(q: tuple[int, ...], i: int, by: int = 1) -> tuple[int, ...]:
    return tuple(v + (by if l == i else 0) for l, v in enumerate(q))


@dataclass
class GradedOperator:
    """Block-sparse operator on a truncation; ``blocks[(src, dst)]`` maps grade src to dst."""

    trunc: FockTruncation
    blocks: dict[tuple[tuple[int, ...], tuple[int, ...]], np.ndarray] = field(default_factory=dict)
    margin: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.margin is None:
            self.margin = (0,) * self.trunc.shape.k
        for (src, dst), b in self.blocks.items():
            if b.shape != (self.trunc.dim(dst), self.trunc.dim(src)):
                raise ValueError(f"block {(src, dst)} has shape {b.shape}")

    def _merged_margin(self, other, add=False) -> tuple[int, ...]:
        if add:
            return tuple(a + b for a, b in zip(self.margin, other.margin))
        return tuple(max(a, b) for a, b in zip(self.margin, other.margin))

    def __add__(self, other: "GradedOperator") -> "GradedOperator":
        blocks = dict(self.blocks)
        for key, b in other.blocks.items():
            blocks[key] = blocks[key] + b if key in blocks else b.copy()
        return GradedOperator(self.trunc, blocks, self._merged_margin(other))

    def __sub__(self, other: "GradedOperator") -> "GradedOperator":
        return self + (-1.0) * other

    def __rmul__(self, c) -> "GradedOperator":
        return GradedOperator(self.trunc, {k: c * b for k, b in self.blocks.items()}, self.margin)

    def __matmul__(self, other: "GradedOperator") -> "GradedOperator":
        blocks: dict = {}
        for (src, mid), b in other.blocks.items():
            for dst in self.trunc.grades:
                a = self.blocks.get((mid, dst))
                if a is None:
                    continue
                key = (src, dst)
                prod = a @ b
                blocks[key] = blocks[key] + prod if key in blocks else prod
        return GradedOperator(self.trunc, blocks, self._merged_margin(other, add=True))

    def adjoint(self) -> "GradedOperator":
        return GradedOperator(
            self.trunc,
            {(dst, src): b.conj().T for (src, dst), b in self.blocks.items()},
            self.margin,
        )

    def interior_grades(self):
        caps = self.trunc.shape.caps
        return [q for q in self.trunc.grades if all(qi <= c - m for qi, c, m in zip(q, caps, self.margin))]

    def to_dense(self, grades=None, hermitian: bool = False) -> np.ndarray:
        """The blocks on ``grades`` as one matrix; with ``hermitian``, its Hermitian part, the bits of ``herm``."""
        ft = self.trunc
        if grades is None:
            grades = list(ft.grades)
        offs, pos = {}, 0
        for q in grades:
            offs[q] = pos
            pos += ft.dim(q)
        out = np.zeros((pos, pos), dtype=complex)
        gset = set(grades)
        keys = self.blocks.keys() | {(dst, src) for src, dst in self.blocks} if hermitian else self.blocks
        for src, dst in keys:
            if src in gset and dst in gset:
                view = out[offs[dst] : offs[dst] + ft.dim(dst), offs[src] : offs[src] + ft.dim(src)]
                view[...] = np.transpose(self.blocks.get((dst, src), 0)) if hermitian else self.blocks[(src, dst)]
                if hermitian:  # (b^* + a) / 2 in place, one grade pair at a time: no temporary
                    np.conjugate(view, out=view)
                    view += self.blocks.get((src, dst), 0)
                    view /= 2
        return out

    def min_eig_interior(self) -> float:
        """Smallest eigenvalue of the Hermitian part on the interior grades (test oracle)."""
        dense = self.to_dense(self.interior_grades())
        if dense.size == 0:
            return 0.0
        return float(np.linalg.eigvalsh((dense + dense.conj().T) / 2)[0])

    def norm_interior(self) -> float:
        """Spectral norm of the dense interior matrix (test oracle)."""
        return float(spectral_norms(self.to_dense(self.interior_grades())))


def _cp_shift_blocks(y: GradedOperator, i: int):
    """``((up_src, up_dst), block)`` of ``Phi_i(y)``, one per block of ``y`` whose image stays inside the caps.

    Grade pairs are walked top-down in ``src[i]`` and a source block is read
    only when its image is yielded, so a caller may overwrite each yielded
    target in place: no block is read after it was written.  Every letter is
    summed into one fresh block.  Each letter's shift map is fetched once per
    grade, not once per block.
    """
    ft = y.trunc
    letters = range(1, ft.shape.n[i] + 1)
    pairs = sorted((key for key in y.blocks if all(ft.has_grade(bump(q, i)) for q in key)),
                   key=lambda key: key[0][i], reverse=True)
    grades = dict.fromkeys(q for key in pairs for q in key)
    maps = {(j, q): ft.shift(i, j, q) for q in grades for j in letters}
    for src, dst in pairs:
        b = y.blocks[(src, dst)]
        up_s, up_d = bump(src, i), bump(dst, i)
        phi = np.zeros((ft.dim(up_d), ft.dim(up_s)), dtype=complex)
        for j in letters:
            cols, w_c, _ = maps[(j, src)]
            rows, w_r, _ = maps[(j, dst)]
            phi[np.ix_(rows, cols)] += (w_r[:, None] * b) * w_c[None, :]
        yield (up_s, up_d), phi


def defect_shift(y: GradedOperator) -> GradedOperator:
    """``(id - Phi_1) o ... o (id - Phi_k)`` of the universal shifts, applied to ``y`` in place, one factor at a time.

    ``y`` is consumed: its blocks are overwritten and ``y`` itself is returned,
    so pass an operator whose blocks nothing else holds.  The only temporary
    is one ``Phi_i`` block.  Each target becomes ``cur + (-1.0) * phi``, the
    bits of ``y - Phi_i(y)`` in the operator arithmetic: for complex blocks
    ``(-1.0) * phi`` and ``-phi`` differ in the signs of zeros.
    """
    for i in range(y.trunc.shape.k):
        for key, phi in _cp_shift_blocks(y, i):
            phi *= -1.0
            cur = y.blocks.get(key)
            if cur is not None and cur.dtype == phi.dtype:
                cur += phi
            else:  # a new block, or a real one that the sum makes complex
                y.blocks[key] = phi if cur is None else cur + phi
        y.margin = bump(y.margin, i)
    return y


def _dense_defect(what: str, ft: FockTruncation, build) -> tuple[FockTruncation, np.ndarray] | None:
    """``(box, h)``: the dense Hermitian interior ``h`` of ``Delta_{S (x) I}(build(box))``, ``box = interior_box(ft)``.

    ``None`` when a cap is 0.  The dense interior's ``16 * N**2`` bytes are refused as ``what`` before
    ``build`` runs.  ``defect_shift`` consumes the built operator, whose blocks are cleared once ``to_dense``
    returns.
    """
    box = interior_box(ft)
    if box is None:
        return None
    require_budget(f"{what} on the interior caps {box.shape.caps}", 16 * box.total_dim**2)
    y = defect_shift(build(box))
    h = y.to_dense(box.grades, hermitian=True)
    y.blocks.clear()
    return box, h


def defect_verdict(what: str, ft: FockTruncation, build) -> PsdVerdict | None:
    """PSD verdict of ``Delta_{S (x) I}(build(box))`` on ``box = interior_box(ft)``: the one dense positivity route.

    ``None`` when a cap is 0; see ``_dense_defect`` for the size check and the release of the built blocks.
    """
    dense = _dense_defect(what, ft, build)
    return None if dense is None else psd_verdict(hermitian_spectrum(dense[1]).values)


def defect_positive(what: str, ft: FockTruncation, build) -> bool:
    """``defect_verdict(what, ft, build).positive``, refuted first on the unit box; true when a cap is 0.

    The unit box caps every factor at 2, so its interior grades are ``{0, 1}^k``.  It is closed under the
    step down and ``build``'s blocks do not depend on the caps, so its dense interior is, to the bit, a
    principal submatrix of the whole one: by Cauchy interlacing its least eigenvalue ``m`` bounds the whole
    one's from above.  ``build(box)`` lies between 0 and I (``I - K K^*``) and each ``id - Phi_i`` has norm
    at most 2 (Russo-Dye), so ``||h||_2 <= 2^k``: an ``m`` below twice the ``psd`` bound at scale ``2^k``
    lies below the whole verdict's own bound, with a factor 2 to spare for rounding.  Only a unit box that
    passes, or that is the whole box, leads to the whole interior and its spectrum.
    """
    caps = ft.shape.caps
    unit = tuple(min(c, 2) for c in caps)
    if unit != caps:
        dense = _dense_defect(what, truncation_for(ft.model, ft.shape.with_caps(unit), ft.coeff_dim), build)
        if dense is not None and not tolerance("psd", hermitian_spectrum(dense[1]).values[0] / 2, 2.0**ft.shape.k)[0]:
            return False
    dense = _dense_defect(what, ft, build)
    return dense is None or psd_verdict(hermitian_spectrum(dense[1]).values).positive

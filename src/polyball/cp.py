"""Matrix tuples, their completely positive transfer maps, and defect calculus.

An operator tuple is a k-tuple of row tuples of square matrices on a common
finite-dimensional space, with cross-factor entries commuting.  The transfer
map of factor ``i`` is ``Y -> sum_j T_{i,j} Y T_{i,j}^*``; defect maps are
alternating compositions of ``id - Phi_i``.  Everything here is exact
finite-dimensional linear algebra; no Fock truncation is involved.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property, reduce, wraps
from typing import NamedTuple

import numpy as np

from .basis import Shape

MAX_PURITY_ITER = 200
SIZE_BUDGET = 2**30  # largest array a dense route may form, in bytes, checked before it is allocated


class Tolerance(NamedTuple):
    """A row of ``TOLERANCES``: one check's bound, how it scales, and when the measured ``x`` passes it."""

    value: float | str  # or the name of the row whose value the check borrows
    scale: str  # a rule of _SCALES
    comparison: str  # a test of _PASSES; ">=" reads x against minus the bound
    bounds: str


_SCALES = {"absolute": lambda x, s: 1.0, "relative": lambda x, s: np.maximum(s, 1.0),  # the scale, at least 1
           "top": lambda x, s: np.max(x, initial=0.0)}  # the largest entry of x
_PASSES = {"<=": lambda x, b: np.logical_not(x > b), "<": lambda x, b: x < b, ">": lambda x, b: x > b,
           ">=": lambda x, b: x >= b, "chain": lambda x, b: not any(u > v + b for u, v in zip(x, x[1:]))}
TOLERANCES = {
    "psd": Tolerance(1e-10, "relative", ">=", "least eigenvalue of every PSD verdict; scale: the spectral norm"),
    "ampliation": Tolerance("psd", "relative", "<=", "ampliation defect minus the product of the part defects"),
    "commutation": Tolerance(1e-10, "relative", "<=", "commutator norms; scale: products of the largest entry norms"),
    "purity": Tolerance(1e-9, "absolute", "<", "norm of Phi_i^m(I) read as decayed; 10 times it as not decayed"),
    "stall": Tolerance(1e-12, "relative", "<", "change of that norm read as stalled; scale: the previous norm"),
    "rank": Tolerance(1e-9, "top", ">", "defect eigenvalues counted in its rank"),
    "svd_rank": Tolerance(1e-12, "top", ">", "singular values counted in a subspace's rank"),
    "intertwine": Tolerance(1e-10, "absolute", "<=", "Theta* Theta - I of an isometric multiplier; the default --tol"),
    "multiplier": Tolerance(1e-12, "relative", "<=", "Theta S - S Theta of a multiplier; scale: its largest entry"),
    "completion": Tolerance(1e-8, "absolute", "<=", "K K* + Theta Theta* - I on interior grades"),
    "gram": Tolerance(1e-12, "absolute", "<=", "B* B - I of a loaded subspace basis"),
    "invariance": Tolerance(1e-10, "absolute", "<=", "shift-invariance residual of a loaded subspace"),
    "decomposition": Tolerance(1e-10, "absolute", "<=", "P_M minus the sum of Psi Psi* in an inner sequence"),
    "support": Tolerance(1e-12, "absolute", ">", "span column norm at a cap grade read as support"),
    "span_shift": Tolerance(1e-12, "absolute", ">", "shifted seed norm kept by invariant_span"),
    "span_new": Tolerance(1e-10, "absolute", ">", "new direction norm added by invariant_span"),
    "imag": Tolerance(1e-12, "relative", "<=", "imaginary part of a grade trace; scale: its real part"),
    "monotone_slack": Tolerance(1e-12, "absolute", "<=", "largest grade value increase with monotone_ok true"),
    "monotone_error": Tolerance(1e-10, "absolute", "<=", "largest grade value increase before exit 3"),
    "bounds_chain": Tolerance(1e-10, "relative", "chain", "0 <= estimate <= trace(defect) <= rank; scale: the trace"),
}


def tolerance(name: str, x, scale=1.0):
    """``(ok, x, bound)`` of ``x`` against row ``name`` of ``TOLERANCES``; a scalar ``x`` gives a bool and a float."""
    row = TOLERANCES[name]
    bound = TOLERANCES.get(row.value, row).value * _SCALES[row.scale](x, scale)  # a borrowed value, else the row's
    bound = (float(bound) if np.ndim(bound) == 0 else bound) * (-1 if row.comparison == ">=" else 1)
    ok = _PASSES[row.comparison](x, bound)
    return (bool(ok) if np.ndim(ok) == 0 else ok), x, bound


class DefectNotPositiveError(ValueError):
    """The defect of a tuple fails positivity beyond tolerance."""

    def __init__(self, eigenvalue: float):
        super().__init__(f"defect has negative eigenvalue {eigenvalue:.3e} beyond tolerance")
        self.eigenvalue = eigenvalue


class MembershipError(ValueError):
    """A tuple is not a member of the regular polyball."""

    def __init__(self, p: tuple[int, ...], eigenvalue: float):
        super().__init__(
            f"defect map at p={p} has negative eigenvalue {eigenvalue:.3e}; not a polyball member"
        )
        self.p = p
        self.eigenvalue = eigenvalue


def require_budget(what: str, nbytes: int) -> None:
    """Refuse ``what`` when its closed-form size ``nbytes`` exceeds ``SIZE_BUDGET``: the one size check.

    Callers count the 16-byte complex entries they are about to form.
    """
    if nbytes > SIZE_BUDGET:
        # a cap in the thousands makes ``nbytes`` too long to print in decimal: name its power of 2
        need = nbytes if nbytes.bit_length() <= 1024 else f"at least 2**{nbytes.bit_length() - 1}"
        raise ValueError(f"{what} needs {need} bytes (budget {SIZE_BUDGET}; use smaller caps)")


def herm(a: np.ndarray) -> np.ndarray:
    """Symmetrize before eigendecomposition to kill roundoff asymmetry."""
    return (a + a.conj().T) / 2


class Spectrum(NamedTuple):
    values: np.ndarray  # ascending
    vectors: np.ndarray | None  # LAPACK's unit eigenvectors as columns, in the order of ``values``, when asked for
    positions: np.ndarray | None  # read from the diagonal: ``values[j]`` has the unit vector at ``positions[j]``


def hermitian_spectrum(h: np.ndarray, vectors: bool = False) -> Spectrum:
    """The spectrum of a Hermitian ``h``: the one route of every Hermitian eigenvalue problem but ``_gram_norm``.

    When nothing lies off the diagonal (a ``-0.0`` is nothing), the values are
    the real diagonal sorted stably, ties in diagonal order, and the
    eigenvectors are the unit vectors at ``positions``: no LAPACK call and no
    product.  LAPACK gives the same value bits and the same vectors, up to the
    order among tied eigenvalues, which it does not keep stable.  Otherwise one
    ``eigvalsh``, or one ``eigh`` with ``vectors``.
    """
    d = h.diagonal()
    if np.count_nonzero(h) == np.count_nonzero(d):
        order = np.argsort(d.real, kind="stable")
        return Spectrum(d.real[order], None, order)
    if vectors:
        return Spectrum(*np.linalg.eigh(h), None)
    return Spectrum(np.linalg.eigvalsh(h), None, None)


@dataclass(frozen=True)
class PsdVerdict:
    positive: bool
    min_eigenvalue: float
    bound: float  # the smallest eigenvalue still read as nonnegative


def psd_verdict(spectrum: np.ndarray) -> PsdVerdict:
    """PSD verdict from the ascending eigenvalues of a Hermitian matrix: the one use of the ``psd`` row.

    The scale is the spectral norm, which for a Hermitian matrix is the
    largest absolute eigenvalue, so no SVD is needed.
    """
    lo, hi = (float(spectrum[0]), float(spectrum[-1])) if len(spectrum) else (0.0, 0.0)
    return PsdVerdict(*tolerance("psd", lo, max(-lo, hi)))


def spectral_norms(stack) -> np.ndarray:
    """Spectral norm of each matrix of a ``(..., r, c)`` stack: the one residual norm.

    Each matrix is scaled by its largest absolute entry, so residuals near
    1e-200 or 1e150 neither underflow nor overflow; the norm is then the square
    root of the top eigenvalue of the Gram matrix of the smaller side, all in one
    batched ``eigvalsh``.  Only the conjugate factor of the Gram product is
    copied and scaled; the scale of the other factor is divided out of the
    small Gram matrix.  All-zero matrices (exact identities) skip the Gram
    product.  A 2-D input gives a 0-d array; an empty matrix has norm 0, and
    one with a NaN or infinite entry has norm NaN.  ``stacked_norm`` is the same
    norm of one matrix taken by row slabs.
    """
    x = np.asarray(stack)
    if not np.issubdtype(x.dtype, np.inexact):
        x = x.astype(float)
    r, c = x.shape[-2:]
    if min(r, c) == 0 or x.size == 0:
        return np.zeros(x.shape[:-2])
    scale = np.abs(x).max(axis=(-2, -1))
    out = np.where(scale == 0, 0.0, np.nan)
    live = np.isfinite(scale) & (scale > 0)
    if not live.any():
        return out
    # a full stack is used in place: a residual is never copied whole
    y, s = (x, scale[..., None, None]) if live.all() else (x[live], scale[live][:, None, None])
    out[live] = _gram_norm(_scaled_gram(y, s, c <= r), s[..., 0, 0])
    return out


def slab_gram(slab: np.ndarray, rows: int) -> tuple[float, np.ndarray | None]:
    """One row slab of a ``rows x c`` matrix as ``stacked_norm`` reads it: ``(s, G)``.

    ``s`` is the slab's largest absolute entry and ``G`` its Gram matrix divided
    by ``s**2``: ``slab^* slab`` (c x c), which adds up over row slabs.  A
    matrix with fewer rows than columns is one slab, and takes ``slab slab^*``
    as ``spectral_norms`` does.  An all-zero or non-finite slab has no Gram
    (``G`` is None).
    """
    s = float(np.abs(slab).max(initial=0.0))
    if not (math.isfinite(s) and s > 0):
        return s, None
    return s, _scaled_gram(slab, s, slab.shape[-1] <= rows)


def stacked_norm(parts) -> float:
    """``spectral_norms`` of one matrix from the ``slab_gram`` parts of its row slabs.

    The Grams are summed in the order given, each times ``(s / top)**2`` with
    ``top`` the largest slab scale, so one slab gives the bits of
    ``spectral_norms`` and no slab under- or overflows.  A NaN or infinite
    entry gives NaN, and an all-zero matrix 0.0.
    """
    top = float(np.max([s for s, _ in parts], initial=0.0))  # a NaN scale propagates
    if not math.isfinite(top):
        return math.nan
    gram = None
    for s, g in parts:
        if g is not None:
            g = g * (s / top) ** 2
            gram = g if gram is None else gram + g
    return 0.0 if gram is None else float(_gram_norm(gram, top))


def divide_real(a: np.ndarray, d) -> None:
    """``a /= d`` in place, for a real ``d`` that broadcasts against ``a``.

    numpy divides a complex number by a real one as the product with the
    reciprocal, part by part.  For a C-contiguous complex ``a`` this takes that
    product on the real view: the same bits for finite entries, in a fraction
    of the time.
    """
    if a.dtype != np.complex128 or not a.flags.c_contiguous:
        a /= d
        return
    v = a.view(np.float64)
    np.multiply(v, 1.0 / np.asarray(d, dtype=np.float64), out=v)


def _scaled_gram(y: np.ndarray, s, by_columns: bool) -> np.ndarray:
    """The Gram matrix of ``y / s``: ``y^* y`` over the columns, else ``y y^*``; ``s`` broadcasts over a stack."""
    yc = np.conj(y)
    divide_real(yc, s)
    gram = np.swapaxes(yc, -2, -1) @ y if by_columns else y @ np.swapaxes(yc, -2, -1)
    del yc
    divide_real(gram, s)
    return gram


def _gram_norm(gram: np.ndarray, s):
    """``s`` times the square root of the top eigenvalue of each scaled Gram matrix."""
    return np.sqrt(np.clip(np.linalg.eigvalsh(gram)[..., -1], 0.0, None)) * s


def max_spectral_norm(mats) -> float:
    """Largest spectral norm among matrices of any shapes: one ``spectral_norms`` call per shape."""
    by_shape: dict = {}
    for m in mats:
        by_shape.setdefault(m.shape, []).append(m)
    return max((float(spectral_norms(np.stack(group)).max()) for group in by_shape.values()), default=0.0)


def require_commuting(resid: float, factors, scale, what: str) -> None:
    """Refuse a commutator residual above the ``commutation`` row: the one commutation rule.

    ``tops`` are the largest entry norms of the ``factors``, and ``scale`` maps
    them to the norm scale of the commutators tested.  The bound is at least
    the row's value, so the norms are computed only above it.
    """
    if tolerance("commutation", resid)[0]:
        return
    tops = [float(spectral_norms(np.stack(mats)).max()) for mats in factors]
    if not tolerance("commutation", resid, scale(tops))[0]:
        raise ValueError(f"{what} do not commute (residual {resid:.3e})")


def require_commutative(t: OperatorTuple) -> None:
    """A commutative-polyball element has commuting entries within each factor too."""
    resid = max_spectral_norm(a @ b - b @ a for mats in t.factors for a, b in itertools.combinations(mats, 2))
    require_commuting(resid, t.factors, lambda tops: max(top * top for top in tops), "entries within a factor")


@dataclass(frozen=True)
class OperatorTuple:
    """A k-tuple of row tuples of dimH x dimH complex matrices."""

    shape: Shape
    dimH: int
    factors: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self):
        if len(self.factors) != self.shape.k:
            raise ValueError("factor count does not match shape")
        frozen = []
        for i, mats in enumerate(self.factors):
            if len(mats) != self.shape.n[i]:
                raise ValueError(f"factor {i} has {len(mats)} entries, expected {self.shape.n[i]}")
            row = []
            for m in mats:
                a = np.asarray(m, dtype=complex)
                if a.shape != (self.dimH, self.dimH):
                    raise ValueError(f"entry of factor {i} has shape {a.shape}, expected square dim {self.dimH}")
                a = a.copy()
                a.flags.writeable = False
                row.append(a)
            frozen.append(tuple(row))
        object.__setattr__(self, "factors", tuple(frozen))
        require_commuting(max_cross_commutator(self), self.factors,
                          lambda tops: max((a * b for a, b in itertools.combinations(tops, 2)), default=0.0),
                          "cross-factor entries")

    @property
    def k(self) -> int:
        return self.shape.k

    @cached_property  # the entries are read-only: what follows from them alone is formed once per tuple
    def _defect(self) -> np.ndarray:
        """``herm(Delta_T(I))``, read-only: ``check_polyball`` at ``p = (1,...,1)`` and ``defect_data`` both read it."""
        return _read_only(herm(defect_map(self, (1,) * self.k)))

    @cached_property
    def _verdict(self) -> PolyballVerdict:
        verdicts = {p: psd_verdict(np.ones(self.dimH) if h is None else hermitian_spectrum(h).values)
                    for p, h in self._membership_maps()}  # Delta_0(I) is I: its spectrum is read as ones
        worst = min(verdicts, key=lambda p: verdicts[p].min_eigenvalue - verdicts[p].bound)
        eigs = {p: v.min_eigenvalue for p, v in verdicts.items()}
        return PolyballVerdict(all(v.positive for v in verdicts.values()), worst, eigs[worst], eigs)

    def _membership_maps(self, i: int = 0, y: np.ndarray | None = None, p: tuple[int, ...] = ()):
        """``(p + r, herm(Delta_{p + r}(I)))`` for every ``r`` in ``{0,1}^{k - i}``, in ``itertools.product`` order.

        ``y`` is ``Delta_p(I)``; None is the identity, and is yielded as None.
        Each map is one ``_defect_step`` of the map without its last factor:
        the bits of ``defect_map`` in ``2^k - 1`` steps.  The map at
        ``(1,...,1)`` is the defect, kept as ``_defect`` or read from it.
        """
        if i == self.k:
            yield p, (None if y is None else herm(y))
            return
        yield from self._membership_maps(i + 1, y, p + (0,))
        if i < self.k - 1 or not all(p):
            yield from self._membership_maps(i + 1, _defect_step(self, i, y), p + (1,))
            return
        if "_defect" not in self.__dict__:  # where cached_property keeps it
            self.__dict__["_defect"] = _read_only(herm(_defect_step(self, i, y)))
        yield p + (1,), self._defect

    @cached_property
    def _defect_data(self) -> DefectData:
        vals, vecs, positions = hermitian_spectrum(self._defect, vectors=True)
        if not (verdict := psd_verdict(vals)).positive:
            raise DefectNotPositiveError(verdict.min_eigenvalue)
        clipped = np.clip(vals, 0.0, None)
        keep = tolerance("rank", clipped)[0]
        kept = [j for j in np.argsort(clipped)[::-1] if keep[j]]
        if positions is None:
            sqrt = (vecs * np.sqrt(clipped)) @ vecs.conj().T
            basis = np.stack([vecs[:, j] for j in kept], axis=1) if kept else np.zeros((self.dimH, 0), dtype=complex)
        else:  # a diagonal defect: its root is the diagonal of roots, its range basis unit vectors
            sqrt = np.diag(np.sqrt(np.clip(self._defect.diagonal().real, 0.0, None))).astype(complex)
            basis = np.zeros((self.dimH, len(kept)), dtype=complex)
            basis[positions[kept], np.arange(len(kept))] = 1.0
        return DefectData(self._defect, _read_only(sqrt), len(kept), _read_only(basis))

    def entry(self, i: int, j: int) -> np.ndarray:
        """Matrix of generator ``j`` (1-based letter) in factor ``i`` (0-based)."""
        return self.factors[i][j - 1]


def max_cross_commutator(t: OperatorTuple) -> float:
    """Largest norm of a commutator between entries of distinct factors."""
    return max_spectral_norm(
        a @ b - b @ a
        for s, u in itertools.combinations(range(t.shape.k), 2)
        for a in t.factors[s]
        for b in t.factors[u]
    )


def cp_apply(t: OperatorTuple, i: int, y: np.ndarray | None) -> np.ndarray:
    """Transfer map of factor ``i``: ``sum_j T_{i,j} Y T_{i,j}^*``; ``y`` None is the identity, ``sum_j T T^*``."""
    return _transfer(t, i, y, adjoint=False)


def cp_apply_adjoint(t: OperatorTuple, i: int, y: np.ndarray | None) -> np.ndarray:
    """Hilbert-Schmidt adjoint of the transfer map of factor ``i``: ``sum_j T_{i,j}^* Y T_{i,j}``; None is I."""
    return _transfer(t, i, y, adjoint=True)


def _transfer(t: OperatorTuple, i: int, y: np.ndarray | None, adjoint: bool) -> np.ndarray:
    """``cp_apply`` or its adjoint.  None is the identity, never a factor: ``a @ I @ a^*`` has ``a @ a^*``'s bits."""
    if y is None:
        out = np.zeros((t.dimH, t.dimH), dtype=complex)
        for a in t.factors[i]:
            out += a.conj().T @ a if adjoint else a @ a.conj().T
        return out
    y = np.asarray(y, dtype=complex)
    if y.shape != (t.dimH, t.dimH):
        raise ValueError(f"argument has shape {y.shape}, expected ({t.dimH}, {t.dimH})")
    out = np.zeros_like(y)
    for a in t.factors[i]:
        out += a.conj().T @ y @ a if adjoint else a @ y @ a.conj().T
    return out


def cp_apply_power(t: OperatorTuple, i: int, y: np.ndarray | None, q: int) -> np.ndarray:
    for _ in range(q):
        y = cp_apply(t, i, y)
    return np.eye(t.dimH, dtype=complex) if y is None else y


def defect_map(t: OperatorTuple, p: tuple[int, ...], y: np.ndarray | None = None) -> np.ndarray:
    """``(id - Phi_1)^{p_1} o ... o (id - Phi_k)^{p_k}`` applied to ``y``, the identity by default."""
    if len(p) != t.k or any(v < 0 for v in p):
        raise ValueError(f"exponent vector {p} invalid for k={t.k}")
    out = None if y is None else np.asarray(y, dtype=complex)
    if out is not None and out.shape != (t.dimH, t.dimH):
        raise ValueError(f"argument has shape {out.shape}, expected ({t.dimH}, {t.dimH})")
    for i in range(t.k):
        for _ in range(p[i]):
            out = _defect_step(t, i, out)
    return np.eye(t.dimH, dtype=complex) if out is None else out


def _defect_step(t: OperatorTuple, i: int, y: np.ndarray | None) -> np.ndarray:
    """``y - Phi_i(y)``; ``y`` None is the identity."""
    return (np.eye(t.dimH, dtype=complex) if y is None else y) - cp_apply(t, i, y)


@dataclass(frozen=True)
class PolyballVerdict:
    member: bool
    worst_p: tuple[int, ...]
    worst_eig: float
    eigenvalues: dict = field(repr=False)


def check_polyball(t: OperatorTuple) -> PolyballVerdict:
    """PSD test of the defect map at every p in {0,1}^k, once per tuple; the worst p has the least margin."""
    return t._verdict


def require_membership(t: OperatorTuple) -> PolyballVerdict:
    v = check_polyball(t)
    if not v.member:
        raise MembershipError(v.worst_p, v.worst_eig)
    return v


@dataclass(frozen=True)
class PurityReport:
    verdicts: tuple[str, ...]
    iterations: tuple[int, ...]
    final_norms: tuple[float, ...]

    @property
    def overall(self) -> str:
        if all(v == "pure" for v in self.verdicts):
            return "pure"
        if any(v == "not_pure" for v in self.verdicts):
            return "not_pure"
        return "undetermined"


def check_pure(t: OperatorTuple) -> PurityReport:
    """Iterate ``Y <- Phi_i(Y)`` from the identity; heuristic norm-decay purity test."""
    verdicts, iters, norms = [], [], []
    for i in range(t.k):
        y = None  # the identity
        verdict = "undetermined"
        norm = 1.0
        it = 0
        for it in range(1, MAX_PURITY_ITER + 1):
            y = cp_apply(t, i, y)
            new_norm = float(spectral_norms(y))
            pure, _, floor = tolerance("purity", new_norm)
            # a stall counts only an order of magnitude above the purity floor
            stalled = not pure and tolerance("stall", abs(new_norm - norm), norm)[0] and new_norm > 10 * floor
            norm = new_norm
            if pure or stalled:
                verdict = "pure" if pure else "not_pure"
                break
        verdicts.append(verdict)
        iters.append(it)
        norms.append(norm)
    return PurityReport(tuple(verdicts), tuple(iters), tuple(norms))


@dataclass(frozen=True)
class DefectData:
    defect: np.ndarray
    sqrt: np.ndarray
    rank: int
    range_basis: np.ndarray  # dimH x rank, orthonormal columns


def defect_data(t: OperatorTuple) -> DefectData:
    """Hermitian eigendecomposition of the defect, once per tuple, in read-only arrays; clipped spectrum and rank."""
    return t._defect_data


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def direct_sum(t: OperatorTuple, u: OperatorTuple) -> OperatorTuple:
    """Block-diagonal tuple on the direct sum of the two spaces."""
    if t.shape.n != u.shape.n:
        raise ValueError(f"shape mismatch: {t.shape.n} vs {u.shape.n}")
    dim = t.dimH + u.dimH
    factors = []
    for i in range(t.k):
        row = []
        for a, b in zip(t.factors[i], u.factors[i]):
            m = np.zeros((dim, dim), dtype=complex)
            m[: t.dimH, : t.dimH] = a
            m[t.dimH :, t.dimH :] = b
            row.append(m)
        factors.append(tuple(row))
    return OperatorTuple(Shape(t.shape.n), dim, tuple(factors))


def ampliation(tuples: list[OperatorTuple]) -> OperatorTuple:
    """Tuple with entries ``I x ... x X_{r,s} x ... x I`` on the tensor product of the spaces.

    Each input must be a polyball member; the defect of the result factors as
    the tensor product of the factor defects, which is verified.
    """
    if not tuples:
        raise ValueError("need at least one tuple")
    for t in tuples:
        require_membership(t)
    if len(tuples) == 1:
        return tuples[0]
    dims = [t.dimH for t in tuples]
    total = int(np.prod(dims))
    n = tuple(ni for t in tuples for ni in t.shape.n)
    factors = []
    for b, t in enumerate(tuples):
        for i in range(t.k):
            row = []
            for a in t.factors[i]:
                pieces = [np.eye(d, dtype=complex) for d in dims]
                pieces[b] = a
                row.append(reduce(np.kron, pieces))
            factors.append(tuple(row))
    out = OperatorTuple(Shape(n), total, tuple(factors))
    # the parts' defects were formed by require_membership, and out's is the one check_polyball(out) reads
    expected = reduce(np.kron, [t._defect for t in tuples])
    resid, scale = spectral_norms(np.stack([out._defect - expected, expected]))
    if not tolerance("ampliation", resid, scale)[0]:
        raise ValueError("ampliation defect does not factor as the tensor product of factor defects")
    return out


def gc_paused(fn):
    """``fn`` with the cyclic collector paused: a JSON payload's lists hold no cycles, and die with ``fn``'s frame."""
    @wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


@gc_paused
def tuple_to_json(t: OperatorTuple) -> str:
    """Serialize to the wire format; floats round-trip bit-exactly."""
    factors = [[matrix_to_pairs(a) for a in row] for row in t.factors]
    return json.dumps({"n": list(t.shape.n), "dimH": t.dimH, "factors": factors})


@gc_paused
def tuple_from_json(text: str) -> OperatorTuple:
    """A tuple from its JSON; a field that is missing, null or of the wrong type is refused by name."""
    data = json.loads(text)
    n = tuple(json_field(data, "n", "ints"))
    dim = json_field(data, "dimH", "int")
    if dim < 1:
        raise ValueError(f"dimH must be >= 1, got {dim}")
    rows = json_field(data, "factors", "list")
    if not all(isinstance(row, list) for row in rows):
        raise ValueError("field 'factors' must be a list of rows, each a list of matrices")
    factors = tuple(tuple(matrix_from_pairs(m, dim, dim) for m in row) for row in rows)
    return OperatorTuple(Shape(n), dim, factors)


def matrix_to_pairs(a: np.ndarray) -> list[list[float]]:
    """The entries of ``a`` in row-major order as ``[re, im]`` pairs, the wire format of every matrix."""
    return np.stack([a.real, a.imag], -1).reshape(-1, 2).tolist()


_PAIRS_ERROR = "matrix entries must be [re, im] pairs of numbers"


def matrix_from_pairs(pairs, rows: int, cols: int) -> np.ndarray:
    """A ``rows x cols`` complex matrix from ``rows * cols`` row-major ``[re, im]`` pairs.

    Entries must be JSON numbers: a string is refused even when it spells one,
    and a null or an integer beyond float range is not finite.  Any bad payload
    is a ``ValueError``.
    """
    try:
        flat = np.asarray(pairs)
    except ValueError:  # ragged nesting
        raise ValueError(_PAIRS_ERROR) from None
    count = len(flat) if flat.ndim else 0
    if count != rows * cols:
        raise ValueError(f"matrix payload has {count} entries, expected {rows * cols}")
    if count and flat.shape[1:] != (2,):
        raise ValueError(_PAIRS_ERROR)
    if flat.dtype.kind == "O":  # a null, or an integer beyond 64 bits
        flat = np.array([_json_number(v) for v in flat.flat]).reshape(flat.shape)
    elif flat.dtype.kind not in "biuf":
        raise ValueError(_PAIRS_ERROR)
    flat = flat.astype(float, copy=False)
    if not np.isfinite(flat).all():
        raise ValueError("matrix entries must be finite; got NaN, inf or null")
    return flat.view(complex).reshape(rows, cols)


def _is_json_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


_JSON_KINDS = {
    "int": ("an integer", _is_json_int),
    "ints": ("a list of integers", lambda v: isinstance(v, list) and all(map(_is_json_int, v))),
    "list": ("a list", lambda v: isinstance(v, list)),
    "number": ("a number", lambda v: isinstance(v, float) or _is_json_int(v)),
    "object": ("an object", lambda v: isinstance(v, dict)),
    "str": ("a string", lambda v: isinstance(v, str)),
}


def json_field(data, key: str, kind: str, default=None):
    """Field ``key`` of a decoded JSON object, of a ``kind`` named in ``_JSON_KINDS`` (``"int"``, ``"list"``, ...).

    A payload that is not an object, a missing field (unless a ``default`` is
    given), a null field and a value of another type (a boolean is not an
    integer, nor is ``2.0`` or ``"2"``) are each a ``ValueError`` that names the
    field.
    """
    what, ok = _JSON_KINDS[kind]
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object with field {key!r}, got {type(data).__name__}")
    if default is not None and key not in data:
        return default
    value = data.get(key)
    if value is None:
        raise ValueError(f"field {key!r} is missing or null; expected {what}")
    if not ok(value):
        raise ValueError(f"field {key!r} must be {what}")
    return value


def json_int(data, key: str, lo: int, hi: int | None = None) -> int:
    """Integer field ``key`` in ``lo..hi`` (no upper end for ``hi=None``), refused by name otherwise."""
    value = json_field(data, key, "int")
    if value < lo or (hi is not None and value > hi):
        bound = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ValueError(f"field {key!r} must be {bound}, got {value}")
    return value


def _json_number(v) -> float:
    """A decoded JSON entry as a float: null reads as NaN, an integer beyond float range as inf."""
    if v is None:
        return math.nan
    if not isinstance(v, (int, float)):
        raise ValueError(_PAIRS_ERROR)
    try:
        return float(v)
    except OverflowError:
        return math.inf

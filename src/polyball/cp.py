"""Matrix tuples, their completely positive transfer maps, and defect calculus.

An operator tuple is a k-tuple of row tuples of square matrices on a common
finite-dimensional space, with cross-factor entries commuting.  The transfer
map of factor ``i`` is ``Y -> sum_j T_{i,j} Y T_{i,j}^*``; defect maps are
alternating compositions of ``id - Phi_i``.  Everything here is exact
finite-dimensional linear algebra; no Fock truncation is involved.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .basis import Shape

COMMUTATION_TOL = 1e-10
PSD_TOL = 1e-10
PURITY_TOL = 1e-9
STALL_TOL = 1e-12
MAX_PURITY_ITER = 200
RANK_TOL = 1e-9
SIZE_BUDGET = 2**30  # largest array a dense route may form, in bytes, checked before it is allocated


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


@dataclass(frozen=True)
class PsdVerdict:
    positive: bool
    min_eigenvalue: float
    bound: float  # the smallest eigenvalue still read as nonnegative


def psd_verdict(spectrum: np.ndarray) -> PsdVerdict:
    """PSD verdict from the ascending eigenvalues of a Hermitian matrix: the one use of ``PSD_TOL``.

    The scale is the spectral norm (at least 1), which for a Hermitian matrix
    is the largest absolute eigenvalue, so no SVD is needed.
    """
    lo, hi = (float(spectrum[0]), float(spectrum[-1])) if len(spectrum) else (0.0, 0.0)
    bound = -PSD_TOL * max(-lo, hi, 1.0)
    return PsdVerdict(lo >= bound, lo, bound)


def spectral_norms(stack) -> np.ndarray:
    """Spectral norm of each matrix of a ``(..., r, c)`` stack: the one residual norm.

    Each matrix is scaled by its largest absolute entry, so residuals near
    1e-200 or 1e150 neither underflow nor overflow; the norm is then the square
    root of the top eigenvalue of the Gram matrix of the smaller side, all in one
    batched ``eigvalsh``.  Only the conjugate factor of the Gram product is
    copied and scaled; the scale of the other factor is divided out of the
    small Gram matrix.  All-zero matrices (exact identities) skip the Gram
    product.  A 2-D input gives a 0-d array; an empty matrix has norm 0, and
    one with a NaN or infinite entry has norm NaN.
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
    yc = np.conj(y)
    yc /= s
    gram = np.swapaxes(yc, -2, -1) @ y if c <= r else y @ np.swapaxes(yc, -2, -1)
    del yc
    gram /= s
    out[live] = np.sqrt(np.clip(np.linalg.eigvalsh(gram)[..., -1], 0.0, None)) * s[..., 0, 0]
    return out


def max_spectral_norm(mats) -> float:
    """Largest spectral norm among matrices of any shapes: one ``spectral_norms`` call per shape."""
    by_shape: dict = {}
    for m in mats:
        by_shape.setdefault(m.shape, []).append(m)
    return max((float(spectral_norms(np.stack(group)).max()) for group in by_shape.values()), default=0.0)


def require_commuting(resid: float, factors, scale, what: str) -> None:
    """Refuse a commutator residual above ``COMMUTATION_TOL * max(scale(tops), 1)``: the one commutation rule.

    ``tops`` are the largest entry norms of the ``factors``, and ``scale`` maps
    them to the norm scale of the commutators tested.  The bound is at least
    ``COMMUTATION_TOL``, so the norms are computed only above it.
    """
    if resid <= COMMUTATION_TOL:
        return
    tops = [float(spectral_norms(np.stack(mats)).max()) for mats in factors]
    if resid > COMMUTATION_TOL * max(scale(tops), 1.0):
        raise ValueError(f"{what} do not commute (residual {resid:.3e})")


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


def cp_apply(t: OperatorTuple, i: int, y: np.ndarray) -> np.ndarray:
    """Transfer map of factor ``i``: ``sum_j T_{i,j} Y T_{i,j}^*``."""
    y = np.asarray(y, dtype=complex)
    if y.shape != (t.dimH, t.dimH):
        raise ValueError(f"argument has shape {y.shape}, expected ({t.dimH}, {t.dimH})")
    out = np.zeros_like(y)
    for a in t.factors[i]:
        out += a @ y @ a.conj().T
    return out


def cp_apply_adjoint(t: OperatorTuple, i: int, y: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt adjoint of the factor-``i`` transfer map: ``sum_j T_{i,j}^* Y T_{i,j}``."""
    y = np.asarray(y, dtype=complex)
    if y.shape != (t.dimH, t.dimH):
        raise ValueError(f"argument has shape {y.shape}, expected ({t.dimH}, {t.dimH})")
    out = np.zeros_like(y)
    for a in t.factors[i]:
        out += a.conj().T @ y @ a
    return out


def cp_apply_power(t: OperatorTuple, i: int, y: np.ndarray, q: int) -> np.ndarray:
    for _ in range(q):
        y = cp_apply(t, i, y)
    return y


def defect_map(t: OperatorTuple, p: tuple[int, ...], y: np.ndarray) -> np.ndarray:
    """``(id - Phi_1)^{p_1} o ... o (id - Phi_k)^{p_k}`` applied to ``y``."""
    if len(p) != t.k or any(v < 0 for v in p):
        raise ValueError(f"exponent vector {p} invalid for k={t.k}")
    out = np.asarray(y, dtype=complex)
    if out.shape != (t.dimH, t.dimH):
        raise ValueError(f"argument has shape {out.shape}, expected ({t.dimH}, {t.dimH})")
    for i in range(t.k):
        for _ in range(p[i]):
            out = out - cp_apply(t, i, out)
    return out


@dataclass(frozen=True)
class PolyballVerdict:
    member: bool
    worst_p: tuple[int, ...]
    worst_eig: float
    eigenvalues: dict = field(repr=False)


def check_polyball(t: OperatorTuple) -> PolyballVerdict:
    """PSD test of the defect map at every p in {0,1}^k; the worst p has the least margin."""
    eye = np.eye(t.dimH, dtype=complex)
    verdicts = {p: psd_verdict(np.linalg.eigvalsh(herm(defect_map(t, p, eye))))
                for p in itertools.product((0, 1), repeat=t.k)}
    worst = min(verdicts, key=lambda p: verdicts[p].min_eigenvalue - verdicts[p].bound)
    eigs = {p: v.min_eigenvalue for p, v in verdicts.items()}
    return PolyballVerdict(all(v.positive for v in verdicts.values()), worst, eigs[worst], eigs)


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
        y = np.eye(t.dimH, dtype=complex)
        verdict = "undetermined"
        norm = 1.0
        it = 0
        for it in range(1, MAX_PURITY_ITER + 1):
            y = cp_apply(t, i, y)
            new_norm = float(spectral_norms(y))
            if new_norm < PURITY_TOL:
                verdict = "pure"
                norm = new_norm
                break
            if abs(new_norm - norm) < STALL_TOL * max(norm, 1.0) and new_norm > 10 * PURITY_TOL:
                verdict = "not_pure"
                norm = new_norm
                break
            norm = new_norm
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
    """Hermitian eigendecomposition of the defect, with clipped spectrum and numerical rank."""
    d = herm(defect_map(t, (1,) * t.k, np.eye(t.dimH, dtype=complex)))
    vals, vecs = np.linalg.eigh(d)
    verdict = psd_verdict(vals)
    if not verdict.positive:
        raise DefectNotPositiveError(verdict.min_eigenvalue)
    clipped = np.clip(vals, 0.0, None)
    sqrt = (vecs * np.sqrt(clipped)) @ vecs.conj().T
    keep = clipped > RANK_TOL * clipped.max(initial=0.0)
    rank = int(np.count_nonzero(keep))
    cols = [vecs[:, j] for j in np.argsort(clipped)[::-1] if keep[j]]
    basis = np.stack(cols, axis=1) if cols else np.zeros((t.dimH, 0), dtype=complex)
    return DefectData(d, sqrt, rank, basis)


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
    expected = np.array([[1.0 + 0j]])
    for t in tuples:
        expected = np.kron(expected, defect_map(t, (1,) * t.k, np.eye(t.dimH, dtype=complex)))
    got = defect_map(out, (1,) * out.k, np.eye(total, dtype=complex))
    resid, scale = spectral_norms(np.stack([got - expected, expected]))
    if resid > PSD_TOL * max(scale, 1.0):
        raise ValueError("ampliation defect does not factor as the tensor product of factor defects")
    return out


def tuple_to_json(t: OperatorTuple) -> str:
    """Serialize to the wire format; floats round-trip bit-exactly."""
    return json.dumps(
        {
            "n": list(t.shape.n),
            "dimH": t.dimH,
            "factors": [[matrix_to_pairs(a) for a in row] for row in t.factors],
        }
    )


def tuple_from_json(text: str) -> OperatorTuple:
    data = json.loads(text)
    n = tuple(int(v) for v in data["n"])
    dim = int(data["dimH"])
    if dim < 1:
        raise ValueError(f"dimH must be >= 1, got {dim}")
    factors = tuple(tuple(matrix_from_pairs(m, dim, dim) for m in row) for row in data["factors"])
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
}


def json_field(data, key: str, kind: str):
    """Field ``key`` of a decoded JSON object, of ``kind`` ``"int"``, ``"ints"`` or ``"list"``.

    A payload that is not an object, a missing or null field and a value of
    another type (a boolean is not an integer, nor is ``2.0`` or ``"2"``) are
    each a ``ValueError`` that names the field.
    """
    what, ok = _JSON_KINDS[kind]
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object with field {key!r}, got {type(data).__name__}")
    value = data.get(key)
    if value is None:
        raise ValueError(f"field {key!r} is missing or null; expected {what}")
    if not ok(value):
        raise ValueError(f"field {key!r} must be {what}")
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

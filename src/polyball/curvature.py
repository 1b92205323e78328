"""Curvature estimators: per-grade normalized traces and their asymptotic forms.

Four routes to the same limit are computed side by side: the per-grade ratio
at the corner ``(Q,...,Q)``, the simplex Cesaro means, the defect-product
form, and (through the Berezin module) the weighted operator trace.  At
finite depth they agree only approximately; agreement is reported, never
asserted.  The corner value is a certified upper bound by monotonicity, so
it is the reported estimate; the last corner decrement serves as the error
proxy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np

from .basis import grade_dim, iter_grades, simplex_cumulative_count
from .cp import OperatorTuple, cp_apply, cp_apply_power, defect_data, require_membership

MONOTONE_SLACK = 1e-12
MONOTONE_ERROR = 1e-10
IMAG_TOL = 1e-12


class NumericalInstabilityError(RuntimeError):
    """Grade values violate monotonicity beyond tolerance."""


@dataclass
class CurvEstimate:
    """Per-grade values with corner, Cesaro, and defect-product sequences."""

    n: tuple[int, ...]
    grade_values: dict[tuple[int, ...], float]
    corner_seq: list[float]
    cesaro_seq: list[float]
    defect_product_seq: list[float]
    estimate: float
    error_proxy: float
    monotone_ok: bool
    formula_spread: float = float("nan")  # max pairwise gap of the routes at full depth
    extrapolated: float | None = None
    exact_values: dict[tuple[int, ...], Fraction] | None = field(default=None, repr=False)
    exact_limit: Fraction | None = None
    caveats: tuple[str, ...] = ()


def _real_trace(y: np.ndarray) -> float:
    tr = complex(np.trace(y))
    if abs(tr.imag) > IMAG_TOL * max(abs(tr.real), 1.0):
        raise NumericalInstabilityError(f"grade trace has imaginary part {tr.imag:.3e}")
    return tr.real


def grade_trace(t: OperatorTuple, q: tuple[int, ...]) -> float:
    """Normalized trace ``trace[Phi^q(defect)] / prod n_i**q_i`` at one grade."""
    dd = defect_data(t)
    y = dd.defect
    for i in range(t.k):
        y = cp_apply_power(t, i, y, q[i])
    return _real_trace(y) / grade_dim(t.shape, q)


def grade_trace_table(t: OperatorTuple, qmax: tuple[int, ...], word_dim=None) -> dict[tuple[int, ...], float]:
    """All normalized grade traces on the box ``q <= qmax``, reusing partial iterates.

    ``word_dim(q)`` is the grade dimension dividing each trace: ``prod n_i**q_i``
    by default (word model), binomial for the symmetric model.
    """
    if word_dim is None:
        word_dim = partial(grade_dim, t.shape)
    dd = defect_data(t)
    table: dict[tuple[int, ...], float] = {}

    def walk(i: int, y: np.ndarray, prefix: tuple[int, ...]) -> None:
        if i == t.k:
            table[prefix] = _real_trace(y) / word_dim(prefix)
            return
        cur = y
        for qi in range(qmax[i] + 1):
            walk(i + 1, cur, prefix + (qi,))
            if qi < qmax[i]:
                cur = cp_apply(t, i, cur)

    walk(0, dd.defect, ())
    return table


def _check_monotone(values: dict[tuple[int, ...], float], k: int) -> bool:
    ok = True
    for q, x in values.items():
        for i in range(k):
            up = tuple(qi + (1 if j == i else 0) for j, qi in enumerate(q))
            if up in values:
                gap = values[up] - x
                if gap > MONOTONE_ERROR:
                    raise NumericalInstabilityError(
                        f"grade value increased from {q} to {up} by {gap:.3e}"
                    )
                if gap > MONOTONE_SLACK:
                    ok = False
    return ok


def _cesaro_means(values: dict[tuple[int, ...], float], k: int, mmax: int) -> list[float]:
    out = []
    for m in range(mmax + 1):
        total = sum(x for q, x in values.items() if sum(q) <= m)
        out.append(total / simplex_cumulative_count(m, k))
    return out


def _summary(n: tuple[int, ...], values: dict[tuple[int, ...], float], q_max: int) -> dict:
    """Estimate fields shared by every estimator: the corner sequence, its Cesaro
    means, the corner value and its last decrement as the error proxy."""
    if q_max < 0:
        raise ValueError(f"q_max must be >= 0, got {q_max}")
    k = len(n)
    corner = [values[(qq,) * k] for qq in range(q_max + 1)]
    return {
        "n": n,
        "grade_values": values,
        "corner_seq": corner,
        "cesaro_seq": _cesaro_means(values, k, q_max),
        "estimate": corner[-1],
        "error_proxy": corner[-2] - corner[-1] if q_max >= 1 else float("nan"),
    }


def _defect_product_traces(t: OperatorTuple, q_max: int) -> list[float]:
    """``trace[(id - Phi_1^{q+1}) ... (id - Phi_k^{q+1})(I)]`` for ``q = 0..q_max``."""
    out = []
    eye = np.eye(t.dimH, dtype=complex)
    for qq in range(q_max + 1):
        y = eye
        for i in range(t.k):
            y = y - cp_apply_power(t, i, y, qq + 1)
        out.append(float(np.trace(y).real))
    return out


def curvature_estimate(t: OperatorTuple, q_max: int, extrapolate: bool = False) -> CurvEstimate:
    """Fill all sequences up to the corner ``(q_max,...,q_max)`` and report the corner value.

    The defect-product route divides by ``prod_i sum_{s<=q} n_i**s``.
    """
    require_membership(t)
    values = grade_trace_table(t, (q_max,) * t.k)
    fields = _summary(t.shape.n, values, q_max)
    monotone_ok = _check_monotone(values, t.k)
    # a float product: sums such as 2**61 - 1 are not exact doubles, and an
    # integer product would round them differently
    defect_product = [
        tr / math.prod((sum(ni**s for s in range(qq + 1)) for ni in t.shape.n), start=1.0)
        for qq, tr in enumerate(_defect_product_traces(t, q_max))
    ]
    routes = (fields["estimate"], fields["cesaro_seq"][-1], defect_product[-1])
    return CurvEstimate(
        **fields,
        defect_product_seq=defect_product,
        monotone_ok=monotone_ok,
        formula_spread=max(routes) - min(routes),
        extrapolated=_aitken(fields["corner_seq"]) if extrapolate else None,
    )


def _aitken(seq: list[float]) -> float | None:
    if len(seq) < 3:
        return None
    x0, x1, x2 = seq[-3], seq[-2], seq[-1]
    denom = (x2 - x1) - (x1 - x0)
    if abs(denom) < 1e-15:
        return x2
    return x2 - (x2 - x1) ** 2 / denom


def subspace_curvature(sub, q_max: int) -> CurvEstimate:
    """Curvature of the compression to the orthocomplement, from per-grade counts.

    ``x_q = trace[P_{M perp}(P_q (x) I)] / trace[P_q]`` needs only the
    subspace's per-grade trace; the compression tuple is never formed.
    Exact rational values are carried alongside floats when the subspace
    supports exact counting.
    """
    ft = sub.truncation
    caps = ft.shape.require_caps()
    if any(q_max > c for c in caps):
        raise ValueError(f"q_max={q_max} exceeds caps {caps}")
    dim_e = ft.coeff_dim
    k = ft.shape.k
    exact: dict[tuple[int, ...], Fraction] | None = {}
    values: dict[tuple[int, ...], float] = {}
    for q in iter_grades((q_max,) * k):
        gd = ft.word_dim(q)
        t_exact = sub.grade_trace_exact(q)
        if t_exact is None or exact is None:
            exact = None
            values[q] = dim_e - sub.grade_trace(q) / gd
        else:
            frac = dim_e - Fraction(t_exact, gd)
            exact[q] = frac
            values[q] = float(frac)
    fields = _summary(ft.shape.n, values, q_max)
    frac_limit = sub.fraction_limit()
    return CurvEstimate(
        **fields,
        defect_product_seq=[],
        monotone_ok=_check_monotone(values, k),
        exact_values=exact,
        exact_limit=None if frac_limit is None else dim_e - frac_limit,
    )


@dataclass(frozen=True)
class BoundsReport:
    lower: float
    estimate: float
    defect_trace: float
    rank: int


def bounds_report(t: OperatorTuple, q_max: int = 6) -> BoundsReport:
    """Assert the chain ``0 <= estimate <= trace(defect) <= rank`` and return it."""
    est = curvature_estimate(t, q_max)
    dd = defect_data(t)
    tr = float(np.trace(dd.defect).real)
    slack = 1e-10 * max(tr, 1.0)
    chain = (0.0, est.estimate, tr, float(dd.rank))
    for a, b in zip(chain, chain[1:]):
        if a > b + slack:
            raise NumericalInstabilityError(f"bounds chain violated: {chain}")
    return BoundsReport(0.0, est.estimate, tr, dd.rank)

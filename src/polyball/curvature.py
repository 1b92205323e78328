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

from .basis import iter_grades, simplex_cumulative_count
from .cp import OperatorTuple, cp_apply, cp_apply_adjoint, defect_data, require_budget, require_membership, tolerance
from .fock import FockTruncation, truncation_for


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
    exact_values: dict[tuple[int, ...], Fraction] | None = field(default=None, repr=False)
    exact_limit: Fraction | None = None
    caveats: tuple[str, ...] = ()


def _real(traces) -> np.ndarray:
    """Real parts of grade traces, refusing imaginary parts beyond roundoff."""
    traces = np.asarray(traces)
    ok = tolerance("imag", np.abs(traces.imag), np.abs(traces.real))[0]
    if not np.all(ok):
        raise NumericalInstabilityError(f"grade trace has imaginary part {traces.imag[np.logical_not(ok)][0]:.3e}")
    return traces.real


class GradeTable(dict):
    """Normalized grade traces keyed by multi-degree, in lexicographic order.

    ``array`` holds the same values and ``traces`` the unnormalized
    ``trace[Phi^q(defect)]``, as arrays over the box ``q <= qmax``.
    """

    array: np.ndarray
    traces: np.ndarray | None


def _grade_table(values: np.ndarray, traces: np.ndarray | None = None) -> GradeTable:
    table = GradeTable(zip(iter_grades(tuple(s - 1 for s in values.shape)), values.ravel().tolist()))
    table.array, table.traces = values, traces
    return table


def grade_trace_table(t: OperatorTuple, qmax: tuple[int, ...], model: str = "full") -> GradeTable:
    """All normalized grade traces on the box ``q <= qmax``, by trace duality.

    ``trace[Phi_B^b Phi_A^a(D)] = <Phi_B^{*b}(I), Phi_A^a(D)>_HS`` splits each
    trace into two short chains: the defect is walked depth first through the
    first ``ceil(k/2)`` transfer maps, and each leaf fills the slab of the
    remaining factors with one product against the stack of adjoint iterates
    of the identity.  That is ``O(Q^ceil(k/2))`` map applications, not one
    per lattice point.  The traces are divided by the grade dimensions of the
    truncation of ``model``.

    The table and the adjoint stack with its transposed copy are sized
    against the budget before the first map is applied.
    """
    qmax = tuple(qmax)
    if len(qmax) != t.k:
        raise ValueError(f"qmax {qmax} does not match k={t.k}")
    if min(qmax) < 0:
        raise ValueError(f"q_max must be >= 0, got {qmax}")
    factor_dim = truncation_for(model, t.shape.with_caps(qmax)).factor_dim
    split = (t.k + 1) // 2
    stacked = math.prod(q + 1 for q in qmax[split:]) * t.dimH**2
    require_budget(f"grade table at qmax {qmax}", 16 * (math.prod(q + 1 for q in qmax) + 2 * stacked))
    stack = [None]  # the identity, which the maps take without a product by it
    for i in range(split, t.k):
        stack = [y for x in stack for y in _chain(partial(cp_apply_adjoint, t, i), x, qmax[i])]
    # trace[X Y] = sum_rs X_sr Y_rs: a row of the transposed stack against vec(Y)
    rows = np.stack([np.eye(t.dimH, dtype=complex) if x is None else x.T for x in stack]).reshape(len(stack), -1)
    traces = np.empty((*(q + 1 for q in qmax[:split]), len(stack)), dtype=complex)

    def walk(i: int, y: np.ndarray, prefix: tuple[int, ...]) -> None:
        if i == split:
            traces[prefix] = rows @ y.reshape(-1)
            return
        for qi, z in enumerate(_chain(partial(cp_apply, t, i), y, qmax[i])):
            walk(i + 1, z, prefix + (qi,))

    walk(0, defect_data(t).defect, ())
    traces = _real(traces).reshape(tuple(q + 1 for q in qmax))
    dims = np.ones((), dtype=object)
    for i, qi in enumerate(qmax):
        dims = np.multiply.outer(dims, np.array([factor_dim(i, q) for q in range(qi + 1)], dtype=object))
    # the grade dimensions are exact integers, rounded once
    return _grade_table(traces / dims.astype(float), traces)


def _chain(step, y: np.ndarray, steps: int):
    """``y, step(y), ..., step^steps(y)``, one application at a time."""
    yield y
    for _ in range(steps):
        y = step(y)
        yield y


def _check_monotone(values: np.ndarray) -> bool:
    """Non-increase of the grade values along every axis, within the ``monotone_slack`` row."""
    ok = True
    for i in range(values.ndim):
        gaps = np.diff(values, axis=i)
        if not gaps.size:
            continue
        worst = gaps.max()
        if not tolerance("monotone_error", worst)[0]:
            q = np.unravel_index(int(gaps.argmax()), gaps.shape)
            up = tuple(int(v) + (j == i) for j, v in enumerate(q))
            raise NumericalInstabilityError(f"grade value increased from {tuple(map(int, q))} to {up} by {worst:.3e}")
        if not tolerance("monotone_slack", worst)[0]:
            ok = False
    return ok


def _cesaro_means(values: np.ndarray) -> list[float]:
    """Means of the grade values over the simplices ``|q| <= m``, ``m = 0..q_max``."""
    k, q_max = values.ndim, values.shape[0] - 1
    flat, degree = values.ravel(), sum(np.indices(values.shape)).ravel()
    # one running sum per simplex in lexicographic order: summing by layers
    # would round differently and move the exact-count estimators' last bits
    return [sum(flat[degree <= m].tolist()) / simplex_cumulative_count(m, k) for m in range(q_max + 1)]


def _summary(n: tuple[int, ...], table: GradeTable) -> dict:
    """Estimate fields shared by every estimator: the corner sequence, its Cesaro
    means, the corner value and its last decrement as the error proxy."""
    values = table.array
    q_max = values.shape[0] - 1
    corner = values[(np.arange(q_max + 1),) * values.ndim].tolist()
    return {
        "n": n,
        "grade_values": table,
        "corner_seq": corner,
        "cesaro_seq": _cesaro_means(values),
        "estimate": corner[-1],
        "error_proxy": corner[-2] - corner[-1] if q_max >= 1 else float("nan"),
    }


def _box_sums(traces: np.ndarray) -> np.ndarray:
    """``sum_{s <= (q,...,q)} traces[s]`` for ``q = 0..q_max``: the diagonal of the cumulative sums.

    With ``traces[s] = trace[Phi^s(defect)]`` this is, by telescoping,
    ``trace[(id - Phi_1^{q+1}) ... (id - Phi_k^{q+1})(I)]``, the defect-product trace.
    """
    for axis in range(traces.ndim):
        traces = np.cumsum(traces, axis=axis)
    return traces[(np.arange(traces.shape[0]),) * traces.ndim]


def _estimate(n: tuple[int, ...], table: GradeTable, defect_product) -> CurvEstimate:
    """The estimate of a tuple from its grade table, with both models' checks and route spread.

    ``defect_product(q, tr)`` turns the defect-product trace ``tr`` at depth ``q``
    (``_box_sums``) into that route's value; a NaN at full depth, which only the
    factorial form gives at ``q_max = 0``, is left out of the spread.
    """
    fields = _summary(n, table)
    monotone_ok = _check_monotone(table.array)
    seq = [defect_product(qq, tr) for qq, tr in enumerate(_box_sums(table.traces).tolist())]
    routes = (fields["estimate"], fields["cesaro_seq"][-1]) + (() if math.isnan(seq[-1]) else (seq[-1],))
    return CurvEstimate(**fields, defect_product_seq=seq, monotone_ok=monotone_ok,
                        formula_spread=max(routes) - min(routes))


def curvature_estimate(t: OperatorTuple, q_max: int) -> CurvEstimate:
    """Fill all sequences up to the corner ``(q_max,...,q_max)`` and report the corner value.

    The defect-product route divides by ``prod_i sum_{s<=q} n_i**s`` (``FockTruncation.cumulative_dim``).
    """
    require_membership(t)
    table = grade_trace_table(t, (q_max,) * t.k)
    cumulative_dim = FockTruncation(t.shape.with_caps((q_max,) * t.k)).cumulative_dim
    # a float product: sums such as 2**61 - 1 are not exact doubles, and an
    # integer product would round them differently
    return _estimate(t.shape.n, table,
                     lambda qq, tr: tr / math.prod((cumulative_dim(i, qq) for i in range(t.k)), start=1.0))


def _occupation(sub, q_max: int) -> dict:
    """``y_q = trace[P_M (P_q (x) I)] / trace[P_q]`` on the box ``q <= (q_max,...,q_max)``.

    Exact ``Fraction``s while every grade so far has an exact count, floats
    from the first grade that has none.
    """
    ft = sub.truncation
    caps = ft.shape.require_caps()
    if q_max < 0:
        raise ValueError(f"q_max must be >= 0, got {q_max}")
    if any(q_max > c for c in caps):
        raise ValueError(f"q_max={q_max} exceeds caps {caps}")
    out: dict = {}
    countable = True
    for q in iter_grades((q_max,) * ft.shape.k):
        te = sub.grade_trace_exact(q) if countable else None
        countable = te is not None
        out[q] = Fraction(te, ft.word_dim(q)) if countable else sub.grade_trace(q) / ft.word_dim(q)
    return out


def _ratio_table(values: dict) -> tuple[GradeTable, dict | None]:
    """The grade table of per-grade ratios on a box, and the ratios themselves when all are exact."""
    corner = next(reversed(values))
    table = _grade_table(np.reshape([float(v) for v in values.values()], tuple(c + 1 for c in corner)))
    return table, (values if all(isinstance(v, Fraction) for v in values.values()) else None)


def _complement_curvature(sub, occupation: dict) -> CurvEstimate:
    """``x_q = dim E - y_q`` from the occupation ratios ``y_q`` of ``_occupation``."""
    dim_e = sub.truncation.coeff_dim
    table, exact = _ratio_table({q: dim_e - y for q, y in occupation.items()})
    return CurvEstimate(
        **_summary(sub.truncation.shape.n, table),
        defect_product_seq=[],
        monotone_ok=_check_monotone(table.array),
        exact_values=exact,
        exact_limit=None if sub.limit is None else dim_e - sub.limit,
    )


def subspace_curvature(sub, q_max: int) -> CurvEstimate:
    """Curvature of the compression to the orthocomplement, from per-grade counts.

    ``x_q = trace[P_{M perp}(P_q (x) I)] / trace[P_q]`` needs only the
    subspace's per-grade trace; the compression tuple is never formed.
    Exact rational values are carried alongside floats when the subspace
    supports exact counting.
    """
    return _complement_curvature(sub, _occupation(sub, q_max))


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
    chain = (0.0, est.estimate, tr, float(dd.rank))
    if not tolerance("bounds_chain", chain, tr)[0]:
        raise NumericalInstabilityError(f"bounds chain violated: {chain}")
    return BoundsReport(0.0, est.estimate, tr, dd.rank)

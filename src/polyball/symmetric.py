"""Commutative polyball machinery on truncated symmetric Fock tensor products.

The model space replaces words by monomials: the grade-``q`` slice of factor
``i`` has dimension ``C(q + n_i - 1, n_i - 1)`` and carries the weighted
monomial inner product ``||z^a||^2 = a!/|a|!``.  The compressed shifts act as
multiplication by the coordinate functions, with entries
``sqrt((a_j + 1)/(q + 1))`` in the orthonormal monomial basis; a literal
symmetrization of the word-model shifts reproduces them, which the tests
cross-check at small caps.

``SymFockTruncation`` is a ``FockTruncation`` that changes only the grade
dimensions (binomial instead of ``n^q``) and the shift weights, so
block-graded operators, kernels, subspaces and the estimator pipeline are
shared with the word model.  The constrained kernel of a commutative tuple is
``berezin_kernel(t, caps, "symmetric")``: the word-model vacuum recursion on
this truncation.  ``shift_data`` also returns the squared weights as the exact
ratios ``(a_j + 1)/(q + 1)``, so the diagonal routes never square a rounded root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .basis import Shape
from .berezin import InnerMultiplier, berezin_kernel, has_characteristic_function
from .cp import OperatorTuple, require_commutative, require_membership
from .curvature import CurvEstimate, _box_sums, _check_monotone, _summary, grade_trace_table
from .fock import FockTruncation, bump
from .subspaces import BeurlingVerdict, GradedSubspace, MultiplicityEstimate, beurling_check, multiplicity_estimate


def sym_grade_dim(n_i: int, q: int) -> int:
    """Dimension ``C(q + n_i - 1, n_i - 1)`` of the degree-``q`` monomial slice."""
    if n_i < 1 or q < 0:
        raise ValueError(f"need n_i >= 1 and q >= 0, got n_i={n_i}, q={q}")
    return math.comb(q + n_i - 1, n_i - 1)


@lru_cache(maxsize=None)
def monomials(n: int, q: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples of total degree ``q`` in ``n`` variables, lexicographic."""
    if n == 1:
        return ((q,),)
    out = []
    for a in range(q + 1):
        for rest in monomials(n - 1, q - a):
            out.append((a,) + rest)
    return tuple(out)


class SymFockTruncation(FockTruncation):
    """Truncated tensor product of symmetric Fock spaces: binomial grades, weighted shifts."""

    model = "symmetric"

    def word_dim(self, q: tuple[int, ...]) -> int:
        return math.prod(sym_grade_dim(ni, qi) for ni, qi in zip(self.shape.n, q))

    def cumulative_dim(self, i: int, cap: int) -> int:
        """``sum_{c <= cap} factor_dim(i, c)`` in closed form: ``C(cap + n_i, n_i)``."""
        return math.comb(cap + self.shape.n[i], self.shape.n[i])

    def shift_data(self, i: int, j: int, q: tuple[int, ...]):
        """Multiplication by coordinate ``j`` of factor ``i`` on the grade-``q`` monomials."""
        dims = tuple(len(monomials(n, d)) for n, d in zip(self.shape.n, q))
        fac_tgt, fac_w, fac_ratio = _factor_shift(self.shape.n[i], q[i], j)
        ranks = np.unravel_index(np.arange(self.word_dim(q)), dims)
        new_dims = tuple(sym_grade_dim(self.shape.n[i], q[i] + 1) if l == i else d for l, d in enumerate(dims))
        new_ranks = list(ranks)
        new_ranks[i] = fac_tgt[ranks[i]]
        targets = np.ravel_multi_index(tuple(new_ranks), new_dims)
        return targets, fac_w[ranks[i]], fac_ratio[ranks[i]]

    def letter_rows(self, block, i: int, j: int, q: tuple[int, ...]):
        """``FockTruncation.letter_rows`` by the ``shift`` index arrays: ``rows`` gathers and scatters."""
        rows, w, squares = self.shift(i, j, q)
        ones = bool((w == 1.0).all())
        return _Gather(block, rows), None if ones else w, None if ones else squares


@dataclass(frozen=True)
class _Gather:
    """``block``'s rows ``rows[key]`` at ``[key]``: read by a gather, written by a scatter."""

    block: object
    rows: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return self.rows.shape + self.block.shape[1:]

    def __getitem__(self, key):
        return self.block[self.rows[key]]

    def __setitem__(self, key, value) -> None:
        self.block[self.rows[key]] = value


@lru_cache(maxsize=None)
def _factor_shift(n: int, q: int, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coordinate ``j`` on the degree-``q`` monomials of ``n`` variables: target ranks, the weights
    ``sqrt((a_j + 1)/(q + 1))`` and, exactly, their squares."""
    up_index = {m: r for r, m in enumerate(monomials(n, q + 1))}
    tgt = np.array([up_index[tuple(a + (l == j - 1) for l, a in enumerate(alpha))] for alpha in monomials(n, q)])
    ratio = np.array([(alpha[j - 1] + 1) / (q + 1) for alpha in monomials(n, q)])
    return tgt, np.sqrt(ratio), ratio


def curv_c_estimate(t: OperatorTuple, q_max: int) -> CurvEstimate:
    """Commutative curvature: grade traces normalized by binomial grade dimensions.

    The third route stored in ``defect_product_seq`` is the factorial-weighted
    form ``n_1! ... n_k! trace[(id - Phi^{q+1})...(I)] / (q^{n_1} ... q^{n_k})``.
    Existence is a theorem only under the characteristic-function hypothesis,
    so the verdict of the constrained kernel test is attached as a caveat when
    it fails.
    """
    require_commutative(t)
    require_membership(t)
    table = grade_trace_table(t, (q_max,) * t.k, "symmetric")
    fields = _summary(t.shape.n, table)
    monotone_ok = _check_monotone(table.array)
    fact = math.prod(math.factorial(ni) for ni in t.shape.n)
    factorial_form = [float("nan")] + [
        fact * tr / math.prod(float(qq) ** ni for ni in t.shape.n)
        for qq, tr in enumerate(_box_sums(table.traces).tolist()[1:], start=1)
    ]
    routes = [fields["estimate"], fields["cesaro_seq"][-1]]
    if q_max >= 1:
        routes.append(factorial_form[-1])
    caveats: tuple[str, ...] = ()
    if any(ni >= 2 for ni in t.shape.n):
        caps = (min(q_max, 3) + 1,) * t.k
        if not has_characteristic_function(berezin_kernel(t, caps, "symmetric")).positive:
            caveats = ("characteristic function test failed; existence of the limit is unproved",)
    return CurvEstimate(
        **fields,
        defect_product_seq=factorial_form,
        monotone_ok=monotone_ok,
        formula_spread=max(routes) - min(routes),
        caveats=caveats,
    )


def sym_monomial_multiplier(shape: Shape, exponents: tuple[tuple[int, ...], ...]) -> InnerMultiplier:
    """Multiplication by a single monomial ``prod_i z^{exponents[i]}``; symmetric model."""
    d = tuple(sum(e) for e in exponents)
    dims = [len(monomials(shape.n[i], d[i])) for i in range(shape.k)]
    num = math.prod(dims)
    coeff = np.zeros((num, 1, 1), dtype=complex)
    ranks = [monomials(shape.n[i], d[i]).index(tuple(exponents[i])) for i in range(shape.k)]
    coeff[int(np.ravel_multi_index(tuple(ranks), tuple(dims))), 0, 0] = 1.0
    return InnerMultiplier(Shape(shape.n), 1, 1, {d: coeff}, model="symmetric")


def coordinate_multiple_subspace(sf: SymFockTruncation, factor: int, var: int) -> GradedSubspace:
    """Monomials divisible by one coordinate of one factor; graded and shift invariant."""
    if sf.model != "symmetric":
        raise ValueError(f"coordinate_multiple is symmetric-model only, got model {sf.model!r}")
    if not 0 <= factor < sf.shape.k:
        raise ValueError(f"factor {factor} out of range for {sf.shape.k} factors")
    if not 1 <= var <= sf.shape.n[factor]:
        raise ValueError(f"variable {var} out of range for factor {factor}")

    def index_set(q):
        dims = [sf.factor_dim(l, q[l]) for l in range(sf.shape.k)]
        divisible = np.array([alpha[var - 1] >= 1 for alpha in monomials(sf.shape.n[factor], q[factor])])
        axis = [1] * sf.shape.k
        axis[factor] = dims[factor]
        return sf.coeff_rows(np.flatnonzero(np.broadcast_to(divisible.reshape(axis), dims)))

    def count(q):
        # z_var times the monomials of degree q - e_factor
        return sf.dim(bump(q, factor, -1)) if q[factor] else 0

    return GradedSubspace(
        sf,
        "coordinate_multiple",
        index_set_fn=index_set,
        limit=Fraction(sf.coeff_dim),
        count_fn=count,
        params={"factor": factor, "var": var},
    )


@dataclass
class SymMultiplicityReport:
    estimate: MultiplicityEstimate
    beurling: BeurlingVerdict
    caveats: tuple[str, ...]


def m_c_estimate(sub: GradedSubspace, q_max: int) -> SymMultiplicityReport:
    """Multiplicity on the symmetric model, gated by the Beurling verdict.

    For non-Beurling inputs the per-grade values are still reported, with an
    explicit caveat that no convergence theorem applies.
    """
    if not isinstance(sub.truncation, SymFockTruncation):
        raise ValueError("expected a subspace of a symmetric truncation")
    verdict = beurling_check(sub)
    est = multiplicity_estimate(sub, q_max)
    caveats = () if verdict.positive else (
        "not of Beurling type: existence of the multiplicity is unproved",
    )
    est.caveats = caveats
    return SymMultiplicityReport(est, verdict, caveats)

"""Commutative polyball machinery on truncated symmetric Fock tensor products.

The model space replaces words by monomials: the grade-``q`` slice of factor
``i`` has dimension ``C(q + n_i - 1, n_i - 1)`` and carries the weighted
monomial inner product ``||z^a||^2 = a!/|a|!``.  The compressed shifts act as
multiplication by the coordinate functions, with entries
``sqrt((a_j + 1)/(q + 1))`` in the orthonormal monomial basis; a literal
symmetrization of the word-model shifts reproduces them, which the tests
cross-check at small caps.

``SymFockTruncation`` is a ``FockTruncation`` that supplies only the data of
one factor at a time: its grade dimensions (binomial instead of ``n^q``) and
its letters (``factor_letter``: monomial targets and shift weights).  Letter
rows, shift maps, block-graded operators, kernels, subspaces and the
estimator pipeline are shared with the word model.  The constrained kernel of
a commutative tuple is ``berezin_kernel(t, caps, "symmetric")``: the
word-model vacuum recursion on this truncation.  ``factor_letter`` also
returns the squared weights as the exact ratios ``(a_j + 1)/(q + 1)``, so the
diagonal routes never square a rounded root.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .basis import Shape
from .berezin import InnerMultiplier, berezin_kernel, identity_minus_kk_star
from .cp import OperatorTuple, defect_data, require_commutative, require_membership
from .curvature import CurvEstimate, _estimate, grade_trace_table
from .fock import FockTruncation, bump, defect_positive
from .subspaces import GradedSubspace, MultiplicityEstimate, beurling_check, multiplicity_estimate


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

    def factor_dim(self, i: int, c: int) -> int:
        return sym_grade_dim(self.shape.n[i], c)

    def factor_letter(self, i: int, j: int, c: int):
        """Coordinate ``j`` of factor ``i`` on the degree-``c`` monomials (``_factor_shift``): one run for ``j = 1``,
        and for every ``j`` when ``n_i <= 2``."""
        return _factor_shift(self.shape.n[i], c, j)

    shift_data = FockTruncation.shift_data  # its own name, so that each model's calls can be counted apart


@lru_cache(maxsize=None)
def _factor_shift(n: int, q: int, j: int):
    """Coordinate ``j`` on the degree-``q`` monomials of ``n`` variables as ``factor_letter``: target ranks (a slice
    when consecutive; ``z_j`` keeps the lexicographic order, so they increase), the weights ``sqrt((a_j + 1)/(q +
    1))`` and, exactly, their squares (None when all are 1)."""
    up_index = {m: r for r, m in enumerate(monomials(n, q + 1))}
    tgt = np.array([up_index[tuple(a + (l == j - 1) for l, a in enumerate(alpha))] for alpha in monomials(n, q)])
    ratio = np.array([(alpha[j - 1] + 1) / (q + 1) for alpha in monomials(n, q)])
    targets = slice(int(tgt[0]), int(tgt[-1]) + 1) if tgt[-1] - tgt[0] == len(tgt) - 1 else tgt
    return (targets, None, None) if (ratio == 1.0).all() else (targets, np.sqrt(ratio), ratio)


def curv_c_estimate(t: OperatorTuple, q_max: int) -> CurvEstimate:
    """Commutative curvature: grade traces normalized by binomial grade dimensions.

    The third route stored in ``defect_product_seq`` is the factorial-weighted
    form ``n_1! ... n_k! trace[(id - Phi^{q+1})...(I)] / (q^{n_1} ... q^{n_k})``.
    Existence is a theorem only under the characteristic-function hypothesis,
    so the sign of the constrained kernel test is attached as a caveat when it
    fails; ``fock.defect_positive`` reads that sign, from the unit box (interior
    grades ``{0, 1}^k``) alone when that box already fails, and then builds no
    deeper kernel.
    """
    require_commutative(t)
    require_membership(t)
    fact = math.prod(math.factorial(ni) for ni in t.shape.n)
    est = _estimate(t.shape.n, grade_trace_table(t, (q_max,) * t.k, "symmetric"),
                    lambda qq, tr: fact * tr / math.prod(float(qq) ** ni for ni in t.shape.n) if qq else math.nan)
    if any(ni >= 2 for ni in t.shape.n):
        # at least the unit box: at caps 1 the interior is empty and would read as positive
        ft = SymFockTruncation(t.shape.with_caps((max(min(q_max, 3), 1) + 1,) * t.k), defect_data(t).rank)
        # kernel rows do not depend on the caps: each box builds the kernel on its own grades
        if not defect_positive("characteristic-function test", ft,
                               lambda box: identity_minus_kk_star(berezin_kernel(t, box.shape.caps, "symmetric"), box)):
            est.caveats = ("characteristic function test failed; existence of the limit is unproved",)
    return est


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


def m_c_estimate(sub: GradedSubspace, q_max: int) -> MultiplicityEstimate:
    """Multiplicity on the symmetric model, with its Beurling verdict in ``beurling``.

    For non-Beurling inputs the per-grade values are still reported, with an
    explicit caveat that no convergence theorem applies.
    """
    if not isinstance(sub.truncation, SymFockTruncation):
        raise ValueError("expected a subspace of a symmetric truncation")
    verdict = beurling_check(sub)
    est = multiplicity_estimate(sub, q_max)
    est.beurling = verdict
    if not verdict.positive:
        est.caveats = ("not of Beurling type: existence of the multiplicity is unproved",)
    return est

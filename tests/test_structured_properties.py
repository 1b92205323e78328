"""Properties of random structured subspaces: exact counts, serialization, the tensor law and the Beurling verdict."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import _one_factor_subspace, as_grade_bases, structured_subspaces
from oracle import defect_shift_composed
from polyball.basis import Shape
from polyball.berezin import berezin_kernel, curvature_operator_trace, index_formula_check, monomial_multiplier
from polyball.cp import (
    OperatorTuple,
    check_polyball,
    cp_apply,
    cp_apply_adjoint,
    defect_data,
    defect_map,
    herm,
    psd_verdict,
    tolerance,
)
from polyball.curvature import grade_trace_table
from polyball.subspaces import (
    beurling_check,
    compression_tuple,
    construct_mt,
    construct_nadic,
    multiplicity_estimate,
    subspace_from_json,
    subspace_to_json,
    tensor_subspace,
)
from polyball.symmetric import SymFockTruncation, coordinate_multiple_subspace, sym_monomial_multiplier


@settings(max_examples=60, deadline=None)
@given(sub=structured_subspaces())
def test_complement_identity_is_exact(sub):
    # m(M) from the closed-form count, m(M perp) from the rows outside the index set
    ft = sub.truncation
    est = multiplicity_estimate(sub, min(ft.shape.caps))
    for q in ft.grades:
        outside = np.ones(ft.dim(q), dtype=bool)
        outside[sub.index_set_fn(q)] = False
        m = Fraction(sub.grade_trace_exact(q), ft.word_dim(q))
        assert m + Fraction(int(outside.sum()), ft.word_dim(q)) == ft.coeff_dim
        if q in est.exact_values:
            assert est.exact_values[q] == m
            assert m + est.curvature.exact_values[q] == ft.coeff_dim


@settings(max_examples=40, deadline=None)
@given(sub=structured_subspaces(max_cap=4).filter(lambda s: s.truncation.total_dim <= 400), bases=st.booleans())
def test_curv_grade_table_of_the_compression_is_the_exact_complement_count(sub, bases):
    # trace[Phi^q(defect)] of the compression to M perp is dim(q) - |M in grade q|: exact in the word
    # model, whose traces are sums of 0/1 entries; the symmetric shifts carry rounded square-root weights,
    # and the complement of a subspace reloaded as grade bases comes from an SVD
    ft = sub.truncation
    sub = as_grade_bases(sub) if bases else sub
    traces = grade_trace_table(compression_tuple(sub), ft.shape.caps, ft.model).traces
    for q in ft.grades:
        count = ft.dim(q) - sub.grade_trace_exact(q)
        if ft.model == "symmetric" or bases:
            assert abs(traces[q] - count) <= 1e-12 * max(1, count), q
        else:
            assert traces[q] == count, q


@settings(max_examples=60, deadline=None)
@given(sub=structured_subspaces())
def test_json_round_trip_is_byte_identical(sub):
    text = subspace_to_json(sub)
    back = subspace_from_json(text)
    assert subspace_to_json(back) == text
    assert all(back.grade_trace_exact(q) == sub.grade_trace_exact(q) for q in sub.truncation.grades)


@settings(max_examples=50, deadline=None)
@given(sub=structured_subspaces(max_cap=3, symmetric=False).filter(lambda s: s.truncation.total_dim <= 1200))
def test_beurling_verdict_is_the_full_box_oracle(sub):
    d = defect_shift_composed(sub.projection())
    interior = d.interior_grades()
    dense = d.to_dense(interior)
    oracle = psd_verdict(np.linalg.eigvalsh(herm(dense)))
    v = beurling_check(sub)
    assert (v.positive, v.min_eigenvalue, v.residual_grades) == (oracle.positive, d.min_eig_interior(), len(interior))
    assert v.min_eigenvalue == oracle.min_eigenvalue


def _index_ratio(sub, q):
    """``len(index set) / word_dim(q)``, exact: the per-grade ratio counted from the rows, not from ``count_fn``."""
    return Fraction(len(sub.index_set_fn(q)), sub.truncation.word_dim(q))


@settings(max_examples=40, deadline=None)
@given(first=_one_factor_subspace(4), second=_one_factor_subspace(4))
def test_tensor_ratios_and_limits_are_the_products_of_the_parts(first, second):
    sub = tensor_subspace([first, second])
    for q in sub.truncation.grades:
        assert _index_ratio(sub, q) == _index_ratio(first, q[:1]) * _index_ratio(second, q[1:])
    limit = first.limit * second.limit
    q_max = min(sub.truncation.shape.caps)
    for s in (sub, subspace_from_json(subspace_to_json(sub))):
        assert s.limit == limit
        assert multiplicity_estimate(s, q_max).exact_limit == limit


@settings(max_examples=60, deadline=None)
@given(sub=structured_subspaces(max_cap=4).filter(lambda s: s.truncation.total_dim <= 200))
def test_compression_defects_are_read_from_their_diagonal(sub):
    # the compression to a complement spanned by basis vectors has diagonal defect maps, in both models
    t = compression_tuple(sub)
    with pytest.MonkeyPatch.context() as m:
        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            m.setattr(np.linalg, name, lambda *a, name=name, **k: pytest.fail(f"np.linalg.{name} was called"))
        verdict, dd = check_polyball(t), defect_data(t)
    eye = np.eye(t.dimH, dtype=complex)
    for p in itertools.product((0, 1), repeat=t.k):
        if any(p):
            oracle = psd_verdict(np.linalg.eigvalsh(herm(defect_map(t, p, eye))))
            assert verdict.eigenvalues[p] == oracle.min_eigenvalue, p
    vals, vecs = np.linalg.eigh(dd.defect)
    assert dd.sqrt.tobytes() == ((vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T).tobytes()


def _dense_copy(t):
    """``t`` with no entry read as a partial permutation, so every product of its entries is dense."""
    u = OperatorTuple(t.shape, t.dimH, t.factors)
    u.__dict__["partial_permutations"] = tuple((None,) * len(mats) for mats in t.factors)
    return u


@settings(max_examples=40, deadline=None)
@given(sub=structured_subspaces(max_cap=4).filter(lambda s: s.truncation.total_dim <= 400))
def test_gathers_of_compression_entries_have_the_bits_of_the_dense_products(sub):
    # each entry of a coordinate compression is a real weighted partial permutation: sum T T^* is a scatter and
    # the kernel letters are column gathers, each with the bits of the zgemm products of the same entries
    t = compression_tuple(sub)
    assume(t.dimH >= 1)
    assert all(g is not None for row in t.partial_permutations for g in row)
    dense = _dense_copy(t)
    for i, mats in enumerate(t.factors):
        eye = np.zeros((t.dimH, t.dimH), dtype=complex)
        for a in mats:
            eye += a @ a.conj().T
        assert cp_apply(t, i, None).tobytes() == cp_apply(dense, i, None).tobytes() == eye.tobytes()
        assert cp_apply_adjoint(t, i, None).tobytes() == cp_apply_adjoint(dense, i, None).tobytes()
    ft = sub.truncation
    blocks = berezin_kernel(t, ft.shape.caps, ft.model).blocks
    oracle = berezin_kernel(dense, ft.shape.caps, ft.model).blocks
    assert all(blocks[q].tobytes() == oracle[q].tobytes() for q in ft.grades)


def _unitary_conjugate(t, seed):
    """``U T U^*`` for a random unitary ``U``: the same answers, through the dense and LAPACK routes."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((t.dimH, t.dimH)) + 1j * rng.standard_normal((t.dimH, t.dimH)))
    return OperatorTuple(t.shape, t.dimH, tuple(tuple(u @ a @ u.conj().T for a in mats) for mats in t.factors))


@settings(max_examples=30, deadline=None)
@given(sub=structured_subspaces(max_cap=4).filter(lambda s: s.truncation.total_dim <= 200),
       seed=st.integers(0, 2**32 - 1))
def test_a_unitary_conjugate_of_a_compression_has_its_grade_table_and_index_trace(sub, seed):
    t = compression_tuple(sub)
    assume(t.dimH >= 2)
    v = _unitary_conjugate(t, seed)
    # only a zero entry stays a partial permutation
    assert all((g is None) == bool(np.any(a)) for mats, gs in zip(v.factors, v.partial_permutations)
               for a, g in zip(mats, gs))
    ft = sub.truncation
    caps = ft.shape.caps
    exact = grade_trace_table(t, caps, ft.model).traces
    assert np.abs(grade_trace_table(v, caps, ft.model).traces - exact).max() <= 1.5e-13
    interior = tuple(c - 1 for c in caps)
    lhs = curvature_operator_trace(berezin_kernel(t, caps, ft.model), interior).value
    assert abs(curvature_operator_trace(berezin_kernel(v, caps, ft.model), interior).value - lhs) <= 1e-12


@pytest.mark.parametrize("sub, theta, lhs", [
    (construct_mt(construct_nadic(2, 0.5), 5), monomial_multiplier(Shape((2,)), 0, (1,)), 0.5),
    (coordinate_multiple_subspace(SymFockTruncation(Shape((1, 1), caps=(5, 5))), 0, 1),
     sym_monomial_multiplier(Shape((1, 1)), ((1,), (0,))), 0.0),
])
def test_a_unitary_conjugate_of_a_compression_keeps_its_index_formula(sub, theta, lhs):
    # the defect of the conjugate lies off the diagonal, so LAPACK and the dense products form its kernel
    t = _unitary_conjugate(compression_tuple(sub), 7)
    caps = sub.truncation.shape.caps
    chk = index_formula_check(berezin_kernel(t, caps, sub.truncation.model), theta)
    assert abs(chk.lhs - lhs) <= 1e-12
    assert tolerance("completion", chk.completion_residual)[0]

"""Properties of random structured subspaces: exact counts, serialization, the tensor law and the Beurling verdict."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import _one_factor_subspace, structured_subspaces
from oracle import defect_shift_composed
from polyball.cp import check_polyball, defect_data, defect_map, herm, psd_verdict
from polyball.curvature import grade_trace_table
from polyball.subspaces import (
    beurling_check,
    compression_tuple,
    multiplicity_estimate,
    subspace_from_json,
    subspace_to_json,
    tensor_subspace,
)


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
@given(sub=structured_subspaces(max_cap=4).filter(lambda s: s.truncation.total_dim <= 400))
def test_curv_grade_table_of_the_compression_is_the_exact_complement_count(sub):
    # trace[Phi^q(defect)] of the compression to M perp is dim(q) - |M in grade q|: exact in the word
    # model, whose traces are sums of 0/1 entries; the symmetric shifts carry rounded square-root weights
    ft = sub.truncation
    traces = grade_trace_table(compression_tuple(sub), ft.shape.caps, ft.model).traces
    for q in ft.grades:
        count = ft.dim(q) - sub.grade_trace_exact(q)
        if ft.model == "symmetric":
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

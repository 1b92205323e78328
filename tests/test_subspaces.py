import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from oracle import defect_shift_composed, interior_verdict, op_identity, partial_sum, word_unrank
from polyball.basis import Shape, iter_grades
from polyball.cp import check_polyball, defect_map
from polyball.curvature import subspace_curvature
from polyball.fock import FockTruncation, defect_shift
from polyball.subspaces import (
    GradedSubspace,
    beurling_check,
    bidisc_difference_subspace,
    compression_tuple,
    construct_mt,
    construct_nadic,
    cur0_subspace,
    finite_codim_subspace,
    full_subspace,
    inner_sequence_check,
    multiplicity_estimate,
    span_subspace,
    subspace_from_json,
    subspace_to_json,
    tensor_subspace,
    uncountable_family,
    zero_subspace,
)


def bidisc_truncation(caps=(5, 5)):
    return FockTruncation(Shape((1, 1), caps=caps), coeff_dim=1)


def difference_subspace(caps=(5, 5)):
    return bidisc_difference_subspace(caps)


# -- n-adic expansions --------------------------------------------------------


def test_nadic_half():
    e = construct_nadic(2, 0.5)
    assert e.exponents == (1,)
    assert e.digits == (1,)
    assert e.tail == 0


def test_nadic_quarter():
    e = construct_nadic(2, 0.25)
    assert e.exponents == (1, 2)
    assert e.digits == (1, 1)
    assert e.tail == 0


def test_nadic_base3_reconstruction():
    e = construct_nadic(3, 0.3, n_terms=12)
    partial = float(e.value)
    assert abs((1 - 0.3) - partial) < 3.0 ** (-e.exponents[-1])
    assert all(1 <= d <= 2 for d in e.digits)
    assert list(e.exponents) == sorted(set(e.exponents))


def test_nadic_t_zero_all_max_digits():
    e = construct_nadic(2, 0.0, n_terms=10)
    assert e.digits == (1,) * 10
    assert e.exponents == tuple(range(1, 11))


def test_nadic_rejects_base_one():
    with pytest.raises(ValueError):
        construct_nadic(1, 0.5)


# -- the digit-expansion subspaces --------------------------------------------


def test_mt_half_counts():
    sub = construct_mt(construct_nadic(2, 0.5), cap=8)
    for q in range(1, 9):
        assert sub.grade_trace_exact((q,)) == 2 ** (q - 1)
    assert sub.grade_trace_exact((0,)) == 0
    assert sub.limit == Fraction(1, 2)


def test_mt_structured_matches_materialized():
    for t in (0.5, 0.25, 0.3):
        sub = construct_mt(construct_nadic(2, t, n_terms=4), cap=6)
        for q in iter_grades((6,)):
            b = sub.grade_basis(q)
            assert b.shape[1] == sub.grade_trace_exact(q)
            gram = b.conj().T @ b
            assert np.allclose(gram, np.eye(b.shape[1]), atol=1e-14)


def test_mt_invariance_certificate():
    sub = construct_mt(construct_nadic(2, 0.3, n_terms=4), cap=6)
    assert sub.certify_invariance() < 1e-12


def test_mt_complement_ratio_closed_form():
    exp = construct_nadic(2, 0.25)
    sub = construct_mt(exp, cap=8)
    est = subspace_curvature(sub, 8)
    for q in range(9):
        expected = 1 - float(partial_sum(exp, q))
        assert est.grade_values[(q,)] == pytest.approx(expected)
    assert est.exact_limit == Fraction(1, 4)


def test_suffix_index_sets_match_word_by_word_definition():
    exp = construct_nadic(3, 0.3, n_terms=4)
    suffixes, prev = [], 0
    for k, d in zip(exp.exponents, exp.digits):
        suffixes += [(j,) * (k - prev) + (3,) * prev for j in range(1, d + 1)]
        prev = k
    mt, cur0 = construct_mt(exp, cap=6), cur0_subspace(3, cap=6)
    for q in range(7):
        words = [word_unrank(3, q, r) for r in range(3**q)]
        expected = [r for r, w in enumerate(words) if any(len(s) <= q and w[q - len(s):] == s for s in suffixes)]
        assert mt.index_set_fn((q,)).tolist() == expected
        assert cur0.index_set_fn((q,)).tolist() == [r for r, w in enumerate(words) if w != (1,) * q]


def test_cur0_per_grade_values():
    sub = cur0_subspace(2, cap=8)
    est = subspace_curvature(sub, 8)
    for q in range(9):
        assert est.exact_values[(q,)] == Fraction(1, 2**q)
    assert est.estimate == pytest.approx(2.0**-8)
    assert est.exact_limit == 0


def test_cur0_complement_is_one_per_grade():
    sub = cur0_subspace(3, cap=5)
    for q in range(6):
        assert sub.truncation.word_dim((q,)) - sub.grade_trace_exact((q,)) == 1


def test_cur0_multiplicity_tends_to_one():
    est = multiplicity_estimate(cur0_subspace(2, cap=10), 10)
    assert est.exact_values[(10,)] == Fraction(2**10 - 1, 2**10)
    assert est.exact_limit == 1


def test_finite_codim_curv_zero_mult_one():
    sub = finite_codim_subspace((2, 2), (4, 4), min_total_degree=2)
    est = multiplicity_estimate(sub, 4)
    assert est.exact_values[(4, 4)] == 1
    assert est.curvature.exact_values[(4, 4)] == 0
    assert est.exact_limit == 1


# -- multiplicity --------------------------------------------------------------


def test_multiplicity_full_space():
    ft = FockTruncation(Shape((2, 2), caps=(3, 3)), coeff_dim=3)
    est = multiplicity_estimate(full_subspace(ft), 3)
    assert all(v == 3.0 for v in est.grade_values.values())
    assert est.exact_limit == 3


@pytest.mark.parametrize("sub", [cur0_subspace(2, cap=5), bidisc_difference_subspace((4, 4))])
def test_multiplicity_counts_each_grade_once(sub, monkeypatch):
    counted = []
    exact = GradedSubspace.grade_trace_exact
    monkeypatch.setattr(GradedSubspace, "grade_trace_exact", lambda self, q: counted.append(q) or exact(self, q))
    est = multiplicity_estimate(sub, 4)
    if sub.mode == "structured":
        assert sorted(counted) == sorted(est.grade_values)
    dim_e = sub.truncation.coeff_dim
    assert est.curvature.grade_values == {q: dim_e - y for q, y in est.grade_values.items()}


def test_multiplicity_polydisc_monomial():
    # z1 H^2(D^2): occupied iff q1 >= 1
    ft = bidisc_truncation((6, 6))
    sub = GradedSubspace(
        ft, "basis",
        grade_bases={q: np.eye(1, dtype=complex) for q in ft.grades if q[0] >= 1},
    )
    assert sub.certify_invariance() < 1e-14
    est = multiplicity_estimate(sub, 6)
    for q in iter_grades((6, 6)):
        assert est.grade_values[q] == (1.0 if q[0] >= 1 else 0.0)
    assert est.estimate == 1.0


def test_complement_identity_exact():
    exp = construct_nadic(2, 0.3, n_terms=6)
    m1 = construct_mt(exp, cap=6)
    m2 = construct_mt(construct_nadic(2, 0.5), cap=6)
    sub = tensor_subspace([m1, m2])
    ft = sub.truncation
    for q in iter_grades((6, 6)):
        t_m = sub.grade_trace_exact(q)
        t_perp = ft.dim(q) - t_m
        y_m = Fraction(t_m, ft.word_dim(q))
        y_perp = Fraction(t_perp, ft.word_dim(q))
        assert y_m + y_perp == ft.coeff_dim


def test_tensor_counts_multiply():
    m1 = construct_mt(construct_nadic(2, 0.5), cap=5)
    m2 = cur0_subspace(2, cap=5)
    sub = tensor_subspace([m1, m2])
    for q in iter_grades((5, 5)):
        assert sub.grade_trace_exact(q) == m1.grade_trace_exact((q[0],)) * m2.grade_trace_exact((q[1],))
    assert sub.limit == m1.limit * m2.limit


def test_tensor_for_perp_law_exact_per_grade():
    # curvature of the complement compression: 1 - (1 - c1)(1 - c2) per grade
    t1, t2 = 0.5, 0.25
    m1 = construct_mt(construct_nadic(2, t1), cap=6)
    m2 = construct_mt(construct_nadic(2, t2), cap=6)
    sub = tensor_subspace([m1, m2])
    c1 = subspace_curvature(m1, 6).exact_values
    c2 = subspace_curvature(m2, 6).exact_values
    c = subspace_curvature(sub, 6).exact_values
    for q in iter_grades((6, 6)):
        assert c[q] == 1 - (1 - c1[(q[0],)]) * (1 - c2[(q[1],)])


def test_uncountable_family_curvature_is_t():
    t, omega = 0.5, 0.75
    sub = uncountable_family(t, omega, caps=(8, 8), n_terms=24)
    est = subspace_curvature(sub, 8)
    assert est.exact_limit is not None
    # omega dyadic, so the only truncation error is the factor-two tail
    assert abs(float(est.exact_limit) - t) < 2.0**-24
    assert est.monotone_ok


def test_uncountable_family_distinct_omegas_differ():
    t = 0.5
    s1 = uncountable_family(t, 0.75, caps=(6, 6))
    s2 = uncountable_family(t, 0.8125, caps=(6, 6))
    profiles1 = [s1.grade_trace_exact(q) for q in iter_grades((6, 6))]
    profiles2 = [s2.grade_trace_exact(q) for q in iter_grades((6, 6))]
    assert profiles1 != profiles2
    lim1 = subspace_curvature(s1, 6).exact_limit
    lim2 = subspace_curvature(s2, 6).exact_limit
    assert abs(float(lim1) - t) < 1e-6 and abs(float(lim2) - t) < 1e-6


def test_uncountable_family_rejects_bad_params():
    with pytest.raises(ValueError):
        uncountable_family(0.5, 0.4, caps=(4, 4))
    with pytest.raises(ValueError):
        uncountable_family(1.2, 0.9, caps=(4, 4))


# -- Beurling test -------------------------------------------------------------


def test_beurling_true_for_suffix_subspace():
    sub = construct_mt(construct_nadic(2, 0.5), cap=5)
    v = beurling_check(sub)
    assert v.positive
    assert v.min_eigenvalue > -1e-12


def test_beurling_true_for_zero_subspace():
    ft = FockTruncation(Shape((2, 2), caps=(3, 3)))
    v = beurling_check(zero_subspace(ft))
    assert v.positive


def test_beurling_false_for_difference_subspace():
    sub = difference_subspace((5, 5))
    v = beurling_check(sub)
    assert not v.positive
    assert v.min_eigenvalue < -1e-3


@pytest.mark.parametrize("make", [
    lambda: difference_subspace((5, 5)),
    lambda: uncountable_family(0.3, 0.75, (4, 4)),
    lambda: tensor_subspace([construct_mt(construct_nadic(2, 0.5), 3), cur0_subspace(2, 3)]),
])
def test_beurling_is_bit_equal_to_the_composed_route(make):
    sub = make()
    d = defect_shift_composed(sub.projection())
    v = interior_verdict(d, d.interior_grades())
    assert beurling_check(sub).min_eigenvalue == v.min_eigenvalue


def test_beurling_holds_one_operator():
    # the projection, its dense interior and one block temporary; the composed
    # route held about five projections' worth at once
    sub = uncountable_family(0.3, 0.75, (5, 5))
    proj_bytes = sum(b.nbytes for b in sub.projection().blocks.values())
    tracemalloc.start()
    try:
        assert beurling_check(sub).positive
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * proj_bytes


def test_difference_subspace_certificate():
    sub = difference_subspace((5, 5))
    assert sub.certify_invariance() < 1e-10


def test_difference_subspace_multiplicity_is_one():
    # proper subspace of the bidisc: integer multiplicity
    sub = difference_subspace((7, 7))
    est = multiplicity_estimate(sub, 6)
    assert est.grade_values[(6, 6)] == pytest.approx(1.0, abs=1e-12)
    assert est.grade_values[(0, 0)] == pytest.approx(0.0, abs=1e-12)


# -- inner sequences ------------------------------------------------------------


def test_inner_sequence_monomial():
    from polyball.berezin import monomial_multiplier

    sub = construct_mt(construct_nadic(2, 0.5), cap=5)
    psi = monomial_multiplier(Shape((2,)), 0, (1,))
    rep = inner_sequence_check(sub, [psi], q_max=4)
    assert rep.ok
    for q in range(1, 5):
        assert rep.grade_values[(q,)] == pytest.approx(0.5)
    assert rep.corner_value == pytest.approx(0.5)


def test_inner_sequence_mismatch_rejected():
    from polyball.berezin import monomial_multiplier

    sub = cur0_subspace(2, cap=5)
    psi = monomial_multiplier(Shape((2,)), 0, (1,))
    with pytest.raises(ValueError, match="residual"):
        inner_sequence_check(sub, [psi], q_max=4)


def test_inner_sequence_empty_zero_subspace():
    ft = FockTruncation(Shape((2,), caps=(4,)))
    rep = inner_sequence_check(zero_subspace(ft), [], q_max=3)
    assert rep.ok
    assert rep.corner_value == 0.0


@pytest.mark.parametrize("n", [2, 1])
def test_inner_sequence_refuses_a_multiplier_of_the_other_model_by_name(n):
    # at n = 1 both models have one basis vector per grade: only the model names the mix
    from polyball.berezin import monomial_multiplier
    from polyball.symmetric import sym_monomial_multiplier

    sub = construct_mt(construct_nadic(2, 0.5), 4) if n == 2 else finite_codim_subspace((1,), (4,), 1)
    assert inner_sequence_check(sub, [monomial_multiplier(Shape((n,)), 0, (1,))], q_max=3).ok
    sym = sym_monomial_multiplier(Shape((n,)), ((1,) + (0,) * (n - 1),))
    with pytest.raises(ValueError, match="'symmetric'-model multiplier on a 'full'-model subspace"):
        inner_sequence_check(sub, [sym], q_max=3)


def letter_line_subspace(mode, c, cap=4):
    """The words ending in letter 1, tensored with the unit vector ``c`` of ``E = C^2``, in ``mode``.

    Its grade blocks are not diagonal, and it is the range of the letter-1
    monomial with coefficient ``c``.
    """
    ft = FockTruncation(Shape((2,), caps=(cap,)), coeff_dim=2)
    bases = {}
    for q in ft.grades:
        if q[0]:
            ends_in_1 = np.zeros((2 ** q[0], 2 ** (q[0] - 1)))
            ends_in_1[2 * np.arange(2 ** (q[0] - 1)), np.arange(2 ** (q[0] - 1))] = 1.0
            bases[q] = np.kron(ends_in_1, np.asarray(c, dtype=complex)[:, None])
    if mode == "basis":
        return GradedSubspace(ft, "basis", grade_bases=bases)
    cols = [np.zeros((ft.total_dim, b.shape[1]), dtype=complex) for b in bases.values()]
    for col, (q, b) in zip(cols, bases.items()):
        col[ft.offset(q) : ft.offset(q) + ft.dim(q)] = b
    return span_subspace(ft, np.hstack(cols))


def letter_line_multiplier(c):
    from polyball.berezin import InnerMultiplier

    coeff = np.zeros((2, 2, 1), dtype=complex)
    coeff[0, :, 0] = c
    return InnerMultiplier(Shape((2,)), 1, 2, {(1,): coeff}, isometric=True)


@pytest.mark.parametrize("mode", ["basis", "span"])
def test_inner_sequence_in_basis_and_span_mode(mode):
    c = np.array([1.0, 1.0j]) / np.sqrt(2)
    sub = letter_line_subspace(mode, c)
    assert sub.mode == mode and sub.certify_invariance() < 1e-12
    rep = inner_sequence_check(sub, [letter_line_multiplier(c)], q_max=3)
    assert rep.ok and rep.decomposition_residual < 1e-12
    # half the words of a grade, one coefficient direction of two
    assert rep.grade_values[(3,)] == pytest.approx(0.5)
    with pytest.raises(ValueError, match="inner decomposition residual"):
        inner_sequence_check(sub, [letter_line_multiplier([1.0, 0.0])], q_max=3)


def test_inner_sequence_never_forms_the_projection(monkeypatch):
    from polyball.berezin import monomial_multiplier

    def projection(self, box=None):
        raise AssertionError("the whole projection was formed")

    monkeypatch.setattr(GradedSubspace, "projection", projection)
    cases = [
        (construct_mt(construct_nadic(2, 0.5), cap=5), monomial_multiplier(Shape((2,)), 0, (1,))),
        (letter_line_subspace("span", [1.0, 0.0]), letter_line_multiplier([1.0, 0.0])),
    ]
    for sub, psi in cases:
        assert inner_sequence_check(sub, [psi], q_max=4).ok


# -- compressions ----------------------------------------------------------------


def test_compression_of_full_subspace_is_trivial():
    ft = FockTruncation(Shape((2,), caps=(3,)))
    t = compression_tuple(full_subspace(ft))
    assert t.dimH == 0


def test_compression_of_zero_subspace_is_truncated_shift():
    ft = FockTruncation(Shape((2,), caps=(3,)))
    t = compression_tuple(zero_subspace(ft))
    assert t.dimH == ft.total_dim
    assert check_polyball(t).member


def test_compression_eq_de_both_sides():
    # defect maps of the compression equal compressed shift defects, per exponent p
    sub = finite_codim_subspace((2,), (4,), min_total_degree=2)
    ft = sub.truncation
    t = compression_tuple(sub)
    assert check_polyball(t).member
    comp_cols = []
    for q in ft.grades:
        cb = sub.complement_grade_basis(q)
        full = np.zeros((ft.total_dim, cb.shape[1]), dtype=complex)
        full[ft.offset(q) : ft.offset(q) + ft.dim(q), :] = cb
        comp_cols.append(full)
    c = np.concatenate(comp_cols, axis=1)
    for p in [(1,), (0,)]:
        lhs = defect_map(t, p, np.eye(t.dimH, dtype=complex))
        shift_defect = defect_shift(op_identity(ft)) if p == (1,) else op_identity(ft)
        rhs = c.conj().T @ shift_defect.to_dense(list(ft.grades)) @ c
        assert np.linalg.norm(lhs - rhs, 2) < 1e-12


# -- serialization ----------------------------------------------------------------


def test_structured_json_roundtrip():
    sub = construct_mt(construct_nadic(2, 0.3, n_terms=5), cap=6)
    text = subspace_to_json(sub)
    back = subspace_from_json(text)
    for q in iter_grades((6,)):
        assert back.grade_trace_exact(q) == sub.grade_trace_exact(q)
    assert back.limit == sub.limit


def test_tensor_json_roundtrip():
    sub = tensor_subspace(
        [construct_mt(construct_nadic(2, 0.5), cap=4), cur0_subspace(2, cap=4)]
    )
    back = subspace_from_json(subspace_to_json(sub))
    for q in iter_grades((4, 4)):
        assert back.grade_trace_exact(q) == sub.grade_trace_exact(q)


def test_uncountable_json_roundtrip():
    text = subspace_to_json(uncountable_family(0.3, 0.75, (3, 3)))
    back = subspace_from_json(text)
    assert back.params["family"] == {"t": 0.3, "omega": 0.75}
    assert subspace_to_json(back) == text


def test_span_json_roundtrip():
    sub = difference_subspace((4, 4))
    back = subspace_from_json(subspace_to_json(sub))
    p1 = sub.projection().to_dense(list(sub.truncation.grades))
    p2 = back.projection().to_dense(list(back.truncation.grades))
    assert np.linalg.norm(p1 - p2, 2) < 1e-10


def test_basis_json_roundtrip():
    ft = bidisc_truncation((3, 3))
    sub = GradedSubspace(
        ft, "basis",
        grade_bases={q: np.eye(1, dtype=complex) for q in ft.grades if q[0] >= 1},
    )
    back = subspace_from_json(subspace_to_json(sub))
    assert back.grade_trace_exact((2, 1)) == 1
    assert back.grade_trace_exact((0, 2)) == 0


def test_non_invariant_json_rejected():
    ft = FockTruncation(Shape((2,), caps=(3,)))
    bad = GradedSubspace(
        ft, "basis",
        grade_bases={(1,): np.array([[1.0], [0.0]], dtype=complex)},
    )
    text = subspace_to_json(bad)
    with pytest.raises(Exception, match="invariant"):
        subspace_from_json(text)


# -- further structural behaviors --------------------------------------------------


def test_tensor_with_full_factor_half_curvature():
    m1 = construct_mt(construct_nadic(2, 0.5), cap=6)
    ft2 = FockTruncation(Shape((3,), caps=(6,)))
    sub = tensor_subspace([m1, full_subspace(ft2)])
    est = subspace_curvature(sub, 6)
    for q in iter_grades((6, 6)):
        expected = Fraction(1, 2) if q[0] >= 1 else Fraction(1)
        assert est.exact_values[q] == expected
    assert est.exact_limit == Fraction(1, 2)


def test_inner_sequence_spanning_finite_codim():
    from polyball.berezin import monomial_multiplier

    # all words of length >= 1: the ranges of the two letter extensions
    sub = finite_codim_subspace((2,), (5,), min_total_degree=1)
    psis = [monomial_multiplier(Shape((2,)), 0, (j,)) for j in (1, 2)]
    rep = inner_sequence_check(sub, psis, q_max=4)
    assert rep.ok
    for q in range(1, 5):
        assert rep.grade_values[(q,)] == pytest.approx(1.0)
    assert rep.corner_value == pytest.approx(1.0)
    assert subspace_curvature(sub, 5).exact_limit == 0


def test_uncountable_family_boundary_degenerates():
    t = 0.5
    omega = (1 - t) + 0.01
    sub = uncountable_family(t, omega, caps=(6, 6), n_terms=8)
    fam = sub.params["family"]
    assert fam["omega"] == omega
    target2 = 1 - (1 - t) / omega
    assert 0 < target2 < 0.02


def test_beurling_positive_implies_compression_in_polyball():
    for sub in [
        construct_mt(construct_nadic(2, 0.5), 4),
        tensor_subspace([construct_mt(construct_nadic(2, 0.5), 3), cur0_subspace(2, 3)]),
    ]:
        assert beurling_check(sub).positive
        t = compression_tuple(sub)
        assert check_polyball(t).member


def test_cesaro_distance_to_limit_nonincreasing_geometric():
    sub = cur0_subspace(2, 10)
    est = subspace_curvature(sub, 10)
    dists = [abs(c - float(est.exact_limit)) for c in est.cesaro_seq]
    assert all(a >= b - 1e-15 for a, b in zip(dists, dists[1:]))

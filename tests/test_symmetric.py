import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import commuting_tuple, random_polyball_tuple, random_row_tuple
from oracle import (
    creation_op,
    embedding_matrix,
    folded_berezin,
    monomial_weight,
    op_block,
    op_identity,
    universal_factorial_form_value,
)
from polyball.basis import Shape, grade_dim
from polyball.berezin import (
    InnerMultiplier,
    _validate_blocks,
    berezin_kernel,
    connection_identity,
    has_characteristic_function,
    index_formula_check,
    validate_multiplier,
    verify_intertwining,
)
from polyball.cp import MembershipError, OperatorTuple, ampliation, require_commutative
from polyball.curvature import curvature_estimate, subspace_curvature
from polyball.fock import FockTruncation, GradedOperator
from polyball.subspaces import (
    compression_tuple,
    full_subspace,
    subspace_from_json,
    subspace_to_json,
    zero_subspace,
)
from polyball.symmetric import (
    SymFockTruncation,
    coordinate_multiple_subspace,
    curv_c_estimate,
    m_c_estimate,
    monomials,
    sym_grade_dim,
    sym_monomial_multiplier,
)


def scalar_tuple(r):
    return OperatorTuple(Shape((1,)), 1, (((np.array([[r]], dtype=complex)),),))


# -- grade dimensions -----------------------------------------------------------


@pytest.mark.parametrize("n,q,expected", [(2, 3, 4), (1, 7, 1), (3, 2, 6)])
def test_sym_grade_dim_values(n, q, expected):
    assert sym_grade_dim(n, q) == expected


def test_sym_grade_dim_matches_multiset_enumeration():
    # enumerate words and count distinct contents
    for n in (1, 2, 3, 4):
        for q in range(6):
            contents = {
                tuple(w.count(letter) for letter in range(1, n + 1))
                for w in itertools.product(range(1, n + 1), repeat=q)
            }
            assert sym_grade_dim(n, q) == len(contents) == len(monomials(n, q))


def test_sym_cumulative_trace():
    for n in (1, 2, 3):
        for q in range(6):
            assert sf_single(n, q).cumulative_dim(0, q) == sum(sym_grade_dim(n, s) for s in range(q + 1))
            expected = math.prod(q + i for i in range(1, n + 1)) / math.factorial(n)
            assert sf_single(n, q).cumulative_dim(0, q) == expected


# -- the compressed shifts -------------------------------------------------------


def sf_single(n, cap, cd=1):
    return SymFockTruncation(Shape((n,), caps=(cap,)), coeff_dim=cd)


def test_b_operator_on_vacuum():
    sf = sf_single(2, 3)
    b = creation_op(sf, 0, 1)
    col = op_block(b, (0,), (1,))
    assert col.shape == (2, 1)
    idx = monomials(2, 1).index((1, 0))
    assert col[idx, 0] == pytest.approx(1.0)


def test_b_operators_commute_within_factor():
    sf = sf_single(3, 4)
    b1 = creation_op(sf, 0, 1)
    b2 = creation_op(sf, 0, 2)
    comm = b1 @ b2 - b2 @ b1
    for key, blk in comm.blocks.items():
        if all(v <= 2 for v in key[0]):
            assert np.linalg.norm(blk, 2) < 1e-14


SYMMETRIC_KERNEL_ENTRIES = {"berezin_kernel": berezin_kernel, "verify_intertwining": verify_intertwining}


@pytest.mark.parametrize("entry", list(SYMMETRIC_KERNEL_ENTRIES))
@pytest.mark.parametrize("norm", [0.8, 1.5])
def test_symmetric_kernel_entries_refuse_a_non_commuting_row(entry, norm):
    # a random two-letter row: a polyball member at norm 0.8, not one at 1.5; commutativity is tested first
    t = random_row_tuple(np.random.default_rng(7), 2, 3, norm)
    if norm > 1:
        with pytest.raises(MembershipError):
            SYMMETRIC_KERNEL_ENTRIES[entry](t, (3,), "full")
    else:
        SYMMETRIC_KERNEL_ENTRIES[entry](t, (3,), "full")
    with pytest.raises(ValueError, match=r"^entries within a factor do not commute \(residual "):
        SYMMETRIC_KERNEL_ENTRIES[entry](t, (3,), "symmetric")


@pytest.mark.parametrize("scale, eps, refused", [(1e3, 1e-9, False), (1e3, 1e-8, True), (1.0, 1e-3, True)])
def test_within_factor_commutation_bound_scales_with_the_entries(scale, eps, refused):
    # ||[A, B]|| = scale**2 * eps against the commutation row's 1e-10 * max(||B||**2, 1), about 1.6e-9 * scale**2:
    # the residual 1e-3 passes beside entries of norm 4e3 and is refused beside entries of norm 4
    a = scale * np.diag([1.0, 2.0])
    b = scale * np.array([[3.0, eps], [0.0, 4.0]])
    t = OperatorTuple(Shape((2,)), 2, ((a, b),))
    if refused:
        with pytest.raises(ValueError, match=r"^entries within a factor do not commute \(residual "):
            require_commutative(t)
    else:
        require_commutative(t)


def test_b_matches_compression_of_word_shift():
    # symmetrizer o S o embed == B at small caps
    for n in (2, 3):
        cap = 4
        sf = sf_single(n, cap)
        ft = FockTruncation(Shape((n,), caps=(cap,)))
        for j in range(1, n + 1):
            b = creation_op(sf, 0, j)
            s = creation_op(ft, 0, j)
            for q in range(cap):
                v_q = embedding_matrix(n, q)
                v_up = embedding_matrix(n, q + 1)
                compressed = v_up.conj().T @ op_block(s, (q,), (q + 1,)) @ v_q
                assert np.allclose(compressed, op_block(b, (q,), (q + 1,)), atol=1e-13)


def test_word_to_monomial_counting_oracle():
    # sum over words of ||B_alpha vacuum||^2 equals the monomial count, exactly
    for n in (2, 3):
        cap = 6
        sf = sf_single(n, cap)
        ops = [creation_op(sf, 0, j) for j in range(1, n + 1)]
        for q in range(cap + 1):
            total = Fraction(0)
            for word in itertools.product(range(n), repeat=q):
                vec = np.zeros(sf.dim((0,)), dtype=complex)
                vec[0] = 1.0
                cur = {(0,): vec}
                for letter in reversed(word):
                    nxt = {}
                    for g, v in cur.items():
                        blk = ops[letter].blocks.get((g, (g[0] + 1,)))
                        if blk is not None:
                            nxt[(g[0] + 1,)] = blk @ v
                    cur = nxt
                norm2 = sum(float(np.linalg.norm(v) ** 2) for v in cur.values())
                total += Fraction(norm2).limit_denominator(10**9)
            assert total == sym_grade_dim(n, q)


def test_counting_identity_compressed_shifts():
    # sum over |alpha|=s of B_alpha* Q_q B_alpha = (trace Q_q / trace Q_{q-s}) Q_{q-s}
    for n in (2, 3):
        sf = sf_single(n, 4)
        ops = {j: creation_op(sf, 0, j) for j in range(1, n + 1)}
        for q in range(1, 5):
            for s in range(1, q + 1):
                total = GradedOperator(sf)
                for word in itertools.product(range(1, n + 1), repeat=s):
                    op = op_identity(sf)
                    for letter in reversed(word):
                        op = ops[letter] @ op
                    proj = GradedOperator(sf, {((q,), (q,)): np.eye(sf.dim((q,)), dtype=complex)})
                    total = total + (op.adjoint() @ proj @ op)
                ratio = sym_grade_dim(n, q) / sym_grade_dim(n, q - s)
                blk = op_block(total, (q - s,), (q - s,))
                assert np.allclose(blk, ratio * np.eye(sf.dim((q - s,))), atol=1e-12)
                for key, b in total.blocks.items():
                    if key != ((q - s,), (q - s,)):
                        assert np.linalg.norm(b, 2) < 1e-12


def test_counting_identity_two_factors():
    sf = SymFockTruncation(Shape((2, 2), caps=(3, 3)))
    ops = {(i, j): creation_op(sf, i, j) for i in range(2) for j in (1, 2)}
    q, s = (2, 1), (1, 1)
    total = GradedOperator(sf)
    for w1 in itertools.product((1, 2), repeat=s[0]):
        for w2 in itertools.product((1, 2), repeat=s[1]):
            op = op_identity(sf)
            for letter in reversed(w1):
                op = ops[(0, letter)] @ op
            for letter in reversed(w2):
                op = ops[(1, letter)] @ op
            proj = GradedOperator(sf, {(q, q): np.eye(sf.dim(q), dtype=complex)})
            total = total + (op.adjoint() @ proj @ op)
    target = (1, 0)
    ratio = (sym_grade_dim(2, 2) / sym_grade_dim(2, 1)) * (sym_grade_dim(2, 1) / sym_grade_dim(2, 0))
    assert np.allclose(op_block(total, target, target), ratio * np.eye(sf.dim(target)), atol=1e-12)


# -- commutative curvature --------------------------------------------------------


def test_curv_c_scalar_matches_word_model():
    r = 0.6
    est = curv_c_estimate(scalar_tuple(r), 6)
    for q in range(7):
        assert est.grade_values[(q,)] == pytest.approx((1 - r**2) * r ** (2 * q))


def test_curv_c_universal_ratio_one_via_subspace():
    sf = SymFockTruncation(Shape((3,), caps=(8,)))
    est = subspace_curvature(zero_subspace(sf), 8)
    for q in range(9):
        assert est.exact_values[(q,)] == 1


def test_commutative_trace_bound():
    rng = np.random.default_rng(127)
    t = commuting_tuple(rng, 2, 4, 0.9)
    for _ in range(20):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        x = g @ g.conj().T
        y = x.copy()
        for q in range(5):
            lhs = float(np.trace(y).real)
            bound = sym_grade_dim(2, q) * float(np.trace(x).real)
            assert lhs <= bound + 1e-9
            y = sum(m @ y @ m.conj().T for m in t.factors[0])


def test_curv_c_monotone_and_caveat_free_for_nice_tuple():
    rng = np.random.default_rng(131)
    t = commuting_tuple(rng, 2, 3, 0.7)
    est = curv_c_estimate(t, 4)
    assert est.monotone_ok
    assert est.caveats == ()
    assert not math.isnan(est.defect_product_seq[1])


@pytest.mark.parametrize("seed", range(8))
def test_curv_c_caveat_at_qmax_0_is_that_of_qmax_1(seed):
    # the characteristic-function test reads at least the unit box: at caps 1 the interior is empty
    rng = np.random.default_rng(seed)
    n = [(2,), (2, 2), (1, 2), (3,)][seed % 4]
    parts = [commuting_tuple(rng, ni, 2, 0.8) for ni in n]
    t = parts[0] if len(parts) == 1 else ampliation(parts)
    assert curv_c_estimate(t, 0).caveats == curv_c_estimate(t, 1).caveats
    if len(n) == 2:  # these tuples fail the test
        assert curv_c_estimate(t, 0).caveats


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3), dim=st.integers(1, 3), q_max=st.integers(0, 4))
def test_curv_and_curv_c_agree_bit_for_bit_when_every_n_i_is_1(seed, k, dim, q_max):
    # every grade dimension is 1 in both models, and both estimators run one builder on the same traces
    t = random_polyball_tuple(np.random.default_rng(seed), (1,) * k, (dim,) * k, 0.8)
    word, sym = curvature_estimate(t, q_max), curv_c_estimate(t, q_max)
    assert list(word.grade_values) == list(sym.grade_values)
    for name in ("corner_seq", "cesaro_seq", "estimate", "error_proxy"):
        assert np.asarray(getattr(word, name)).tobytes() == np.asarray(getattr(sym, name)).tobytes(), name
    assert word.grade_values.array.tobytes() == sym.grade_values.array.tobytes()
    assert word.monotone_ok == sym.monotone_ok
    assert sym.caveats == ()


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e5, 1e8])
def test_multiplier_residual_is_read_at_the_scale_of_its_coefficients(scale):
    # the residual of a valid multiplier is rounding, which grows with its coefficients; perturbed blocks still
    # fail at any scale
    base = sym_monomial_multiplier(Shape((2, 3)), ((1, 0), (1, 1, 0)))
    (d, coeff), = base.coeffs.items()
    rng = np.random.default_rng(5)
    coeff = scale * (rng.standard_normal(coeff.shape) + 1j * rng.standard_normal(coeff.shape))
    theta = InnerMultiplier(base.shape, 1, 1, {d: coeff}, model="symmetric")
    assert validate_multiplier(theta, (4, 4)) <= 1e-14 * scale
    blocks = theta.materialize_blocks((4, 4))
    blocks = {key: b + 2e-4 * scale * rng.standard_normal(b.shape) for key, b in blocks.items()}
    with pytest.raises(ValueError, match="does not intertwine"):
        _validate_blocks(theta, blocks, (4, 4))


def test_factorial_form_universal_counts():
    assert universal_factorial_form_value((1,), 50) == pytest.approx(1 + 1 / 50)
    seq2 = [universal_factorial_form_value((2,), q) for q in (10, 20, 40, 80)]
    assert abs(seq2[-1] - 1) < abs(seq2[0] - 1)
    assert universal_factorial_form_value((2,), 10**6) == pytest.approx(1.0, abs=1e-5)


# -- constrained kernel -----------------------------------------------------------


def test_constrained_kernel_scalar_equals_plain():
    r = 0.7
    kb = berezin_kernel(scalar_tuple(r), (6,), "symmetric")
    for q in range(7):
        assert kb.blocks[(q,)][0, 0] == pytest.approx(np.sqrt(1 - r**2) * r**q)


def test_symmetric_kernel_takes_one_shift_map_per_letter(monkeypatch):
    # n (2, 2) at caps (4, 4): 24 grades past the vacuum, two letters each
    rng = np.random.default_rng(139)
    t = ampliation([commuting_tuple(rng, 2, 2, 0.7), commuting_tuple(rng, 2, 2, 0.7)])
    calls = []
    shift_data = SymFockTruncation.shift_data
    monkeypatch.setattr(SymFockTruncation, "shift_data", lambda self, *a: calls.append(a) or shift_data(self, *a))
    berezin_kernel(t, (4, 4), "symmetric")
    assert len(calls) <= 48


def test_constrained_kernel_direct_formula():
    # rows are sqrt(q!/alpha!) * defect^{1/2} (T^alpha)^* in the monomial basis
    rng = np.random.default_rng(137)
    t = commuting_tuple(rng, 2, 3, 0.7)
    kb = berezin_kernel(t, (4,), "symmetric")
    from polyball.cp import defect_data

    dd = defect_data(t)
    prefix = dd.range_basis.conj().T @ dd.sqrt
    for q in range(5):
        mons = monomials(2, q)
        r = kb.truncation.coeff_dim
        for midx, alpha in enumerate(mons):
            word_product = np.eye(3, dtype=complex)
            for var, count in enumerate(alpha):
                for _ in range(count):
                    word_product = t.entry(0, var + 1).conj().T @ word_product
            scale = math.sqrt(float(1 / monomial_weight(alpha)))
            expected = scale * (prefix @ word_product)
            got = kb.blocks[(q,)][midx * r : (midx + 1) * r, :]
            assert np.allclose(got, expected, atol=1e-11)


def test_constrained_kernel_b_intertwining():
    rng = np.random.default_rng(139)
    t = commuting_tuple(rng, 2, 3, 0.6)
    assert verify_intertwining(t, (5,), "symmetric") < 1e-10


def test_constrained_connection_identity():
    rng = np.random.default_rng(149)
    t = commuting_tuple(rng, 2, 2, 0.6)
    kb = berezin_kernel(t, (6,), "symmetric")
    for q in range(5):
        _, _, resid = connection_identity(kb, (q,))
        assert resid < 1e-8


def test_constrained_char_function_on_beurling_compression():
    sf = sf_single(2, 4)
    sub = coordinate_multiple_subspace(sf, 0, 1)
    t = compression_tuple(sub)
    verdict = has_characteristic_function(berezin_kernel(t, (4,), "symmetric"))
    assert verdict.positive


# -- symmetric subspaces and multiplicity ------------------------------------------


def test_coordinate_multiple_counts():
    sf = sf_single(2, 6)
    sub = coordinate_multiple_subspace(sf, 0, 1)
    for q in range(1, 7):
        assert sub.grade_trace_exact((q,)) == sym_grade_dim(2, q - 1)
    assert sub.grade_trace_exact((0,)) == 0
    assert sub.certify_invariance() < 1e-12


@pytest.mark.parametrize("factor", [1, 5, -1])
def test_coordinate_multiple_refuses_a_factor_out_of_range_by_name(factor):
    with pytest.raises(ValueError, match=rf"^factor {factor} out of range for 1 factors$"):
        coordinate_multiple_subspace(sf_single(2, 2), factor, 1)


def test_m_c_full_space():
    sf = SymFockTruncation(Shape((2, 2), caps=(3, 3)), coeff_dim=2)
    rep = m_c_estimate(full_subspace(sf), 3)
    assert rep.grade_values[(3, 3)] == 2.0
    assert rep.beurling.positive


def test_m_c_coordinate_multiple_tends_to_one():
    sf = sf_single(2, 10)
    rep = m_c_estimate(coordinate_multiple_subspace(sf, 0, 1), 10)
    vals = [rep.grade_values[(q,)] for q in range(11)]
    assert vals[10] == pytest.approx(10 / 11)
    assert rep.exact_limit == 1
    assert rep.beurling.positive
    assert rep.caveats == ()


def test_m_c_polydisc_equals_word_model():
    sf = SymFockTruncation(Shape((1, 1), caps=(6, 6)))
    sub = coordinate_multiple_subspace(sf, 0, 1)
    rep = m_c_estimate(sub, 6)
    for q in sf.grades:
        assert rep.grade_values[q] == (1.0 if q[0] >= 1 else 0.0)


# -- index formula -----------------------------------------------------------------


def test_index3_polydisc_monomial():
    sf = SymFockTruncation(Shape((1, 1), caps=(4, 4)))
    sub = coordinate_multiple_subspace(sf, 0, 1)
    t = compression_tuple(sub)
    kb = berezin_kernel(t, (4, 4), "symmetric")
    theta = sym_monomial_multiplier(Shape((1, 1)), ((1,), (0,)))
    chk = index_formula_check(kb, theta)
    assert chk.lhs == pytest.approx(0.0, abs=1e-10)
    assert chk.rhs == pytest.approx(0.0, abs=1e-10)
    assert chk.residual < 1e-8


def test_index3_zero_theta_reduces_to_rank():
    sf = sf_single(2, 4)
    t = compression_tuple(zero_subspace(sf))
    kb = berezin_kernel(t, (4,), "symmetric")
    assert kb.defect.rank == 1
    theta = InnerMultiplier(Shape((2,)), 1, 1, {}, model="symmetric")
    chk = index_formula_check(kb, theta)
    assert chk.lhs == pytest.approx(1.0, abs=1e-10)
    assert chk.rhs == pytest.approx(1.0)


def test_sym_multiplier_validation():
    theta = sym_monomial_multiplier(Shape((2,)), ((1, 0),))
    assert validate_multiplier(theta, (4,)) < 1e-12


def test_symmetric_subspace_json_roundtrip():
    sf = sf_single(2, 5)
    sub = coordinate_multiple_subspace(sf, 0, 1)
    back = subspace_from_json(subspace_to_json(sub))
    assert back.truncation.model == "symmetric"
    for q in range(6):
        assert back.grade_trace_exact((q,)) == sub.grade_trace_exact((q,))


def test_symmetric_multiplier_json_roundtrip():
    from polyball.berezin import multiplier_from_json, multiplier_to_json

    theta = sym_monomial_multiplier(Shape((2,)), ((1, 1),))
    back = multiplier_from_json(multiplier_to_json(theta))
    assert back.model == "symmetric"
    for d, c in theta.coeffs.items():
        assert np.array_equal(back.coeffs[d], c)
    assert validate_multiplier(back, (4,)) < 1e-12


# -- the symmetric kernel on its own truncation -------------------------------


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    norm=st.floats(0.2, 0.9),
    data=st.data(),
)
def test_direct_kernel_matches_the_fold_of_the_word_kernel(seed, n, norm, data):
    rng = np.random.default_rng(seed)
    parts = [commuting_tuple(rng, ni, 2, norm) for ni in n]
    t = parts[0] if len(parts) == 1 else ampliation(parts)
    caps = tuple(data.draw(st.integers(1, 4)) for _ in n)
    direct = berezin_kernel(t, caps, "symmetric")
    folded = folded_berezin(t, caps)
    assert direct.truncation == folded.truncation
    for q, b in folded.blocks.items():
        assert np.all(np.abs(direct.blocks[q] - b) <= 1e-13 * np.maximum(1.0, np.abs(b)))


def test_constrained_kernel_peaks_below_the_word_kernel():
    rng = np.random.default_rng(41)
    t = ampliation([commuting_tuple(rng, 2, 3, 0.8), commuting_tuple(rng, 2, 3, 0.8)])
    caps = (6, 6)
    word_shape = t.shape.with_caps(caps)
    word_rows = sum(grade_dim(word_shape, q) for q in itertools.product(range(7), repeat=2))
    assert word_rows == 16129  # 145161 rows at defect rank 9
    tracemalloc.start()
    try:
        kb = berezin_kernel(t, caps, "symmetric")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < word_rows * kb.defect.rank * t.dimH * 16


def _coordinate_multiple_rows(sf, factor, var, q):
    """Rows of grade ``q`` whose monomial is divisible by ``z_var`` of ``factor``, one index at a time."""
    per = [monomials(sf.shape.n[l], q[l]) for l in range(sf.shape.k)]
    dims = tuple(len(m) for m in per)
    keep = []
    for a in range(sf.word_dim(q)):
        if per[factor][np.unravel_index(a, dims)[factor]][var - 1] >= 1:
            keep.extend(a * sf.coeff_dim + c for c in range(sf.coeff_dim))
    return np.asarray(keep, dtype=int)


@pytest.mark.parametrize("n, factor, var, cd", [((2, 3), 1, 2, 2), ((3,), 0, 3, 1), ((1, 2, 2), 2, 1, 3)])
def test_coordinate_multiple_index_sets_match_the_per_index_reference(n, factor, var, cd):
    sf = SymFockTruncation(Shape(n, caps=(3,) * len(n)), coeff_dim=cd)
    sub = coordinate_multiple_subspace(sf, factor, var)
    for q in sf.grades:
        got = sub.index_set_fn(q)
        ref = _coordinate_multiple_rows(sf, factor, var, q)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        assert len(got) == sub.count_fn(q)
        inside = set(ref.tolist())
        outside = np.array([v for v in range(sf.dim(q)) if v not in inside], dtype=int)
        comp = sub.complement_grade_basis(q)
        assert np.array_equal(comp, np.eye(sf.dim(q), dtype=complex)[:, outside])

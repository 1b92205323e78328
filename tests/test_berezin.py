import itertools
import json
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import commuting_tuple, random_polyball_tuple, random_row_tuple
from oracle import (
    defect_shift_composed,
    enumerate_words,
    intertwining_residuals,
    isometry_defect,
    leq,
    monomial_weight,
    op_grade_trace,
    op_identity,
    tail_bound,
    word_product_adjoint,
)
from polyball import berezin
from polyball.basis import Shape, iter_grades
from polyball.berezin import (
    InnerMultiplier,
    berezin_kernel,
    connection_identity,
    connection_residuals,
    curvature_operator_trace,
    has_characteristic_function,
    index_formula_check,
    monomial_multiplier,
    multiplier_from_json,
    multiplier_to_json,
    validate_multiplier,
    verify_intertwining,
)
from polyball.cli import main
from polyball.cp import (
    SIZE_BUDGET,
    OperatorTuple,
    ampliation,
    slab_gram,
    spectral_norms,
    stacked_norm,
    tuple_to_json,
)
from polyball.fock import FockTruncation, bump, defect_shift
from polyball.subspaces import (
    GradedSubspace,
    bidisc_difference_subspace,
    compression_tuple,
    construct_mt,
    construct_nadic,
    zero_subspace,
)
from polyball.symmetric import monomials, sym_monomial_multiplier


def scalar_tuple(r):
    return OperatorTuple(Shape((1,)), 1, (((np.array([[r]], dtype=complex)),),))


def test_scalar_kernel_entries_and_norm():
    r, cap = 0.6, 8
    kb = berezin_kernel(scalar_tuple(r), (cap,))
    for m in range(cap + 1):
        assert kb.blocks[(m,)][0, 0] == pytest.approx(np.sqrt(1 - r**2) * r**m)
    gram = sum(kb.grade_gram((m,)) for m in range(cap + 1))
    assert gram[0, 0] == pytest.approx(1 - r ** (2 * (cap + 1)))


def test_zero_defect_gives_zero_kernel():
    kb = berezin_kernel(scalar_tuple(1.0), (5,))
    assert kb.truncation.coeff_dim == 0
    assert all(b.shape == (0, 1) for b in kb.blocks.values())


def test_kernel_isometry_defect_below_tail_bound():
    rng = np.random.default_rng(97)
    t = random_polyball_tuple(rng, (2, 2), (2, 2), 0.6)
    kb = berezin_kernel(t, (6, 6))
    assert isometry_defect(kb) <= tail_bound(kb) + 1e-12


@pytest.fixture
def powers(monkeypatch):
    """The power of every ``cp_apply_power`` call made by the kernel code."""
    seen = []
    power = berezin.cp_apply_power

    def recording(t, i, y, q):
        seen.append(q)
        return power(t, i, y, q)

    monkeypatch.setattr(berezin, "cp_apply_power", recording)
    return seen


def test_tail_bound_is_computed_only_where_reported(powers, tmp_path):
    # the tail bound is the only caller of power cap + 1 = 5; the identities stop at qmax 3
    t = compression_tuple(construct_mt(construct_nadic(2, 0.5), 4))
    t_path, theta_path, out = tmp_path / "t.json", tmp_path / "theta.json", tmp_path / "out.json"
    t_path.write_text(tuple_to_json(t))
    theta_path.write_text(multiplier_to_json(monomial_multiplier(Shape((2,)), 0, (1,))))
    for argv in (
        ["check", "intertwine", "--input", str(t_path), "--caps", "4"],
        ["check", "index", "--input", str(t_path), "--theta", str(theta_path), "--caps", "4"],
    ):
        assert main(argv + ["--out", str(out)]) == 0, argv
    assert powers == []
    assert main(["check", "connection", "--input", str(t_path), "--caps", "4", "--qmax", "3", "--out", str(out)]) == 0
    assert powers.count(5) == 1 and max(powers) == 5
    assert json.loads(out.read_text())["tail_bound"] == tail_bound(berezin_kernel(t, (4,)))


def test_constrained_kernel_shares_the_word_tail_bound(powers):
    t = commuting_tuple(np.random.default_rng(41), 2, 3, 0.7)
    kb = berezin_kernel(t, (4,), "symmetric")
    assert powers == []
    assert tail_bound(kb) == tail_bound(berezin_kernel(t, (4,))) > 0


def test_intertwining_scalar_exact():
    assert verify_intertwining(scalar_tuple(0.7), (6,)) < 1e-14


def test_intertwining_zero_tuple():
    t = OperatorTuple(Shape((2,)), 2, ((np.zeros((2, 2)), np.zeros((2, 2))),))
    assert verify_intertwining(t, (4,)) < 1e-15


def test_intertwining_random_pure():
    rng = np.random.default_rng(101)
    t = random_polyball_tuple(rng, (2, 2), (2, 2), 0.6)
    assert verify_intertwining(t, (5, 5)) < 1e-10


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    case=st.sampled_from([
        ("full", (2, 2), 3), ("full", (1, 1, 1), 2), ("full", (3,), 4),
        ("symmetric", (2, 2), 4), ("symmetric", (2, 1), 4), ("symmetric", (3,), 4),
    ]),
    norm=st.floats(0.2, 0.9),
    data=st.data(),
)
def test_intertwining_skips_only_pairs_the_recursion_wrote(seed, case, norm, data):
    model, n, top = case
    rng = np.random.default_rng(seed)
    caps = tuple(data.draw(st.integers(1, top)) for _ in n)
    if model == "full":
        t = random_polyball_tuple(rng, n, tuple(data.draw(st.integers(1, 3)) for _ in n), norm)
        kb = berezin_kernel(t, caps)
    else:
        parts = [commuting_tuple(rng, ni, 2, norm) for ni in n]
        t = parts[0] if len(parts) == 1 else ampliation(parts)
        kb = berezin_kernel(t, caps, "symmetric")
    full = intertwining_residuals(kb)
    tested = berezin._tested_pairs(kb.truncation, kb.truncation.grades, kb.truncation.grades)
    skipped = set(full) - set(tested)
    assert verify_intertwining(t, caps, model) == max(full.values())
    assert all(full[p] == 0.0 for p in skipped)
    # the pairs whose grade q is 0 past factor i, less the symmetric ones with weights other than 1
    assert skipped == {(i, j, q) for i, j, q in full
                       if not any(q[i + 1:]) and (model == "full" or n[i] == 1 or q[i] == 0)}
    if model == "symmetric":
        assert not any(n[i] >= 2 and q[i] >= 1 for i, _, q in skipped)


def test_intertwining_peaks_below_the_whole_kernel():
    # two layers alive: at caps (5, 5) on n (2, 2) the top two hold about half the rows
    t = random_polyball_tuple(np.random.default_rng(7), (2, 2), (4, 4), 0.7)
    kb = berezin_kernel(t, (5, 5))
    assert list(kb.blocks) == list(kb.truncation.grades)
    kernel_bytes = sum(b.nbytes for b in kb.blocks.values())
    del kb
    tracemalloc.start()
    try:
        verify_intertwining(t, (5, 5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < kernel_bytes


def test_intertwining_peaks_at_two_layers_and_a_few_slabs_per_thread(monkeypatch):
    # the leaves, the grades with the last factor at its cap, are formed a slab at a time: beyond the stored
    # grades of two adjacent degrees and the row plans of the top leaves (the top pairs hold no index array: in
    # the word model their targets are views), each of the 4 threads (3 workers and the caller) holds a few slabs
    monkeypatch.setattr(berezin, "SLAB_BYTES", 2**16)
    monkeypatch.setattr(berezin, "_workers", lambda: ThreadPoolExecutor(3))
    t = random_polyball_tuple(np.random.default_rng(7), (2, 2), (4, 4), 0.7)
    kb = berezin_kernel(t, (5, 5))
    ft = kb.truncation
    stored = [sum(b.nbytes for q, b in kb.blocks.items() if sum(q) == d and q[-1] < 5) for d in range(11)]
    assert stored[-1] == 0 and stored[-3] + stored[-2] == max(map(sum, zip(stored, stored[1:])))
    plans = 24 * sum(ft.dim(q) for q in ft.grades if sum(q) >= 9 and q[-1] == 5)
    del kb
    tracemalloc.start()
    try:
        verify_intertwining(t, (5, 5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stored[-3] + stored[-2] + plans + 4 * 6 * berezin.SLAB_BYTES


def _slab_cases():
    rng = np.random.default_rng(3)
    return [("full", random_polyball_tuple(rng, (2, 2), (2, 3), 0.7), (4, 4)),
            ("symmetric", ampliation([commuting_tuple(rng, 2, 2, 0.8), commuting_tuple(rng, 3, 2, 0.8)]), (5, 4))]


@pytest.mark.parametrize("model", ["full", "symmetric"])
def test_kernel_and_residual_bits_do_not_depend_on_workers_or_slabs(monkeypatch, model):
    t, caps = next((t, caps) for m, t, caps in _slab_cases() if m == model)
    base = berezin_kernel(t, caps, model)
    resid = verify_intertwining(t, caps, model)
    # one worker, and every layer one slab, run by the calling thread
    monkeypatch.setattr(berezin, "SLAB_BYTES", 2**40)
    monkeypatch.setattr(berezin, "_workers", lambda: ThreadPoolExecutor(1))
    kb = berezin_kernel(t, caps, model)
    assert all(np.array_equal(kb.blocks[q].view(np.uint64), base.blocks[q].view(np.uint64)) for q in base.blocks)
    assert verify_intertwining(t, caps, model) == resid
    # slabs of dimH rows on more workers than cores, switching threads as often as it can:
    # every kernel bit is kept, and the residual norm sums more slab Grams
    monkeypatch.setattr(berezin, "SLAB_BYTES", 0)
    monkeypatch.setattr(berezin, "_workers", lambda: ThreadPoolExecutor(8))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        kb = berezin_kernel(t, caps, model)
        tiny = verify_intertwining(t, caps, model)
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(kb.blocks[q].view(np.uint64), base.blocks[q].view(np.uint64)) for q in base.blocks)
    assert abs(tiny - resid) <= 1e-12 * resid


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e150])
def test_norm_from_many_slabs_matches_the_whole(monkeypatch, scale):
    # a slab of 3 rows: 17 slabs of a 50 x 3 matrix, one of them 1e-100 times smaller
    monkeypatch.setattr(berezin, "SLAB_BYTES", 0)
    rng = np.random.default_rng(11)
    x = (rng.standard_normal((50, 3)) + 1j * rng.standard_normal((50, 3))) * scale
    x[6:9] *= 1e-100

    def norm(m):
        with ThreadPoolExecutor(2) as pool:
            (parts,) = berezin._by_slabs(pool, lambda m, rows: slab_gram(m[rows], len(m)), [(len(m), (m,))], 3)
        return parts, stacked_norm(parts)

    parts, got = norm(x)
    assert len(parts) == 17
    want = float(spectral_norms(x))
    assert abs(got - want) <= 1e-13 * want
    assert stacked_norm([slab_gram(x, len(x))]) == want  # one slab: the bits of spectral_norms
    x[20, 1] = np.nan
    assert math.isnan(norm(x)[1])
    assert norm(np.zeros((50, 3), dtype=complex))[1] == 0.0


@pytest.mark.parametrize("n, caps", [((2,), (4,)), ((1, 2), (2, 3)), ((2, 2), (3, 3))])
def test_symmetric_pairs_into_leaves_keep_the_kernel_bits(n, caps):
    # n_last = 2: the pairs of the last factor into a leaf have weights other than 1, so they are tested,
    # and their target rows are formed from the leaf's plan
    rng = np.random.default_rng(13)
    parts = [commuting_tuple(rng, ni, 2, 0.8) for ni in n]
    t = parts[0] if len(parts) == 1 else ampliation(parts)
    kb = berezin_kernel(t, caps, "symmetric")
    ft = kb.truncation
    tested = [(i, q) for i, _, q in berezin._tested_pairs(ft, ft.grades, ft.grades)]
    into_leaves = [(i, q) for i, q in tested if bump(q, i)[-1] == caps[-1]]
    assert any(i == len(n) - 1 for i, _ in into_leaves)
    assert any(q[-1] == caps[-1] for _, q in into_leaves) == (len(n) > 1)  # a leaf as the lower grade too
    assert verify_intertwining(t, caps, "symmetric") == max(intertwining_residuals(kb).values())


@pytest.mark.parametrize("model, n, dims, caps, slab", [
    ("full", (2,), (2,), (3,), 240),  # slabs of 7 rows: each letter's last slab is one row
    ("full", (2, 2), (1, 2), (2, 3), 0),
    ("full", (1, 1), (1, 1), (3, 2), 2**20),  # one row per grade
    ("symmetric", (3,), (2,), (4,), 2**20),
    ("symmetric", (2, 2), (1, 2), (3, 3), 0),
])
def test_leaf_rows_have_the_bits_of_the_kernel_blocks(monkeypatch, model, n, dims, caps, slab):
    # any rows of a leaf as verify_intertwining reads them: single rows and slices, formed from the leaf's plan
    # in the word model, and scattered subsets of the leaf block, formed whole, in the symmetric model
    monkeypatch.setattr(berezin, "SLAB_BYTES", slab)
    rng = np.random.default_rng(1)
    if model == "full":
        t = random_polyball_tuple(rng, n, dims, 0.7)
    else:
        parts = [commuting_tuple(rng, ni, d, 0.8) for ni, d in zip(n, dims)]
        t = parts[0] if len(parts) == 1 else ampliation(parts)
    kb = berezin_kernel(t, caps, model)
    dd, ft = berezin._kernel_truncation(t, caps, model)
    leaves = []
    with berezin._workers() as pool:
        for _, plans in berezin._kernel_layers(t, ft, dd, pool):
            for u, rows in berezin._leaf_rows(t, ft, plans, pool).items():
                block = kb.blocks[u]
                d = len(block)
                idxs = [slice(0, d), slice(d // 3, d), *(slice(r, r + 1) for r in range(d))]
                if model == "symmetric":
                    idxs += [*np.arange(d)[:, None], rng.permutation(d)[: d // 2 + 1]]
                for idx in idxs:
                    assert np.array_equal(rows[idx].view(np.uint64), block[idx].view(np.uint64))
                leaves.append(u)
    assert leaves == [q for q in ft.grades if berezin._is_leaf(ft, q)]
    assert leaves == [q for q in ft.grades if q[-1] == caps[-1]]


def test_layered_connection_residuals_keep_the_kernel_bits():
    t = random_polyball_tuple(np.random.default_rng(19), (2, 2), (2, 3), 0.7)
    kb = berezin_kernel(t, (4, 3))
    got = connection_residuals(t, (4, 3))
    assert got == {q: connection_identity(kb, q)[2] for q in kb.truncation.grades}
    # a zero cap: the grades of the other factor, the last one a leaf
    assert connection_residuals(t, (3, 0)) == {q: connection_identity(kb, q)[2] for q in iter_grades((3, 0))}


def test_layered_connection_holds_one_degree_and_one_leaf():
    # each block is dropped once its residual is taken: the stored grades of one degree, and one leaf of the
    # next with the conjugate its Gram matrix is formed from
    t = random_polyball_tuple(np.random.default_rng(7), (2, 2), (4, 4), 0.7)
    kb = berezin_kernel(t, (5, 5))
    stored = [sum(b.nbytes for q, b in kb.blocks.items() if sum(q) == d and q[-1] < 5) for d in range(11)]
    leaf = [max([b.nbytes for q, b in kb.blocks.items() if sum(q) == d and q[-1] == 5], default=0) for d in range(11)]
    whole = sum(b.nbytes for b in kb.blocks.values())
    del kb
    tracemalloc.start()
    try:
        connection_residuals(t, (5, 5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    window = max(a + 2 * b for a, b in zip(stored, leaf[1:]))
    assert peak < window + 2 * berezin.SLAB_BYTES < whole


def test_connection_identity_grade_zero():
    rng = np.random.default_rng(103)
    t = random_polyball_tuple(rng, (2, 2), (2, 2), 0.7)
    kb = berezin_kernel(t, (4, 4))
    lhs, rhs, resid = connection_identity(kb, (0, 0))
    assert np.allclose(rhs, kb.defect.defect, atol=1e-13)
    assert resid < 1e-12


def test_connection_identity_scalar_closed_form():
    r = 0.5
    kb = berezin_kernel(scalar_tuple(r), (6,))
    for q in range(5):
        lhs, rhs, resid = connection_identity(kb, (q,))
        assert lhs[0, 0] == pytest.approx((1 - r**2) * r ** (2 * q))
        assert resid < 1e-14


def test_connection_identity_random_and_cap_monotonicity():
    rng = np.random.default_rng(107)
    t = random_polyball_tuple(rng, (2, 2), (2, 3), 0.6)
    small = berezin_kernel(t, (4, 4))
    big = berezin_kernel(t, (6, 5))
    _, _, resid_small = connection_identity(small, (2, 1))
    _, _, resid_big = connection_identity(big, (2, 1))
    assert resid_big < 1e-8
    assert resid_big <= resid_small + 1e-13


def test_char_function_always_exists_single_factor():
    rng = np.random.default_rng(109)
    for _ in range(3):
        t = random_row_tuple(rng, 2, 3, 0.8)
        kb = berezin_kernel(t, (4,))
        verdict = has_characteristic_function(kb)
        assert verdict.positive, verdict


def test_char_function_true_for_beurling_compression():
    # monomial subspace of the bidisc model; its complement compression
    ft = FockTruncation(Shape((1, 1), caps=(4, 4)))
    sub = GradedSubspace(
        ft, "basis",
        grade_bases={q: np.eye(1, dtype=complex) for q in ft.grades if q[0] >= 1},
    )
    t = compression_tuple(sub)
    kb = berezin_kernel(t, (4, 4))
    assert has_characteristic_function(kb).positive


def test_char_function_false_for_difference_compression():
    sub = bidisc_difference_subspace((4, 4))
    t = compression_tuple(sub)
    kb = berezin_kernel(t, (4, 4))
    verdict = has_characteristic_function(kb)
    assert not verdict.positive
    assert verdict.min_eigenvalue < -1e-3


def commuting_pair_kernel(caps):
    """Symmetric kernel of a commuting dimH-9 tuple with n (2,2)."""
    rng = np.random.default_rng(41)
    t = ampliation([commuting_tuple(rng, 2, 3, 0.8), commuting_tuple(rng, 2, 3, 0.8)])
    return berezin_kernel(t, caps, "symmetric")


@pytest.mark.parametrize("make", [
    lambda: commuting_pair_kernel((3, 3)),
    lambda: berezin_kernel(compression_tuple(bidisc_difference_subspace((4, 4))), (4, 4)),
])
def test_char_function_is_bit_equal_to_the_composed_route(make):
    kb = make()
    d = defect_shift_composed(op_identity(kb.truncation) - kb.kk_star_full())
    assert has_characteristic_function(kb).min_eigenvalue == d.min_eig_interior()


def test_char_function_holds_one_operator():
    # ``I - K K^*`` in place, ``defect_shift`` in place: the peak is the one
    # operator plus its dense interior, not the four operators of the composed route
    kb = commuting_pair_kernel((4, 4))
    kk_bytes = sum(b.nbytes for b in kb.kk_star_full().blocks.values())
    assert kb.truncation.total_dim == 2025
    tracemalloc.start()
    try:
        has_characteristic_function(kb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * kk_bytes


def test_curvature_operator_trace_two_routes():
    rng = np.random.default_rng(113)
    t = random_polyball_tuple(rng, (2, 2), (2, 2), 0.6)
    kb = berezin_kernel(t, (4, 4))
    for q in [(0, 0), (1, 1), (2, 2), (3, 3)]:
        chk = curvature_operator_trace(kb, q)
        assert chk.residual < 1e-10


def dense_operator_trace(kb, q):
    """Oracle: dense ``K_s K_s^*`` blocks pushed through the transfer maps of the shifts."""
    ft = kb.truncation
    delta = defect_shift(kb.kk_star_diag([s for s in ft.grades if leq(s, q)]))
    return sum(op_grade_trace(delta, s).real / ft.word_dim(s) for s in iter_grades(q))


def assert_matches_oracle(kb, q):
    value = curvature_operator_trace(kb, q).value
    assert abs(value - dense_operator_trace(kb, q)) <= 1e-12 * max(1.0, abs(value))


@pytest.mark.parametrize(
    "n, dims, caps",
    [((2, 2), (2, 2), (4, 4)), ((1, 2, 1), (2, 2, 1), (3, 3, 3))],
)
def test_operator_trace_matches_dense_oracle_word_model(n, dims, caps):
    rng = np.random.default_rng(131)
    kb = berezin_kernel(random_polyball_tuple(rng, n, dims, 0.7), caps)
    for q in iter_grades(tuple(c - 1 for c in caps)):
        assert_matches_oracle(kb, q)


def test_operator_trace_matches_dense_oracle_symmetric_model():
    rng = np.random.default_rng(137)
    t = ampliation([commuting_tuple(rng, 2, 2, 0.7), commuting_tuple(rng, 3, 2, 0.7)])
    kb = berezin_kernel(t, (3, 3), "symmetric")
    for q in iter_grades((2, 2)):
        assert_matches_oracle(kb, q)
        assert curvature_operator_trace(kb, q).residual < 1e-10


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([(1,), (3,), (2, 2), (1, 3), (2, 1, 1)]),
    norm=st.floats(0.2, 0.9),
    data=st.data(),
)
def test_operator_trace_property_random_pure_tuples(seed, n, norm, data):
    rng = np.random.default_rng(seed)
    t = random_polyball_tuple(rng, n, (2,) * len(n), norm)
    caps = (3,) * len(n)
    kb = berezin_kernel(t, caps)
    q = tuple(data.draw(st.integers(0, c - 1)) for c in caps)
    assert_matches_oracle(kb, q)
    assert curvature_operator_trace(kb, q).residual < 1e-10


def test_operator_trace_memory_stays_below_kernel_size():
    rng = np.random.default_rng(139)
    kb = berezin_kernel(random_polyball_tuple(rng, (2, 2), (2, 2), 0.7), (4, 4))
    assert kb.op.dimH == 4
    tracemalloc.start()
    try:
        curvature_operator_trace(kb, (3, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < sum(b.nbytes for b in kb.blocks.values())


def test_operator_trace_at_caps_five():
    rng = np.random.default_rng(149)
    kb = berezin_kernel(random_polyball_tuple(rng, (2, 2), (4, 4), 0.7), (5, 5))
    assert curvature_operator_trace(kb, (4, 4)).residual <= 1e-10


@pytest.mark.parametrize("q", [(1,), (1, 1, 1), (-1, 0)])
def test_operator_trace_rejects_malformed_grade(q):
    rng = np.random.default_rng(151)
    kb = berezin_kernel(random_polyball_tuple(rng, (1, 1), (1, 1), 0.5), (3, 3))
    with pytest.raises(ValueError, match="non-negative"):
        curvature_operator_trace(kb, q)


def test_curvature_operator_trace_scalar_geometric():
    r = 0.5
    kb = berezin_kernel(scalar_tuple(r), (6,))
    for q in range(5):
        chk = curvature_operator_trace(kb, (q,))
        assert chk.value == pytest.approx((1 - r**2) * r ** (2 * q), abs=1e-12)


def test_index_formula_monomial_suffix_subspace():
    sub = construct_mt(construct_nadic(2, 0.5), cap=4)
    t = compression_tuple(sub)
    kb = berezin_kernel(t, (4,))
    theta = monomial_multiplier(Shape((2,)), 0, (1,))
    chk = index_formula_check(kb, theta)
    assert chk.lhs == pytest.approx(0.5, abs=1e-10)
    assert chk.rhs == pytest.approx(0.5, abs=1e-10)
    assert chk.residual < 1e-8


def test_index_formula_bidisc_monomial():
    ft = FockTruncation(Shape((1, 1), caps=(4, 4)))
    sub = GradedSubspace(
        ft, "basis",
        grade_bases={q: np.eye(1, dtype=complex) for q in ft.grades if q[0] >= 1},
    )
    t = compression_tuple(sub)
    kb = berezin_kernel(t, (4, 4))
    theta = monomial_multiplier(Shape((1, 1)), 0, (1,))
    chk = index_formula_check(kb, theta)
    assert chk.lhs == pytest.approx(0.0, abs=1e-10)
    assert chk.rhs == pytest.approx(0.0, abs=1e-10)
    assert kb.defect.rank == 1


def test_index_formula_zero_theta_gives_rank():
    from polyball.berezin import InnerMultiplier

    ft = FockTruncation(Shape((2,), caps=(4,)), coeff_dim=2)
    t = compression_tuple(zero_subspace(ft))
    kb = berezin_kernel(t, (4,))
    assert kb.defect.rank == 2
    theta = InnerMultiplier(Shape((2,)), 1, 2, {})
    chk = index_formula_check(kb, theta)
    assert chk.lhs == pytest.approx(2.0, abs=1e-12)
    assert chk.rhs == pytest.approx(2.0)
    assert chk.residual < 1e-12


def test_index_formula_rejects_wrong_completion():
    sub = construct_mt(construct_nadic(2, 0.5), cap=4)
    t = compression_tuple(sub)
    kb = berezin_kernel(t, (4,))
    wrong = monomial_multiplier(Shape((2,)), 0, (2,))
    with pytest.raises(ValueError, match="interior"):
        index_formula_check(kb, wrong)


def test_multiplier_validation_and_roundtrip():
    theta = monomial_multiplier(Shape((2, 2)), 1, (1, 2))
    assert validate_multiplier(theta, (3, 3)) < 1e-14
    back = multiplier_from_json(multiplier_to_json(theta))
    assert back.shape.n == theta.shape.n
    assert back.isometric
    for d, c in theta.coeffs.items():
        assert np.array_equal(back.coeffs[d], c)


def test_index_formula_two_component_multiplier():
    # suffix subspace of the quarter expansion: two orthogonal word components
    import numpy as np

    from polyball.berezin import InnerMultiplier

    sub = construct_mt(construct_nadic(2, 0.25), cap=5)
    t = compression_tuple(sub)
    kb = berezin_kernel(t, (5,))
    c1 = np.zeros((2, 1, 2), dtype=complex)
    c1[0, 0, 0] = 1.0  # right extension by the word (1,) from source slot 0
    c2 = np.zeros((4, 1, 2), dtype=complex)
    c2[1, 0, 1] = 1.0  # right extension by the word (1,2) from source slot 1
    theta = InnerMultiplier(Shape((2,)), 2, 1, {(1,): c1, (2,): c2}, isometric=True)
    chk = index_formula_check(kb, theta)
    assert chk.lhs == pytest.approx(0.25, abs=1e-10)
    assert chk.rhs == pytest.approx(0.25, abs=1e-10)
    assert chk.residual < 1e-8
    assert chk.completion_residual < 1e-12


def test_kernel_is_a_contraction():
    import numpy as np

    rng = np.random.default_rng(223)
    t = random_polyball_tuple(rng, (2, 2), (2, 2), 0.8)
    kb = berezin_kernel(t, (5, 5))
    gram = sum(kb.grade_gram(q) for q in kb.truncation.grades)
    assert float(np.linalg.eigvalsh((gram + gram.conj().T) / 2)[-1]) <= 1 + 1e-12


# -- vacuum recursions against their closed forms ---------------------------------


@pytest.mark.parametrize(
    "n, dims, caps",
    [((2, 2), (2, 2), (3, 3)), ((1, 2, 1), (2, 2, 1), (2, 3, 2)), ((3,), (3,), (4,))],
)
def test_kernel_rows_match_adjoint_word_products(n, dims, caps):
    rng = np.random.default_rng(227)
    t = random_polyball_tuple(rng, n, dims, 0.7)
    kb = berezin_kernel(t, caps)
    dd = kb.defect
    prefix = dd.range_basis.conj().T @ dd.sqrt
    r = dd.rank
    assert r > 0
    for q in kb.truncation.grades:
        tensor_words = itertools.product(*(enumerate_words(ni, qi) for ni, qi in zip(n, q)))
        for idx, words in enumerate(tensor_words):
            row = prefix
            for i, w in enumerate(words):
                row = row @ word_product_adjoint(t, i, w)
            np.testing.assert_allclose(kb.blocks[q][idx * r : (idx + 1) * r], row, rtol=0, atol=1e-14)


def test_kernel_memory_stays_below_word_tables():
    t = compression_tuple(construct_mt(construct_nadic(2, 0.5), 6))
    assert t.dimH == 64
    tracemalloc.start()
    try:
        berezin_kernel(t, (6,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one dimH x dimH complex matrix per word of length <= 6
    word_tables = 127 * 64**2 * 16
    assert peak < word_tables / 4


@pytest.mark.parametrize("model, n", [("symmetric", (2, 2)), ("symmetric", (3, 3)), ("full", (2, 2))])
def test_kernel_forms_each_kept_row_once(monkeypatch, model, n):
    rng = np.random.default_rng(43)
    t = ampliation([commuting_tuple(rng, ni, 2, 0.8) for ni in n])
    formed = []
    letter_rows = berezin._letter_rows
    monkeypatch.setattr(berezin, "_letter_rows",
                        lambda src_rows, entry, w: formed.append(len(src_rows)) or letter_rows(src_rows, entry, w))
    caps = (6, 6) if model == "symmetric" else (3, 3)
    kb = berezin_kernel(t, caps, model)
    ft = kb.truncation
    assert sum(formed) == sum(ft.dim(q) for q in ft.grades if any(q))
    if n == (3, 3):
        assert ft.total_dim == 7056 * ft.coeff_dim


def test_kernel_over_the_size_budget_is_refused_before_allocation():
    t = OperatorTuple(Shape((2, 2)), 1, ((np.full((1, 1), 0.5 + 0j),) * 2,) * 2)
    # rank-1 defect, dimH 1: one 16-byte row per word of length <= 40 in each factor
    size = (2**41 - 1) ** 2 * 16
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"caps \(40, 40\) needs {size} bytes \(budget {SIZE_BUDGET};"):
            berezin_kernel(t, (40, 40))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # caps (13, 13) is the first square cap over the budget: (2**14 - 1)**2 rows of 16 bytes
    with pytest.raises(ValueError, match="needs 4294443024 bytes"):
        berezin_kernel(t, (13, 13))


def closed_form_blocks(theta, caps):
    """Entry by entry: source basis vector ``a`` goes to ``(||a.b|| / ||a||) coeff[b]`` on ``a.b``.

    ``a.b`` is concatenation of words, or the sum of exponents of monomials.
    """
    sym = theta.model == "symmetric"
    n, ds, dt = theta.shape.n, theta.dim_source, theta.dim_target

    def basis(q):
        per = [monomials(ni, qi) if sym else enumerate_words(ni, qi) for ni, qi in zip(n, q)]
        return list(itertools.product(*per))

    def join(x, y):
        return tuple(a + b for a, b in zip(x, y)) if sym else x + y

    def sq_norm(x):
        return float(monomial_weight(x)) if sym else 1.0

    blocks = {}
    for d, coeff in theta.coeffs.items():
        for s in iter_grades(caps):
            tgrade = tuple(a + b for a, b in zip(s, d))
            if any(g > c for g, c in zip(tgrade, caps)):
                continue
            index = {x: r for r, x in enumerate(basis(tgrade))}
            src = basis(s)
            block = np.zeros((len(index) * dt, len(src) * ds), dtype=complex)
            for a, alpha in enumerate(src):
                for b, beta in enumerate(basis(d)):
                    gamma = tuple(join(x, y) for x, y in zip(alpha, beta))
                    ratio = math.sqrt(math.prod(sq_norm(g) / sq_norm(x) for g, x in zip(gamma, alpha)))
                    g = index[gamma]
                    block[g * dt : (g + 1) * dt, a * ds : (a + 1) * ds] = ratio * coeff[b]
            blocks[(s, tgrade)] = block
    return blocks


def random_symbol(rng, model, n, degrees, ds, dt):
    count = (lambda ni, q: len(monomials(ni, q))) if model == "symmetric" else (lambda ni, q: ni**q)
    coeffs = {}
    for d in degrees:
        num = math.prod(count(ni, di) for ni, di in zip(n, d))
        coeffs[d] = rng.standard_normal((num, dt, ds)) + 1j * rng.standard_normal((num, dt, ds))
    return InnerMultiplier(Shape(n), ds, dt, coeffs, model=model)


@pytest.mark.parametrize(
    "model, n, degrees, caps",
    [
        ("full", (2, 1), [(0, 0), (1, 0), (0, 2), (1, 1)], (3, 2)),
        ("full", (3,), [(1,), (2,)], (3,)),
        ("symmetric", (2, 3), [(0, 0), (1, 0), (0, 2), (2, 1)], (3, 3)),
        ("symmetric", (3,), [(1,), (3,)], (4,)),
    ],
)
def test_multiplier_blocks_match_closed_form(model, n, degrees, caps):
    theta = random_symbol(np.random.default_rng(229), model, n, degrees, ds=2, dt=3)
    blocks = theta.materialize_blocks(caps)
    oracle = closed_form_blocks(theta, caps)
    assert blocks.keys() == oracle.keys()
    for key, b in oracle.items():
        if model == "full":  # unit shift weights: the recursion only copies entries
            assert np.array_equal(blocks[key], b)
        else:
            np.testing.assert_allclose(blocks[key], b, rtol=0, atol=1e-14)
    assert validate_multiplier(theta, caps) < 1e-12


def test_index_formula_rejects_a_multiplier_of_the_other_model():
    rng = np.random.default_rng(233)
    t = ampliation([commuting_tuple(rng, 2, 2, 0.7), commuting_tuple(rng, 1, 2, 0.7)])
    sym_kb = berezin_kernel(t, (3, 3), "symmetric")
    with pytest.raises(ValueError, match="'full'-model multiplier on a 'symmetric'-model kernel"):
        index_formula_check(sym_kb, monomial_multiplier(Shape((2, 1)), 0, (1,)))
    word_kb = berezin_kernel(t, (3, 3))
    with pytest.raises(ValueError, match="'symmetric'-model multiplier on a 'full'-model kernel"):
        index_formula_check(word_kb, sym_monomial_multiplier(Shape((2, 1)), ((1, 0), (0,))))


def test_unknown_multiplier_model_is_rejected():
    text = multiplier_to_json(monomial_multiplier(Shape((2,)), 0, (1,))).replace('"full"', '"sym"')
    with pytest.raises(ValueError, match="unknown model 'sym'"):
        multiplier_from_json(text)


def test_multiplier_with_a_wrong_coefficient_count_is_rejected():
    theta = InnerMultiplier(Shape((2,)), 1, 1, {(2,): np.ones((3, 1, 1), dtype=complex)})
    with pytest.raises(ValueError, match=r"degree \(2,\) needs 4 coefficients, got 3"):
        theta.materialize_blocks((3,))

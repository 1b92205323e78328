import gc
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_normal_contraction, random_polyball_tuple, random_row_tuple
from oracle import cp_matrix, defect_map_expanded, grade_trace, min_eig, word_product_adjoint
from polyball import cp
from polyball.basis import Shape
from polyball.berezin import berezin_kernel, monomial_multiplier, multiplier_from_json, multiplier_to_json
from polyball.cp import (
    DefectNotPositiveError,
    OperatorTuple,
    ampliation,
    check_polyball,
    check_pure,
    cp_apply,
    defect_data,
    defect_map,
    direct_sum,
    spectral_norms,
    tuple_from_json,
    tuple_to_json,
)
from polyball.curvature import bounds_report, curvature_estimate
from polyball.subspaces import construct_mt, construct_nadic, subspace_from_json, subspace_to_json


def scalar_tuple(r):
    return OperatorTuple(Shape((1,)), 1, (((np.array([[r]], dtype=complex)),),))


def test_cp_apply_scalar():
    t = scalar_tuple(0.5)
    assert cp_apply(t, 0, np.array([[1.0]])) == pytest.approx(np.array([[0.25]]))


def test_cp_apply_zero_is_zero():
    rng = np.random.default_rng(7)
    t = random_row_tuple(rng, 2, 3, 0.8)
    assert np.allclose(cp_apply(t, 0, np.zeros((3, 3))), 0.0)


def test_cp_apply_matches_term_sum():
    # brute-force term-by-term oracle
    rng = np.random.default_rng(11)
    t = random_row_tuple(rng, 2, 3, 0.9)
    y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    expected = t.factors[0][0] @ y @ t.factors[0][0].conj().T
    expected = expected + t.factors[0][1] @ y @ t.factors[0][1].conj().T
    assert np.allclose(cp_apply(t, 0, y), expected, atol=1e-14)


def test_cp_apply_matches_dense_matrix_path():
    rng = np.random.default_rng(13)
    t = random_row_tuple(rng, 3, 4, 0.7)
    y = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    via_dense = (cp_matrix(t, 0) @ y.reshape(-1)).reshape(4, 4)
    assert np.allclose(cp_apply(t, 0, y), via_dense, atol=1e-12)


def test_cp_positivity_preserved():
    rng = np.random.default_rng(17)
    t = random_polyball_tuple(rng, (2, 2), (2, 3), 0.8)
    for _ in range(20):
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        x = g @ g.conj().T
        assert min_eig(cp_apply(t, 0, x)) >= -1e-10 * np.linalg.norm(x, 2)


def test_cp_trace_inequality():
    rng = np.random.default_rng(19)
    t = random_polyball_tuple(rng, (2, 3), (2, 2), 0.9)
    for i in range(t.k):
        for _ in range(25):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            x = g @ g.conj().T
            assert np.trace(cp_apply(t, i, x)).real <= t.shape.n[i] * np.trace(x).real + 1e-10


def test_defect_map_identity_exponent():
    rng = np.random.default_rng(23)
    t = random_polyball_tuple(rng, (2, 2), (2, 2), 0.8)
    y = rng.standard_normal((4, 4))
    assert np.allclose(defect_map(t, (0, 0), y), y)


def test_defect_map_scalar():
    t = scalar_tuple(0.5)
    assert defect_map(t, (1,), np.eye(1)) == pytest.approx(np.array([[0.75]]))


def test_defect_map_matches_inclusion_exclusion():
    rng = np.random.default_rng(29)
    t = random_polyball_tuple(rng, (2, 2), (2, 3), 0.9)
    y = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    for p in [(1, 0), (0, 1), (1, 1), (2, 1)]:
        a = defect_map(t, p, y)
        b = defect_map_expanded(t, p, y)
        assert np.linalg.norm(a - b, 2) < 1e-12 * max(np.linalg.norm(a, 2), 1.0)


def test_check_polyball_scalar_member():
    assert check_polyball(scalar_tuple(0.5)).member


def test_check_polyball_scalar_nonmember():
    v = check_polyball(scalar_tuple(1.5))
    assert not v.member
    assert v.worst_eig < 0


def test_check_polyball_normal_pair_matches_direct():
    rng = np.random.default_rng(31)
    a = random_normal_contraction(rng, 4, radius=0.9)
    t = OperatorTuple(Shape((1, 1)), 4, ((a,), (a.conj().T,)))
    v = check_polyball(t)
    eye = np.eye(4)
    import itertools

    direct = all(
        min_eig(defect_map(t, p, eye)) >= -1e-10 * max(np.linalg.norm(defect_map(t, p, eye), 2), 1.0)
        for p in itertools.product((0, 1), repeat=2)
    )
    assert v.member == direct


def test_check_pure_scalar():
    assert check_pure(scalar_tuple(0.9)).overall == "pure"


def test_check_pure_unitary_not_pure():
    assert check_pure(scalar_tuple(1.0)).overall == "not_pure"


def test_check_pure_random_scaled():
    rng = np.random.default_rng(37)
    t = random_polyball_tuple(rng, (2, 2), (2, 2), 0.8)
    rep = check_pure(t)
    assert rep.overall == "pure"
    assert all(it < 200 for it in rep.iterations)


def test_defect_data_scalar():
    dd = defect_data(scalar_tuple(0.5))
    assert dd.defect == pytest.approx(np.array([[0.75]]))
    assert dd.rank == 1


def test_defect_data_unitary_rank_zero():
    dd = defect_data(scalar_tuple(1.0))
    assert dd.rank == 0
    assert np.allclose(dd.defect, 0.0, atol=1e-12)


def test_defect_data_sqrt_squares_back():
    rng = np.random.default_rng(41)
    t = random_polyball_tuple(rng, (2, 2), (2, 2), 0.8)
    dd = defect_data(t)
    assert np.linalg.norm(dd.sqrt @ dd.sqrt - dd.defect, 2) < 1e-12
    gram = dd.range_basis.conj().T @ dd.range_basis
    assert np.allclose(gram, np.eye(dd.rank), atol=1e-12)


def test_defect_data_rejects_indefinite():
    t = scalar_tuple(1.5)
    with pytest.raises(DefectNotPositiveError):
        defect_data(t)


def test_one_defect_decomposition_per_tuple(monkeypatch):
    calls = []

    def spy(name, fn, key):
        def wrapped(*args, **kwargs):
            calls.append((name, key(*args)))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(cp, "_defect_step", spy("step", cp._defect_step, lambda u, i, y: (u.dimH, i, y is None)))
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name), lambda a, *rest: a.shape))
    # the ampliation forms the tuple's Delta(I) as it checks it: construction is counted too
    t = random_polyball_tuple(np.random.default_rng(43), (2, 1), (2, 3), 0.8)
    curvature_estimate(t, 3)
    bounds_report(t, 3)
    berezin_kernel(t, (2, 2))
    # the defect, two steps from I; then the membership walk's maps at p = (0, 1) and (1, 0), one step from I
    # each, with the defect at (1, 1) read from the first
    assert [key for name, key in calls if name == "step" and key[0] == 6] == [
        (6, 0, True), (6, 1, False), (6, 1, True), (6, 0, True)]
    assert [c for c in calls if c[0] == "eigh"] == [("eigh", (6, 6))]
    assert calls.count(("eigvalsh", (6, 6))) == 3  # one per p != 0
    assert check_polyball(t) is check_polyball(t) and defect_data(t) is defect_data(t)
    dd = defect_data(t)
    for a in (dd.defect, dd.sqrt, dd.range_basis):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_ampliation_reads_each_defect_once(monkeypatch):
    rng = np.random.default_rng(44)
    parts = [random_row_tuple(rng, 2, 3, 0.8) for _ in range(2)]
    calls = []
    real = cp._defect_step

    def spy(u, i, y):
        calls.append((u.dimH, i, y is None))
        return real(u, i, y)

    monkeypatch.setattr(cp, "_defect_step", spy)
    out = ampliation(parts)
    assert check_polyball(out).member
    # each part's Delta(I) once, by its membership walk; the product's once, checked and then reused by the walk,
    # which forms only the maps at p = (0, 1) and (1, 0)
    assert calls == [(3, 0, True), (3, 0, True), (9, 0, True), (9, 1, False), (9, 1, True), (9, 0, True)]


def test_membership_bits_match_a_fresh_decomposition():
    t = random_polyball_tuple(np.random.default_rng(47), (2, 2), (2, 2), 0.8)
    eye = np.eye(t.dimH, dtype=complex)
    for p, eig in check_polyball(t).eigenvalues.items():
        assert eig == np.linalg.eigvalsh((defect_map(t, p, eye) + defect_map(t, p, eye).conj().T) / 2)[0]
    d = defect_map(t, (1, 1), eye)
    assert np.array_equal(defect_data(t).defect, (d + d.conj().T) / 2)


def test_direct_sum_defect_blocks():
    rng = np.random.default_rng(43)
    t = random_row_tuple(rng, 2, 3, 0.8)
    zero = OperatorTuple(Shape((2,)), 2, ((np.zeros((2, 2)), np.zeros((2, 2))),))
    s = direct_sum(t, zero)
    d = defect_map(s, (1,), np.eye(5))
    assert np.allclose(d[3:, 3:], np.eye(2), atol=1e-14)
    assert np.allclose(d[:3, :3], defect_map(t, (1,), np.eye(3)), atol=1e-14)
    assert defect_data(s).rank == defect_data(t).rank + 2


def test_direct_sum_grade_traces_add():
    rng = np.random.default_rng(47)
    t = random_polyball_tuple(rng, (2, 2), (2, 2), 0.7)
    u = random_polyball_tuple(rng, (2, 2), (2, 2), 0.9)
    s = direct_sum(t, u)
    for q in [(0, 0), (1, 0), (2, 1), (3, 3)]:
        assert abs(grade_trace(s, q) - grade_trace(t, q) - grade_trace(u, q)) < 1e-12


def test_ampliation_single_is_identity():
    rng = np.random.default_rng(53)
    t = random_row_tuple(rng, 2, 3, 0.8)
    assert ampliation([t]) is t


def test_ampliation_scalar_pair_defect():
    r, s = 0.5, 0.7
    amp = ampliation([scalar_tuple(r), scalar_tuple(s)])
    d = defect_map(amp, (1, 1), np.eye(1))
    assert d[0, 0] == pytest.approx((1 - r**2) * (1 - s**2))


def test_ampliation_grade_traces_factor():
    rng = np.random.default_rng(59)
    a = random_row_tuple(rng, 2, 2, 0.8)
    b = random_row_tuple(rng, 3, 2, 0.6)
    amp = ampliation([a, b])
    for q1 in range(3):
        for q2 in range(3):
            lhs = grade_trace(amp, (q1, q2))
            rhs = grade_trace(a, (q1,)) * grade_trace(b, (q2,))
            assert abs(lhs - rhs) < 1e-12


def test_ampliation_rejects_nonmember():
    with pytest.raises(Exception):
        ampliation([scalar_tuple(1.5), scalar_tuple(0.5)])


def test_cross_commutation_rejected():
    rng = np.random.default_rng(61)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    with pytest.raises(ValueError, match="commute"):
        OperatorTuple(Shape((1, 1)), 3, ((0.1 * a,), (0.1 * b,)))


def test_json_roundtrip_bit_exact():
    rng = np.random.default_rng(67)
    t = random_polyball_tuple(rng, (2, 2), (2, 2), 0.8)
    u = tuple_from_json(tuple_to_json(t))
    assert u.shape.n == t.shape.n
    assert u.dimH == t.dimH
    for i in range(t.k):
        for a, b in zip(t.factors[i], u.factors[i]):
            assert np.array_equal(a, b)
    assert tuple_to_json(u) == tuple_to_json(t)


def test_json_writer_matches_per_entry_floats():
    # -0.0 and subnormals must survive: the writer reads the float parts, never rounds them
    rng = np.random.default_rng(71)
    entries = rng.standard_normal((2, 3, 3, 2))
    entries[0, 0, 0] = (-0.0, -0.0)
    entries[0, 1, 2] = (5e-324, -0.0)
    entries[1, 2, 1] = (-2.5e-310, 1e-320)
    factors = [[[[float(re), float(im)] for re, im in m.reshape(-1, 2)] for m in entries]]
    text = json.dumps({"n": [2], "dimH": 3, "factors": factors})
    t = tuple_from_json(text)
    assert tuple_to_json(t) == text
    assert np.signbit(t.factors[0][0][0, 0].real) and np.signbit(t.factors[0][0][0, 0].imag)
    assert t.factors[0][0][1, 2] == complex(5e-324, 0.0)


@pytest.mark.parametrize("enabled", [True, False])
def test_json_loaders_and_writers_restore_the_collector(monkeypatch, enabled):
    t = scalar_tuple(0.5)
    theta = monomial_multiplier(Shape((2,)), 0, (1,))
    sub = construct_mt(construct_nadic(2, 0.5), 3)
    steps = [(tuple_to_json, t, None), (multiplier_to_json, theta, None), (subspace_to_json, sub, None)]
    for load, text in ((tuple_from_json, tuple_to_json(t)), (multiplier_from_json, multiplier_to_json(theta)),
                       (subspace_from_json, subspace_to_json(sub))):
        steps += [(load, text, None), (load, "{", json.JSONDecodeError), (load, '{"n": null}', "'n'")]
    seen = []
    loads, dumps = json.loads, json.dumps
    monkeypatch.setattr(json, "loads", lambda *a, **kw: seen.append(gc.isenabled()) or loads(*a, **kw))
    monkeypatch.setattr(json, "dumps", lambda *a, **kw: seen.append(gc.isenabled()) or dumps(*a, **kw))
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for fn, arg, refusal in steps:
            if refusal is None:
                fn(arg)
            elif isinstance(refusal, str):
                with pytest.raises(ValueError, match=refusal):
                    fn(arg)
            else:
                with pytest.raises(refusal):
                    fn(arg)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert len(seen) == 12 and not any(seen)  # every payload is decoded or encoded with the collector paused


def test_word_product_adjoint_matches_explicit():
    rng = np.random.default_rng(211)
    t = random_row_tuple(rng, 2, 3, 0.9)
    word = (1, 2, 2, 1)
    explicit = np.eye(3, dtype=complex)
    for letter in word:
        explicit = explicit @ t.entry(0, letter)
    assert np.allclose(word_product_adjoint(t, 0, word), explicit.conj().T, atol=1e-14)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 4),
    rows=st.integers(1, 9),
    cols=st.integers(1, 9),
    complex_entries=st.booleans(),
    scale=st.sampled_from([1e-200, 1e-8, 1.0, 1e6, 1e150]),
    zero=st.booleans(),
)
def test_spectral_norms_match_svd(seed, count, rows, cols, complex_entries, scale, zero):
    # tall, wide and square stacks, real and complex, tiny and huge entries, all-zero members
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((count, rows, cols))
    if complex_entries:
        x = x + 1j * rng.standard_normal((count, rows, cols))
    x *= scale
    if zero:
        x[0] = 0.0
    got = spectral_norms(x)
    want = np.array([np.linalg.norm(m, 2) for m in x])
    assert got.shape == (count,)
    assert np.all(np.abs(got - want) <= 1e-12 * want)
    assert float(spectral_norms(x[-1])) == got[-1]


def test_spectral_norms_of_empty_and_non_finite_matrices():
    assert spectral_norms(np.zeros((3, 0, 4))).tolist() == [0.0, 0.0, 0.0]
    x = np.ones((3, 2, 2))
    x[1, 0, 0], x[2, 1, 1] = np.nan, np.inf
    got = spectral_norms(x)
    assert got[0] == pytest.approx(2.0, rel=1e-15) and np.isnan(got[1:]).all()


def _tied_diagonal(rng, n):
    """A Hermitian matrix with a diagonal of tied, negative and tiny entries and ``-0.0`` parts off the diagonal."""
    h = np.diag(rng.choice([0.0, 1.0, 0.5, -0.25, 0.75, 1e-300, -1e-12], size=n)).astype(complex)
    off = ~np.eye(n, dtype=bool) & (rng.random((n, n)) < 0.5)
    h[off] = complex(-0.0, -0.0)
    return h


def _column_positions(vecs):
    """The row of the single 1.0 in each column, after checking that the columns are exact unit vectors."""
    assert np.array_equal(np.abs(vecs), np.abs(vecs).astype(bool)) and not vecs.imag.any()
    assert (vecs.real.sum(axis=0) == 1.0).all()
    return vecs.real.argmax(axis=0)


def test_spectrum_of_a_diagonal_is_lapacks_without_calling_it(monkeypatch):
    rng = np.random.default_rng(61)
    cases = [_tied_diagonal(rng, int(rng.integers(1, 13))) for _ in range(300)]
    wants = [(np.linalg.eigvalsh(h), *np.linalg.eigh(h)) for h in cases]
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, lambda *a, **k: pytest.fail("LAPACK was called"))
    for h, (values, lapack_values, lapack_vecs) in zip(cases, wants):
        got = cp.hermitian_spectrum(h, vectors=True)
        assert got.vectors is None and got.positions.tolist() == cp.hermitian_spectrum(h).positions.tolist()
        assert got.values.tobytes() == np.sort(h.diagonal().real).tobytes()
        if np.abs(h).max() >= 1e-146:
            assert got.values.tobytes() == values.tobytes() == lapack_values.tobytes()
        else:  # LAPACK scales so small a matrix up and its eigenvalues back down, with rounding: ours are exact
            assert np.allclose(values, got.values, rtol=1e-15, atol=0) and lapack_values.tobytes() == values.tobytes()
        ours, lapacks = got.positions, _column_positions(lapack_vecs)
        # the same vectors up to the order among ties; ours keep the diagonal order
        for v in np.unique(values):
            tied = values == v
            assert sorted(ours[tied]) == sorted(lapacks[tied]) and list(ours[tied]) == sorted(ours[tied])


def _diagonal_tuple(rng, n, dim):
    """One-factor tuple of diagonal matrices with tied entries: its defect is diagonal, with ties and zeros."""
    entries = rng.choice([0.0, 0.5, 0.6, 0.8, 1.0], size=(n, dim)) / np.sqrt(n)
    return OperatorTuple(Shape((n,)), dim, (tuple(np.diag(e) for e in entries),))


def test_defect_data_of_a_diagonal_defect_has_lapacks_bits(monkeypatch):
    rng = np.random.default_rng(62)
    for _ in range(60):
        t = _diagonal_tuple(rng, int(rng.integers(1, 4)), int(rng.integers(1, 10)))
        vals, vecs = np.linalg.eigh(t._defect)
        clipped = np.clip(vals, 0.0, None)
        sqrt = (vecs * np.sqrt(clipped)) @ vecs.conj().T
        keep = cp.tolerance("rank", clipped)[0]
        with monkeypatch.context() as m:
            for name in ("eigh", "eigvalsh"):
                m.setattr(np.linalg, name, lambda *a, **k: pytest.fail("LAPACK was called"))
            dd = defect_data(t)
            check_polyball(t)
        assert dd.sqrt.tobytes() == sqrt.tobytes()
        assert dd.rank == np.count_nonzero(keep)
        lapack = vecs[:, [j for j in np.argsort(clipped)[::-1] if keep[j]]]
        assert sorted(_column_positions(dd.range_basis)) == sorted(_column_positions(lapack))


def test_a_defect_off_the_diagonal_makes_the_lapack_calls_of_before(monkeypatch):
    t = random_polyball_tuple(np.random.default_rng(63), (2, 1), (2, 3), 0.8)
    calls = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *rest, real=real, name=name:
                            calls.append((name, a.shape)) or real(a, *rest))
    check_polyball(t)
    defect_data(t)
    # one eigvalsh per p != 0 of the membership test, then the defect's eigendecomposition
    assert calls == [("eigvalsh", (6, 6))] * 3 + [("eigh", (6, 6))]


_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 0.3, -2.0])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 3), dim=st.integers(1, 6))
def test_transfer_of_the_identity_has_the_bits_of_the_product_by_it(data, n, dim):
    # sparse entries with signed zeros in both parts: the product by I must not be what sets a bit
    parts = st.lists(_ENTRIES, min_size=2 * dim * dim, max_size=2 * dim * dim)
    mats = [np.array(data.draw(parts)).view(complex).reshape(dim, dim) for _ in range(n)]
    t = OperatorTuple(Shape((n,)), dim, (tuple(mats),))
    eye = np.eye(dim, dtype=complex)
    assert cp_apply(t, 0, None).tobytes() == cp_apply(t, 0, eye).tobytes()
    assert cp.cp_apply_adjoint(t, 0, None).tobytes() == cp.cp_apply_adjoint(t, 0, eye).tobytes()
    assert defect_map(t, (2,)).tobytes() == defect_map(t, (2,), eye).tobytes()


@pytest.mark.parametrize("n, dims, seed", [((2,), (4,), 64), ((2, 1), (2, 3), 65), ((1, 2, 1), (2, 2, 2), 66)])
def test_membership_walk_has_the_bits_of_each_defect_map(n, dims, seed):
    t = random_polyball_tuple(np.random.default_rng(seed), n, dims, 0.8)
    t = OperatorTuple(t.shape, t.dimH, t.factors)  # a fresh tuple: the walk forms the defect itself
    maps = list(t._membership_maps())
    assert [p for p, _ in maps] == list(itertools.product((0, 1), repeat=t.k))
    eye = np.eye(t.dimH, dtype=complex)
    for p, h in maps:
        if any(p):
            assert h.tobytes() == cp.herm(defect_map(t, p, eye)).tobytes(), p
        else:
            assert h is None
    assert maps[-1][1] is t._defect

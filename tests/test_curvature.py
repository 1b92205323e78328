import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_polyball_tuple, random_row_tuple
from oracle import defect_product_traces, grade_trace, grade_trace_table_walk
from polyball import curvature
from polyball.basis import Shape
from polyball.cp import OperatorTuple, ampliation, cp_apply_power, defect_data
from polyball.curvature import (
    _box_sums,
    bounds_report,
    curvature_estimate,
    grade_trace_table,
)


def scalar_tuple(r):
    return OperatorTuple(Shape((1,)), 1, (((np.array([[r]], dtype=complex)),),))


def zero_tuple(n, d):
    return OperatorTuple(Shape((n,)), d, ((tuple(np.zeros((d, d)) for _ in range(n))),))


def test_grade_trace_zero_tuple():
    t = zero_tuple(2, 3)
    assert grade_trace(t, (0,)) == pytest.approx(3.0)
    assert grade_trace(t, (1,)) == pytest.approx(0.0)
    assert grade_trace(t, (4,)) == pytest.approx(0.0)


def test_grade_trace_scalar_closed_form():
    r = 0.6
    t = scalar_tuple(r)
    for q in range(6):
        assert grade_trace(t, (q,)) == pytest.approx((1 - r**2) * r ** (2 * q))


def test_grade_trace_table_matches_single_calls():
    rng = np.random.default_rng(71)
    t = random_polyball_tuple(rng, (2, 2), (2, 2), 0.8)
    table = grade_trace_table(t, (3, 3))
    for q, v in table.items():
        assert v == pytest.approx(grade_trace(t, q), abs=1e-13)


def test_grade_trace_matches_partial_sum_identity():
    # sum_{s<=q} Phi^s(defect) = (id - Phi_1^{q_1+1}) o ... o (id - Phi_k^{q_k+1})(I), exactly
    rng = np.random.default_rng(73)
    t = random_polyball_tuple(rng, (2, 2), (2, 2), 0.7)
    dd = defect_data(t)
    q = (2, 3)
    total = np.zeros((t.dimH, t.dimH), dtype=complex)
    for s1 in range(q[0] + 1):
        for s2 in range(q[1] + 1):
            y = cp_apply_power(t, 0, dd.defect, s1)
            y = cp_apply_power(t, 1, y, s2)
            total += y
    z = np.eye(t.dimH, dtype=complex)
    for i, qi in enumerate(q):
        z = z - cp_apply_power(t, i, z, qi + 1)
    assert np.linalg.norm(total - z, 2) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    qmax=st.lists(st.integers(0, 5), min_size=3, max_size=3),
    norm=st.floats(0.3, 0.95),
    symmetric=st.booleans(),
)
def test_duality_table_matches_the_walk(seed, n, qmax, norm, symmetric):
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in rng.integers(1, 4, len(n)))
    t = random_polyball_tuple(rng, tuple(n), dims, norm)
    box = tuple(qmax[: t.k])
    if symmetric:
        table = grade_trace_table(t, box, "symmetric")
        # binomial grade dimensions, written out apart from the truncation under test
        walk = grade_trace_table_walk(t, box, lambda q: math.prod(math.comb(qi + ni - 1, ni - 1)
                                                                  for ni, qi in zip(t.shape.n, q)))
    else:
        table = grade_trace_table(t, box)
        walk = grade_trace_table_walk(t, box)
    assert list(table) == list(walk)  # same grades, lexicographic
    for q, v in walk.items():
        assert table[q] == pytest.approx(v, rel=1e-12, abs=0.0)
        assert table.array[q] == table[q]


def test_duality_table_on_a_non_cubic_box():
    rng = np.random.default_rng(97)
    t = random_polyball_tuple(rng, (2, 1, 3), (2, 3, 2), 0.8)
    table = grade_trace_table(t, (3, 5, 2))
    assert table.array.shape == table.traces.shape == (4, 6, 3)
    for q, v in grade_trace_table_walk(t, (3, 5, 2)).items():
        assert table[q] == pytest.approx(v, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n, dims, q_max", [((2,), (3,), 8), ((2, 2), (2, 2), 6), ((1, 2, 1), (2, 2, 2), 4)])
def test_box_sums_are_the_defect_product_traces(n, dims, q_max):
    t = random_polyball_tuple(np.random.default_rng(101), n, dims, 0.7)
    sums = _box_sums(grade_trace_table(t, (q_max,) * t.k).traces)
    assert sums == pytest.approx(defect_product_traces(t, q_max), rel=1e-12, abs=0.0)


def test_grade_table_makes_order_q_to_the_half_k_map_applications(monkeypatch):
    # n (1,1,1), qmax 20: the per-lattice-point walk makes 9260 applications
    rng = np.random.default_rng(103)
    t = random_polyball_tuple(rng, (1, 1, 1), (2, 2, 1), 0.8)
    calls = {"forward": 0, "adjoint": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(curvature, "cp_apply", counted("forward", curvature.cp_apply))
    monkeypatch.setattr(curvature, "cp_apply_adjoint", counted("adjoint", curvature.cp_apply_adjoint))
    grade_trace_table(t, (20, 20, 20))
    assert calls["forward"] + calls["adjoint"] <= 21**2 + 21


def test_curvature_estimate_zero_tuple():
    est = curvature_estimate(zero_tuple(2, 3), 4)
    assert est.estimate == pytest.approx(0.0)
    assert est.corner_seq[0] == pytest.approx(3.0)
    assert all(v == pytest.approx(0.0) for v in est.corner_seq[1:])


def test_curvature_estimate_scalar_closed_form():
    r = 0.5
    est = curvature_estimate(scalar_tuple(r), 6)
    assert est.estimate == pytest.approx((1 - r**2) * r**12)
    assert est.monotone_ok
    # defect-product route: trace[(id - Phi^{q+1})(I)] / (1 + ... + 1) with n=1
    for qq, v in enumerate(est.defect_product_seq):
        expected = (1 - r ** (2 * (qq + 1))) / (qq + 1)
        assert v == pytest.approx(expected)


def test_curvature_estimate_monotone_per_coordinate():
    rng = np.random.default_rng(79)
    t = random_polyball_tuple(rng, (2, 3), (2, 2), 0.9)
    est = curvature_estimate(t, 3)
    for q, x in est.grade_values.items():
        for i in range(2):
            up = tuple(v + (1 if j == i else 0) for j, v in enumerate(q))
            if up in est.grade_values:
                assert est.grade_values[up] <= x + 1e-12


def test_curvature_ampliation_factors_per_grade():
    rng = np.random.default_rng(83)
    a = random_row_tuple(rng, 2, 2, 0.7)
    b = random_row_tuple(rng, 2, 2, 0.8)
    amp = ampliation([a, b])
    ta = grade_trace_table(a, (4,))
    tb = grade_trace_table(b, (4,))
    tab = grade_trace_table(amp, (4, 4))
    for (q1, q2), v in tab.items():
        assert abs(v - ta[(q1,)] * tb[(q2,)]) < 1e-12


def test_bounds_report_scalar():
    rep = bounds_report(scalar_tuple(0.5), q_max=4)
    assert 0.0 <= rep.estimate <= rep.defect_trace <= rep.rank
    assert rep.defect_trace == pytest.approx(0.75)
    assert rep.rank == 1


def test_bounds_report_random():
    rng = np.random.default_rng(89)
    for _ in range(3):
        t = random_polyball_tuple(rng, (2, 2), (2, 2), 0.8)
        rep = bounds_report(t, q_max=4)
        assert 0.0 - 1e-12 <= rep.estimate <= rep.defect_trace + 1e-10
        assert rep.defect_trace <= rep.rank + 1e-10


def test_membership_failure_raises():
    from polyball.cp import MembershipError

    bad = OperatorTuple(Shape((1,)), 1, (((np.array([[1.5]], dtype=complex)),),))
    with pytest.raises(MembershipError):
        curvature_estimate(bad, 3)


def test_cesaro_distance_to_limit_nonincreasing_scalar():
    r = 0.5
    est = curvature_estimate(scalar_tuple(r), 8)
    dists = [abs(c - 0.0) for c in est.cesaro_seq]
    assert all(a >= b - 1e-15 for a, b in zip(dists, dists[1:]))


def test_formula_spread_reported_and_shrinks():
    r = 0.5
    small = curvature_estimate(scalar_tuple(r), 2)
    large = curvature_estimate(scalar_tuple(r), 8)
    assert large.formula_spread < small.formula_spread
    assert large.formula_spread >= 0

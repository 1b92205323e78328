"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion; every tolerance is pinned here, nothing is calibrated later.
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_polyball_tuple, random_row_tuple
from oracle import creation_op, op_block, partial_sum, universal_factorial_form_value
from polyball.basis import Shape, iter_grades
from polyball.berezin import (
    InnerMultiplier,
    berezin_kernel,
    connection_identity,
    index_formula_check,
    monomial_multiplier,
)
from polyball.cp import ampliation, cp_apply, direct_sum
from polyball.curvature import curvature_estimate, grade_trace_table, subspace_curvature
from polyball.fock import FockTruncation
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
    tensor_subspace,
    uncountable_family,
    zero_subspace,
)
from polyball.symmetric import (
    SymFockTruncation,
    coordinate_multiple_subspace,
    sym_grade_dim,
)


def _report(num, text):
    print(f"PASS [criterion {num}] {text}")


def test_criterion_01_universal_model_curvature():
    start = time.monotonic()
    m = 3
    ft = FockTruncation(Shape((2, 3), caps=(8, 8)), coeff_dim=m)
    est = subspace_curvature(zero_subspace(ft), 8)
    for q in iter_grades((8, 8)):
        assert est.exact_values[q] == m
    assert est.estimate == float(m)
    assert est.exact_limit == m
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(1, f"universal model: every grade value is exactly {m} ({elapsed * 1e3:.0f} ms)")


def test_criterion_02_prescribed_curvature_family():
    start = time.monotonic()
    cases = {0.25: 0.875, 0.5: 0.75, 0.3: 0.75}
    for t, omega in cases.items():
        sub = uncountable_family(t, omega, caps=(12, 12), n_terms=20)
        est = subspace_curvature(sub, 12)
        exp1 = construct_nadic(2, 1 - omega, 20)
        target2 = 1 - (1 - Fraction(t)) / Fraction(omega)
        exp2 = construct_nadic(2, float(target2), 20)
        assert exp1.tail == 0  # omega chosen dyadic, factor one is exact
        k_n = exp2.exponents[-1]
        assert abs(float(est.exact_limit) - t) <= 2.0 ** (-k_n)
        # per-grade closed form from the digit data, exact
        for q in iter_grades((12, 12)):
            closed = 1 - partial_sum(exp1, q[0]) * partial_sum(exp2, q[1])
            assert est.exact_values[q] == closed
            assert est.grade_values[q] == float(closed)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report(2, f"prescribed-curvature family matches digit closed forms ({elapsed:.2f} s)")


def test_criterion_03_connection_identity_random_pure():
    rng = np.random.default_rng(2025)
    worst = 0.0
    shapes = [((2, 2), (2, 3)), ((2, 2), (2, 2)), ((2, 2), (3, 2)), ((2, 2), (2, 2)), ((2, 2), (2, 3))]
    tuples = [random_polyball_tuple(rng, n, dims, 0.6) for n, dims in shapes]
    tuples += [random_row_tuple(rng, 2, d, 0.6) for d in (3, 4, 5, 6, 6)]
    assert len(tuples) == 10
    for t in tuples:
        caps = (6,) * t.k
        kb = berezin_kernel(t, caps)
        for q in iter_grades((3,) * t.k):
            _, _, resid = connection_identity(kb, q)
            worst = max(worst, resid)
    assert worst < 1e-8
    _report(3, f"connection identity residual {worst:.2e} < 1e-8 over 10 pure tuples")


def test_criterion_04_additivity_and_multiplicativity():
    rng = np.random.default_rng(2026)
    t = random_polyball_tuple(rng, (2, 2), (2, 2), 0.7)
    u = random_polyball_tuple(rng, (2, 2), (2, 3), 0.8)
    s = direct_sum(t, u)
    tab_t = grade_trace_table(t, (4, 4))
    tab_u = grade_trace_table(u, (4, 4))
    tab_s = grade_trace_table(s, (4, 4))
    worst_add = max(abs(tab_s[q] - tab_t[q] - tab_u[q]) for q in tab_s)
    assert worst_add < 1e-12
    a = random_row_tuple(rng, 2, 3, 0.7)
    b = random_row_tuple(rng, 3, 2, 0.8)
    amp = ampliation([a, b])
    tab_a = grade_trace_table(a, (4,))
    tab_b = grade_trace_table(b, (4,))
    tab_amp = grade_trace_table(amp, (4, 4))
    worst_mul = max(abs(tab_amp[q] - tab_a[(q[0],)] * tab_b[(q[1],)]) for q in tab_amp)
    assert worst_mul < 1e-12
    _report(4, f"additivity {worst_add:.2e} and ampliation factorization {worst_mul:.2e} < 1e-12")


def test_criterion_05_complement_identity_exact():
    subs = [
        construct_mt(construct_nadic(2, 0.5), 6),
        construct_mt(construct_nadic(2, 0.3, 6), 6),
        construct_mt(construct_nadic(3, 0.4, 6), 5),
        cur0_subspace(2, 6),
        finite_codim_subspace((2, 2), (5, 5), 2, dim_e=2),
        tensor_subspace([construct_mt(construct_nadic(2, 0.25), 5), cur0_subspace(2, 5)]),
        uncountable_family(0.4, 0.75, (6, 6)),
        full_subspace(FockTruncation(Shape((2, 3), caps=(4, 4)), coeff_dim=3)),
        zero_subspace(FockTruncation(Shape((2,), caps=(6,)), coeff_dim=2)),
        coordinate_multiple_subspace(SymFockTruncation(Shape((3,), caps=(6,))), 0, 1),
    ]
    for sub in subs:
        ft = sub.truncation
        dim_e = ft.coeff_dim
        for q in ft.grades:
            t_m = sub.grade_trace_exact(q)
            gd = ft.word_dim(q)
            assert Fraction(t_m, gd) + Fraction(dim_e * gd - t_m, gd) == dim_e
    _report(5, f"complement identity exact on {len(subs)} constructed subspaces, all grades")


def test_criterion_06_tensor_curvature_law():
    for t1, t2 in [(0.5, 0.25), (0.3, 0.5), (0.25, 0.25)]:
        m1 = construct_mt(construct_nadic(2, t1, 12), 6)
        m2 = construct_mt(construct_nadic(2, t2, 12), 6)
        sub = tensor_subspace([m1, m2])
        c1 = subspace_curvature(m1, 6).exact_values
        c2 = subspace_curvature(m2, 6).exact_values
        c = subspace_curvature(sub, 6).exact_values
        for q in iter_grades((6, 6)):
            assert c[q] == 1 - (1 - c1[(q[0],)]) * (1 - c2[(q[1],)])
    _report(6, "tensor law 1 - (1-c1)(1-c2) exact per grade for three digit pairs")


def test_criterion_07_infinite_codimension_zero_curvature():
    q_max = 10
    sub = cur0_subspace(2, q_max)
    est = subspace_curvature(sub, q_max)
    for q in range(q_max + 1):
        assert est.exact_values[(q,)] == Fraction(1, 2**q)
    assert est.estimate <= 2.0**-q_max
    assert est.exact_limit == 0
    _report(7, "single-ladder complement: per-grade values 1, 1/2, 1/4, ... exactly")


def test_criterion_08_beurling_discrimination():
    positives = [
        construct_mt(construct_nadic(2, 0.5), 5),
        construct_mt(construct_nadic(2, 0.25), 5),
        construct_mt(construct_nadic(3, 0.4, 4), 4),
        tensor_subspace([construct_mt(construct_nadic(2, 0.5), 4), construct_mt(construct_nadic(2, 0.25), 4)]),
        zero_subspace(FockTruncation(Shape((2, 2), caps=(3, 3)))),
    ]
    for sub in positives:
        v = beurling_check(sub)
        assert v.positive, f"{sub.kind} unexpectedly failed"
    neg = beurling_check(bidisc_difference_subspace((5, 5)))
    assert not neg.positive
    assert neg.min_eigenvalue < -1e-3
    _report(8, f"positivity holds on inner-built fixtures; difference subspace fails "
               f"(min eigenvalue {neg.min_eigenvalue:.4f})")


def test_criterion_09_symmetric_model():
    # grade dimensions against multiset enumeration
    for n in range(1, 5):
        for q in range(11):
            count = sum(1 for _ in itertools.combinations_with_replacement(range(n), q))
            assert sym_grade_dim(n, q) == count
    # universal per-grade ratio via the word-to-monomial oracle, exact arithmetic
    n = 3
    for q in range(9):
        total = Fraction(0)
        for word in itertools.product(range(n), repeat=q):
            exponents = [0] * n
            weight = Fraction(1)
            for deg, letter in enumerate(word):
                weight *= Fraction(exponents[letter] + 1, deg + 1)
                exponents[letter] += 1
            total += weight
        assert total == sym_grade_dim(n, q)
        assert Fraction(total, sym_grade_dim(n, q)) == 1
    # compressed-shift counting identity, exact to 1e-12
    for n in (2, 3):
        sf = SymFockTruncation(Shape((n,), caps=(4,)))
        ops = {j: creation_op(sf, 0, j) for j in range(1, n + 1)}
        for q in range(1, 5):
            for s in range(1, q + 1):
                total_blk = None
                proj = np.eye(sf.dim((q,)), dtype=complex)
                for word in itertools.product(range(1, n + 1), repeat=s):
                    op = None
                    for letter in reversed(word):
                        op = ops[letter] if op is None else ops[letter] @ op
                    blk = op_block(op, (q - s,), (q,))
                    contrib = blk.conj().T @ proj @ blk
                    total_blk = contrib if total_blk is None else total_blk + contrib
                ratio = sym_grade_dim(n, q) / sym_grade_dim(n, q - s)
                assert np.linalg.norm(total_blk - ratio * np.eye(sf.dim((q - s,))), 2) < 1e-12
    # factorial-form sequence for the universal single-factor case
    q = 50
    assert abs(universal_factorial_form_value((1,), q) - 1) <= 1 / q + 1e-15
    _report(9, "symmetric grade dims, universal ratio 1, counting identity, factorial form")


def test_criterion_10_index_formulas():
    # word model: suffix subspace fixture
    sub = construct_mt(construct_nadic(2, 0.5), 4)
    t = compression_tuple(sub)
    kb = berezin_kernel(t, (4,))
    theta = monomial_multiplier(Shape((2,)), 0, (1,))
    chk = index_formula_check(kb, theta)
    assert chk.residual < 1e-8
    assert chk.lhs == pytest.approx(0.5, abs=1e-9)
    # word model: two-factor monomial fixture
    ft2 = FockTruncation(Shape((1, 1), caps=(4, 4)))
    sub2 = GradedSubspace(
        ft2, "basis",
        grade_bases={q: np.eye(1, dtype=complex) for q in ft2.grades if q[0] >= 1},
    )
    t2 = compression_tuple(sub2)
    kb2 = berezin_kernel(t2, (4, 4))
    chk2 = index_formula_check(kb2, monomial_multiplier(Shape((1, 1)), 0, (1,)))
    assert chk2.residual < 1e-8
    # symmetric model: same fixture through the constrained kernel
    sf = SymFockTruncation(Shape((1, 1), caps=(4, 4)))
    sub3 = coordinate_multiple_subspace(sf, 0, 1)
    t3 = compression_tuple(sub3)
    kb3 = berezin_kernel(t3, (4, 4), "symmetric")
    from polyball.symmetric import sym_monomial_multiplier

    chk3 = index_formula_check(kb3, sym_monomial_multiplier(Shape((1, 1)), ((1,), (0,))))
    assert chk3.residual < 1e-8
    assert abs(chk2.lhs - chk3.lhs) < 1e-8 and abs(chk2.rhs - chk3.rhs) < 1e-8
    # zero multiplier: both formulas reduce to curv = rank, exactly
    ft_m = FockTruncation(Shape((2,), caps=(4,)), coeff_dim=2)
    t4 = compression_tuple(zero_subspace(ft_m))
    kb4 = berezin_kernel(t4, (4,))
    chk4 = index_formula_check(kb4, InnerMultiplier(Shape((2,)), 1, 2, {}))
    assert chk4.lhs == chk4.rhs == float(kb4.defect.rank) == 2.0
    sf_m = SymFockTruncation(Shape((2,), caps=(4,)))
    t5 = compression_tuple(zero_subspace(sf_m))
    kb5 = berezin_kernel(t5, (4,), "symmetric")
    chk5 = index_formula_check(kb5, InnerMultiplier(Shape((2,)), 1, 1, {}, model="symmetric"))
    assert chk5.lhs == chk5.rhs == float(kb5.defect.rank) == 1.0
    _report(10, "index formulas agree on monomial fixtures; zero multiplier gives curv = rank")


def test_criterion_11_property_suite():
    rng = np.random.default_rng(2027)
    violations = 0
    # monotonicity per coordinate with 1e-12 slack
    for _ in range(4):
        t = random_polyball_tuple(rng, (2, 2), (2, 2), rng.uniform(0.5, 0.9))
        est = curvature_estimate(t, 3)
        for q, x in est.grade_values.items():
            for i in range(2):
                up = tuple(v + (1 if j == i else 0) for j, v in enumerate(q))
                if up in est.grade_values and est.grade_values[up] > x + 1e-12:
                    violations += 1
        # bounds chain
        from polyball.cp import defect_data

        dd = defect_data(t)
        tr = float(np.trace(dd.defect).real)
        if not (0.0 <= est.estimate + 1e-12 and est.estimate <= tr + 1e-10 and tr <= dd.rank + 1e-10):
            violations += 1
    # trace inequality on 100 random PSD arguments
    t = random_polyball_tuple(rng, (2, 3), (2, 2), 0.9)
    for _ in range(100):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        x = g @ g.conj().T
        for i in range(t.k):
            lhs = float(np.trace(cp_apply(t, i, x)).real)
            if lhs > t.shape.n[i] * float(np.trace(x).real) + 1e-10:
                violations += 1
    assert violations == 0
    _report(11, "monotonicity, bounds chain, and trace inequality: zero violations")

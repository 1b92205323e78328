"""Positivity tests on the interior box: bit-equal to the full-box oracle, smaller, and as strict."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import commuting_tuple, random_polyball_tuple
from oracle import defect_shift_composed, interior_verdict, op_identity
from polyball.basis import Shape
from polyball.berezin import BerezinKernel, berezin_kernel, has_characteristic_function
from polyball.cli import main
from polyball.cp import SIZE_BUDGET, OperatorTuple, ampliation
from polyball.fock import GradedOperator, interior_box, truncation_for
from polyball.subspaces import (
    GradedSubspace,
    beurling_check,
    bidisc_difference_subspace,
    construct_mt,
    construct_nadic,
    cur0_subspace,
    finite_codim_subspace,
    span_subspace,
    tensor_subspace,
    uncountable_family,
)
from polyball.symmetric import coordinate_multiple_subspace

CAPS = st.lists(st.integers(0, 3), min_size=1, max_size=2)


def full_box_oracle(d: GradedOperator):
    """``(positive, min_eigenvalue, interior grade count)`` of a full-box defect, by the composed route."""
    interior = d.interior_grades()
    v = interior_verdict(d, interior)
    assert v.min_eigenvalue == d.min_eig_interior()
    return v.positive, v.min_eigenvalue, len(interior)


# -- the characteristic-function test ---------------------------------------------------


def random_kernel(model, caps, seed):
    rng = np.random.default_rng(seed)
    if model == "symmetric":
        parts = [commuting_tuple(rng, 2, 2, 0.8) for _ in caps]
        return berezin_kernel(parts[0] if len(parts) == 1 else ampliation(parts), tuple(caps), "symmetric")
    n = tuple(int(v) for v in rng.integers(1, 3, len(caps)))
    return berezin_kernel(random_polyball_tuple(rng, n, (2,) * len(caps), 0.8), tuple(caps))


@settings(max_examples=30, deadline=None)
@given(model=st.sampled_from(["full", "symmetric"]), caps=CAPS, seed=st.integers(0, 2**32 - 1))
@example(model="full", caps=[0, 3], seed=0)
@example(model="symmetric", caps=[2, 0], seed=1)
def test_char_function_on_the_interior_box_is_the_full_box_verdict(model, caps, seed):
    kb = random_kernel(model, caps, seed)
    positive, lo, count = full_box_oracle(
        defect_shift_composed(op_identity(kb.truncation) - kb.kk_star_full()))
    v = has_characteristic_function(kb)
    assert (v.positive, v.min_eigenvalue) == (positive, lo)
    box = interior_box(kb.truncation)
    if box is None:  # a zero cap: no interior, the empty verdict
        assert 0 in caps and count == 0
        assert (v.positive, v.min_eigenvalue) == (True, 0.0)
    else:
        assert count == len(box.grades)


# -- the Beurling test ------------------------------------------------------------------


def random_grade_bases(ft, rng):
    """Orthonormal bases of random rank on every grade; not shift invariant, so the defect can be negative."""
    bases = {}
    for q in ft.grades:
        dim = ft.dim(q)
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rank = int(rng.integers(0, dim + 1))
        if rank:
            bases[q] = np.linalg.qr(m)[0][:, :rank]
    return bases


def random_subspace(kind, model, caps, seed):
    rng = np.random.default_rng(seed)
    k = len(caps)
    ft = truncation_for(model, Shape((2,) * k, caps=tuple(caps)), int(rng.integers(1, 3)))
    if kind == "structured":
        if model == "symmetric":
            return coordinate_multiple_subspace(ft, int(rng.integers(k)), int(rng.integers(1, 3)))
        if rng.integers(2):
            return finite_codim_subspace((2,) * k, caps, int(rng.integers(0, 3)), ft.coeff_dim)
        exps = [construct_nadic(2, float(rng.uniform(0.05, 0.95)), 4) for _ in caps]
        parts = [construct_mt(e, c) if e.exponents[0] <= c else cur0_subspace(2, c) for e, c in zip(exps, caps)]
        return parts[0] if k == 1 else tensor_subspace(parts)
    if kind == "basis":
        return GradedSubspace(ft, "basis", grade_bases=random_grade_bases(ft, rng))
    if kind == "span":
        cols = int(rng.integers(1, 4))
        return span_subspace(ft, rng.standard_normal((ft.total_dim, cols)) + 1j * rng.standard_normal((ft.total_dim, cols)))
    return bidisc_difference_subspace(tuple(max(c, 1) for c in caps) * (3 - k))


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["structured", "basis", "span", "bidisc"]),
    model=st.sampled_from(["full", "symmetric"]),
    caps=CAPS,
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="structured", model="full", caps=[3, 0], seed=0)
@example(kind="span", model="symmetric", caps=[0], seed=1)
@example(kind="basis", model="full", caps=[0, 2], seed=2)
def test_beurling_on_the_interior_box_is_the_full_box_verdict(kind, model, caps, seed):
    sub = random_subspace(kind, model, caps, seed)
    positive, lo, count = full_box_oracle(defect_shift_composed(sub.projection()))
    if 0 in sub.truncation.shape.caps:
        with pytest.raises(ValueError, match="caps too small"):
            beurling_check(sub)
        return
    v = beurling_check(sub)
    assert (v.positive, v.min_eigenvalue, v.residual_grades) == (positive, lo, count)


# -- memory ------------------------------------------------------------------------------


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_char_function_peaks_below_the_full_box_operator():
    # caps (4, 4): the full box has 2025 rows, the interior box 900
    rng = np.random.default_rng(41)
    kb = berezin_kernel(ampliation([commuting_tuple(rng, 2, 3, 0.8), commuting_tuple(rng, 2, 3, 0.8)]), (4, 4), "symmetric")
    kk_bytes = sum(b.nbytes for b in kb.kk_star_full().blocks.values())
    assert interior_box(kb.truncation).total_dim == 900
    assert traced_peak(lambda: has_characteristic_function(kb)) < 0.75 * kk_bytes


def test_beurling_peaks_near_one_full_box_projection():
    sub = uncountable_family(0.3, 0.75, (5, 5))
    proj_bytes = sum(b.nbytes for b in sub.projection().blocks.values())
    assert traced_peak(lambda: beurling_check(sub)) < 1.5 * proj_bytes


# -- refusals ----------------------------------------------------------------------------


def test_char_function_refuses_an_interior_over_the_budget(monkeypatch):
    # caps (8, 8): the kernel is 2.6 MB, but the interior box (7, 7) has 11664 rows, 16 * 11664**2 bytes dense
    rng = np.random.default_rng(41)
    kb = berezin_kernel(ampliation([commuting_tuple(rng, 2, 3, 0.8), commuting_tuple(rng, 2, 3, 0.8)]), (8, 8), "symmetric")
    assert interior_box(kb.truncation).total_dim == 11664
    formed = []
    monkeypatch.setattr(BerezinKernel, "kk_star_full", lambda self, box=None: formed.append(box))
    with pytest.raises(ValueError, match=rf"interior caps \(7, 7\) needs {16 * 11664**2} bytes \(budget {SIZE_BUDGET};"):
        has_characteristic_function(kb)
    assert formed == []


ONE_FACTOR = OperatorTuple(Shape((2,)), 1, ((np.full((1, 1), 0.5 + 0j),) * 2,))


def test_huge_caps_refusal_names_the_caps_and_the_budget():
    # (2**20001 - 1) rows of 16 bytes: a size of more than 6000 decimal digits
    size = (2**20001 - 1) * 16
    with pytest.raises(ValueError, match=rf"caps \(20000,\) needs at least 2\*\*{size.bit_length() - 1} bytes "
                                         rf"\(budget {SIZE_BUDGET};"):
        berezin_kernel(ONE_FACTOR, (20000,))


@pytest.mark.parametrize("kind", ["intertwine", "connection"])
def test_huge_caps_is_invalid_input_with_the_budget(kind, tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"n": [2], "dimH": 1, "factors": [[[[0.5, 0.0]], [[0.5, 0.0]]]]}))
    code = main(["check", kind, "--input", str(path), "--caps", "20000"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    payload = json.loads(captured.err)
    assert payload["error"] == "invalid-input"
    assert "caps (20000,)" in payload["reason"] and f"budget {SIZE_BUDGET}" in payload["reason"]

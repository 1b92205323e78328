"""The one size budget: every dense route is sized from what it forms, before it forms it."""

import json
import re
import tracemalloc

import numpy as np
import pytest

from conftest import commuting_tuple, random_polyball_tuple
from oracle import cp_matrix
from polyball import cp
from polyball.basis import Shape
from polyball.berezin import InnerMultiplier, berezin_kernel, has_characteristic_function
from polyball.cli import main
from polyball.cp import SIZE_BUDGET, OperatorTuple, ampliation
from polyball.fock import defect_shift, interior_box, truncation_for
from polyball.subspaces import beurling_check, bidisc_difference_subspace, uncountable_family
from polyball.symmetric import curv_c_estimate


def predicted_bytes(monkeypatch, route):
    """The byte count ``route`` names when every size is over the budget."""
    with monkeypatch.context() as m:
        m.setattr(cp, "SIZE_BUDGET", 0)
        with pytest.raises(ValueError, match=r"needs \d+ bytes \(budget 0;") as info:
            route()
    return int(re.search(r"needs (\d+) bytes", str(info.value)).group(1))


def nbytes(blocks):
    return sum(b.nbytes for b in blocks.values())


@pytest.mark.parametrize("model", ["full", "symmetric"])
def test_kernel_and_char_function_sizes_are_what_they_form(model, monkeypatch):
    rng = np.random.default_rng(3)
    if model == "symmetric":
        t = ampliation([commuting_tuple(rng, 2, 2, 0.8), commuting_tuple(rng, 2, 2, 0.8)])
    else:
        t = random_polyball_tuple(rng, (2, 1), (2, 2), 0.8)
    caps = (3, 2)
    kb = berezin_kernel(t, caps, model)
    assert predicted_bytes(monkeypatch, lambda: berezin_kernel(t, caps, model)) == nbytes(kb.blocks)
    box = interior_box(kb.truncation)
    dense = defect_shift(kb.kk_star_full(box)).to_dense(box.grades, hermitian=True)
    predicted = predicted_bytes(monkeypatch, lambda: has_characteristic_function(kb))
    assert predicted == nbytes(kb.kk_star_full(box).blocks) == dense.nbytes


@pytest.mark.parametrize("make", [lambda: uncountable_family(0.3, 0.75, (3, 3)), lambda: bidisc_difference_subspace((3, 3))],
                         ids=["uncountable", "bidisc"])
def test_beurling_size_is_its_dense_interior(make, monkeypatch):
    sub = make()
    box = interior_box(sub.truncation)
    dense = defect_shift(sub.projection(box)).to_dense(box.grades, hermitian=True)
    assert predicted_bytes(monkeypatch, lambda: beurling_check(sub)) == dense.nbytes


@pytest.mark.parametrize("model", ["full", "symmetric"])
def test_multiplier_size_is_its_blocks(model, monkeypatch):
    # two symbol degrees on two factors, with coefficient spaces of dimension 2 and 3
    n, ds, dt = (2, 3), 2, 3
    count = truncation_for(model, Shape(n, caps=(3, 3))).word_dim
    rng = np.random.default_rng(5)
    coeffs = {d: rng.standard_normal((count(d), dt, ds)) + 0j for d in [(1, 0), (0, 2)]}
    theta = InnerMultiplier(Shape(n), ds, dt, coeffs, model=model)
    caps = (3, 2)
    assert predicted_bytes(monkeypatch, lambda: theta.materialize_blocks(caps)) == nbytes(theta.materialize_blocks(caps))


def test_transfer_matrix_size_is_its_bytes(monkeypatch):
    t = random_polyball_tuple(np.random.default_rng(9), (2,), (3,), 0.8)
    assert predicted_bytes(monkeypatch, lambda: cp_matrix(t, 0)) == cp_matrix(t, 0).nbytes == 16 * 3**4


def test_curv_c_reads_the_interior_box_size():
    # dimH 169: the caps-(2, 2) kernel truncation has 6084 rows, its interior box 1521
    rng = np.random.default_rng(7)
    t = ampliation([commuting_tuple(rng, 2, 13, 0.8), commuting_tuple(rng, 2, 13, 0.8)])
    ft = truncation_for("symmetric", Shape((2, 2), caps=(2, 2)), 169)
    assert (ft.total_dim, interior_box(ft).total_dim) == (6084, 1521)
    est = curv_c_estimate(t, 1)
    assert len(est.corner_seq) == 2


def test_a_refuted_caveat_sizes_only_the_unit_kernel(monkeypatch):
    # a budget one byte short of the caps-(4, 4) kernel that curv-c tests at qmax 3: the unit box refutes the
    # caveat from the caps-(1, 1) kernel, so no deeper kernel is built or sized
    rng = np.random.default_rng(1)
    t = ampliation([commuting_tuple(rng, 2, 3, 0.8), commuting_tuple(rng, 2, 3, 0.8)])
    kernel = predicted_bytes(monkeypatch, lambda: berezin_kernel(t, (4, 4), "symmetric"))
    monkeypatch.setattr(cp, "SIZE_BUDGET", kernel - 1)
    with pytest.raises(ValueError, match=r"Berezin kernel at caps \(4, 4\)"):
        berezin_kernel(t, (4, 4), "symmetric")
    assert curv_c_estimate(t, 3).caveats == ("characteristic function test failed; existence of the limit is unproved",)


ONE = {"n": [2], "dimH": 1, "factors": [[[[0.5, 0.0]], [[0.5, 0.0]]]]}
THETA = {"model": "full", "n": [2], "dim_source": 1, "dim_target": 1, "isometric": True,
         "blocks": [{"degree": [1], "coeffs": [[[1.0, 0.0]], [[0.0, 0.0]]]}]}


def refused(argv, capsys):
    """Exit code and reason of ``main(argv)``, which must allocate less than 1 MiB."""
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and "Traceback" not in captured.err
    payload = json.loads(captured.err)
    assert payload["error"] == "invalid-input"
    assert peak < 2**20
    return payload["reason"]


def test_beurling_over_the_budget_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "mt.json"
    assert main(["construct", "mt", "--caps", "20", "--out", str(path)]) == 0
    reason = refused(["check", "beurling", "--input", str(path)], capsys)
    # the interior box (19,) has 2**20 - 1 rows
    assert reason == (f"Beurling test on the interior caps (19,) needs {16 * (2**20 - 1) ** 2} bytes "
                      f"(budget {SIZE_BUDGET}; use smaller caps)")


def test_index_multiplier_over_the_budget_is_invalid_input(tmp_path, capsys):
    (tmp_path / "one.json").write_text(json.dumps(ONE))
    (tmp_path / "theta.json").write_text(json.dumps(THETA))
    reason = refused(["check", "index", "--input", str(tmp_path / "one.json"),
                      "--theta", str(tmp_path / "theta.json"), "--caps", "20"], capsys)
    # blocks (c) -> (c + 1) of 2**(c + 1) x 2**c entries for c < 20; the kernel alone (33.5 MB) would fit
    size = 16 * sum(2 ** (2 * c + 1) for c in range(20))
    assert reason == f"multiplier blocks at caps (20,) needs {size} bytes (budget {SIZE_BUDGET}; use smaller caps)"


@pytest.mark.parametrize("command", ["curv", "curv-c"])
def test_grade_table_over_the_budget_is_invalid_input(command, tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"n": [1, 1], "dimH": 1, "factors": [[[[0.5, 0.0]]], [[[0.5, 0.0]]]]}))
    reason = refused([command, "--input", str(path), "--qmax", "100000"], capsys)
    # the table of 100001**2 traces and the stack of 100001 adjoint iterates, twice
    size = 16 * (100001**2 + 2 * 100001)
    assert reason == f"grade table at qmax (100000, 100000) needs {size} bytes (budget {SIZE_BUDGET}; use smaller caps)"


@pytest.mark.parametrize("model", ["full", "symmetric"])
def test_cumulative_dim_is_the_sum_of_the_grade_dimensions(model):
    for n in (1, 2, 3):
        for cap in range(9):
            ft = truncation_for(model, Shape((n,), caps=(cap,)))
            assert ft.cumulative_dim(0, cap) == sum(ft.factor_dim(0, c) for c in range(cap + 1))
        ft = truncation_for(model, Shape((n, 2), caps=(3, 2)), 2)
        assert ft.total_dim == sum(ft.dim(q) for q in ft.grades)


@pytest.mark.parametrize("model", ["full", "symmetric"])
def test_sizing_a_huge_cap_computes_no_grade_dimension(model, monkeypatch):
    calls = []
    cls = type(truncation_for(model, Shape((2,), caps=(0,))))  # each model has its own factor_dim
    factor_dim = cls.factor_dim
    monkeypatch.setattr(cls, "factor_dim", lambda self, i, c: calls.append(c) or factor_dim(self, i, c))
    ft = truncation_for(model, Shape((2,), caps=(20000,)))
    assert ft.total_dim == (2**20001 - 1 if model == "full" else 20001 * 20002 // 2)
    one_factor = OperatorTuple(Shape((2,)), 1, ((np.full((1, 1), 0.5 + 0j),) * 2,))
    with pytest.raises(ValueError, match=r"Berezin kernel at caps \(20000,\) needs"):
        berezin_kernel(one_factor, (20000,), model)
    assert calls == []

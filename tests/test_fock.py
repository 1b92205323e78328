import ast
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (
    apply_cp_shift,
    creation_op,
    defect_shift_composed,
    graded_projection,
    op_block,
    op_grade_trace,
    op_identity,
    op_trace,
    vacuum_projection,
)
from polyball import fock
from polyball.basis import Shape
from polyball.fock import FockTruncation, GradedOperator, defect_shift
from polyball.symmetric import SymFockTruncation

SRC = Path(__file__).resolve().parent.parent / "src" / "polyball"


def ft_small(n=(2, 2), caps=(3, 3), cd=1):
    return FockTruncation(Shape(n, caps=caps), coeff_dim=cd)


@pytest.mark.parametrize("cls", [FockTruncation, SymFockTruncation])
@pytest.mark.parametrize("n, caps, cd", [
    ((2, 2), (3, 2), 2), ((1, 3), (4, 0), 1), ((3,), (5,), 3), ((2, 1, 2), (2, 3, 1), 0),
])
def test_total_dim_closed_form_sums_the_grade_dims(cls, n, caps, cd):
    ft = cls(Shape(n, caps=caps), cd)
    assert ft.total_dim == sum(ft.dim(q) for q in ft.grades)


def test_creation_on_vacuum():
    ft = ft_small()
    s = creation_op(ft, 0, 1)
    b = op_block(s, (0, 0), (1, 0))
    assert b.shape == (2, 1)
    assert np.allclose(b, np.array([[1.0], [0.0]]))


def test_creation_isometry_off_cap():
    ft = ft_small(cd=2)
    for i, j in [(0, 1), (0, 2), (1, 1)]:
        s = creation_op(ft, i, j)
        g = s.adjoint() @ s
        for q in ft.grades:
            if q[i] < ft.shape.caps[i]:
                assert np.allclose(op_block(g, q, q), np.eye(ft.dim(q)), atol=1e-14)
            else:
                assert np.allclose(op_block(g, q, q), 0.0, atol=1e-14)


def test_creation_cross_factor_commute():
    ft = ft_small()
    a = creation_op(ft, 0, 1)
    b = creation_op(ft, 1, 1)
    comm = a @ b - b @ a
    for q in comm.interior_grades():
        for p in ft.grades:
            assert np.linalg.norm(op_block(comm, q, p), 2) < 1e-14


def test_graded_projection_trace():
    ft = FockTruncation(Shape((2, 3), caps=(2, 2)))
    p = graded_projection(ft, (2, 1))
    assert op_trace(p).real == pytest.approx(12)


def test_projections_orthogonal():
    ft = ft_small()
    p = graded_projection(ft, (1, 0))
    q = graded_projection(ft, (0, 1))
    assert not (p @ q).blocks


def test_cp_shift_of_identity_is_off_vacuum_projection():
    ft = ft_small(cd=2)
    for i in range(2):
        phi = apply_cp_shift(op_identity(ft), i)
        expected = op_identity(ft) - vacuum_projection(ft, i)
        diff = phi - expected
        for q in diff.interior_grades():
            assert np.linalg.norm(op_block(diff, q, q), 2) < 1e-14


def test_defect_shift_of_identity_is_vacuum_projection():
    ft = ft_small(cd=3)
    d = defect_shift(op_identity(ft))
    expected = vacuum_projection(ft)
    for q in d.interior_grades():
        assert np.allclose(op_block(d, q, q), op_block(expected, q, q), atol=1e-14)


def test_cp_shift_moves_grade_traces():
    # direct block bookkeeping oracle on a random diagonal operator
    rng = np.random.default_rng(3)
    ft = ft_small()
    y = GradedOperator(
        ft,
        {(q, q): np.diag(rng.uniform(0.5, 1.5, ft.dim(q))).astype(complex) for q in ft.grades},
    )
    phi = apply_cp_shift(y, 0)
    for q in ft.grades:
        up = (q[0] + 1, q[1])
        if up[0] <= ft.shape.caps[0]:
            assert op_grade_trace(phi, up).real == pytest.approx(2 * op_grade_trace(y, q).real)


def test_counting_identity_shift_compression():
    # sum over |alpha|=s of S_alpha* P_q S_alpha = n^s P_{q-s}, blockwise
    ft = FockTruncation(Shape((2, 2), caps=(3, 3)))
    s_ops = {(i, j): creation_op(ft, i, j) for i in range(2) for j in (1, 2)}
    for q, s in [((2, 1), (1, 0)), ((2, 2), (2, 1)), ((1, 1), (1, 1))]:
        p_q = graded_projection(ft, q)
        total = GradedOperator(ft)
        words_per_factor = [
            list(itertools.product(*( [(1, 2)] * s[i] ))) for i in range(2)
        ]
        for w1 in words_per_factor[0]:
            for w2 in words_per_factor[1]:
                op = op_identity(ft)
                for letter in reversed(w1):
                    op = s_ops[(0, letter)] @ op
                for letter in reversed(w2):
                    op = s_ops[(1, letter)] @ op
                total = total + (op.adjoint() @ p_q @ op)
        scale = 2 ** s[0] * 2 ** s[1]
        target = tuple(qi - si for qi, si in zip(q, s))
        expected = scale * np.eye(ft.dim(target))
        assert np.allclose(op_block(total, target, target), expected, atol=1e-12)
        for key, b in total.blocks.items():
            if key != (target, target):
                assert np.linalg.norm(b, 2) < 1e-12


def test_margin_tracking():
    ft = ft_small()
    y = op_identity(ft)
    assert y.margin == (0, 0)
    y1 = apply_cp_shift(y, 0)
    assert y1.margin == (1, 0)
    y2 = apply_cp_shift(y1, 1)
    assert y2.margin == (1, 1)
    assert (y1 + y2).margin == (1, 1)
    assert set(y2.interior_grades()) == {q for q in ft.grades if q[0] <= 2 and q[1] <= 2}


def test_apply_cp_shift_fetches_each_shift_map_once(monkeypatch):
    sf = SymFockTruncation(Shape((2, 3), caps=(2, 2)), coeff_dim=2)
    rng = np.random.default_rng(5)

    def dense_y():
        return GradedOperator(sf, {(p, q): rng.standard_normal((sf.dim(q), sf.dim(p))) + 0j
                                   for p in sf.grades for q in sf.grades})

    keys = []
    shift_data = SymFockTruncation.shift_data
    monkeypatch.setattr(SymFockTruncation, "shift_data",
                        lambda self, i, j, q: keys.append((i, j, q)) or shift_data(self, i, j, q))
    fock.defect_shift(dense_y())
    assert keys and len(keys) == len(set(keys))
    for i in range(sf.shape.k):
        keys.clear()
        apply_cp_shift(dense_y(), i)
        assert keys and len(keys) == len(set(keys))


def _sparse_entries(rng, shape):
    """Complex entries with many exact zeros of either sign, where ``-x`` and ``(-1.0) * x`` differ."""
    def part():
        vals = rng.standard_normal(shape) * (rng.uniform(size=shape) < 0.5)
        return np.where(rng.uniform(size=shape) < 0.5, -vals, vals)

    return part() + 1j * part()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    model=st.sampled_from(["full", "symmetric"]),
    k=st.integers(1, 3),
    cd=st.integers(1, 2),
    density=st.sampled_from([0.2, 0.6, 1.0]),
    data=st.data(),
)
def test_defect_shift_in_place_is_bit_equal_to_the_composed_route(seed, model, k, cd, density, data):
    rng = np.random.default_rng(seed)
    n = tuple(data.draw(st.integers(1, 3 if model == "symmetric" else 2)) for _ in range(k))
    caps = tuple(data.draw(st.integers(0, 3 if k < 3 else 2)) for _ in range(k))
    ft = fock.truncation_for(model, Shape(n, caps=caps), cd)
    blocks = {(p, q): _sparse_entries(rng, (ft.dim(q), ft.dim(p)))
              for p in ft.grades for q in ft.grades if rng.uniform() < density}
    for key in list(blocks)[::3]:  # real blocks become complex where a shift lands on them
        blocks[key] = blocks[key].real.copy()
    margin = tuple(data.draw(st.integers(0, 1)) for _ in range(k))
    want = defect_shift_composed(GradedOperator(ft, {key: b.copy() for key, b in blocks.items()}, margin))
    y = GradedOperator(ft, blocks, margin)
    got = defect_shift(y)
    assert got is y
    assert got.margin == want.margin
    assert got.blocks.keys() == want.blocks.keys()
    for key, b in want.blocks.items():
        assert got.blocks[key].dtype == b.dtype and got.blocks[key].tobytes() == b.tobytes(), key


def _private_fock_imports(tree):
    """Underscore names a parsed module imports from ``fock``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "fock":
            yield from (alias.name for alias in node.names if alias.name.startswith("_"))


def test_no_module_imports_a_private_fock_name():
    # the coefficient layout lives behind ``FockTruncation.shift`` and ``coeff_rows``
    found = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := list(_private_fock_imports(ast.parse(path.read_text()))))
    }
    assert found == {}


def test_private_import_scan_sees_both_spellings():
    tree = ast.parse("from .fock import _a, b\nfrom polyball.fock import _c\nfrom .cp import _d\n")
    assert list(_private_fock_imports(tree)) == ["_a", "_c"]

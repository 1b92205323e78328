import json
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_polyball_tuple
from oracle import connection_payload_full
from polyball import berezin
from polyball.berezin import INTERTWINE_TOL, multiplier_from_json
from polyball.cli import _render_json, main
from polyball.cp import tuple_to_json
from polyball.subspaces import (
    bidisc_difference_subspace,
    construct_mt,
    construct_nadic,
    subspace_from_json,
    subspace_to_json,
)


def scalar_tuple_json(r):
    return json.dumps({"n": [1], "dimH": 1, "factors": [[[[r, 0.0]]]]})


@pytest.fixture
def scalar_file(tmp_path):
    path = tmp_path / "scalar.json"
    path.write_text(scalar_tuple_json(0.5))
    return str(path)


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_curv_scalar_closed_form(scalar_file, capsys):
    code, out, _ = run(["curv", "--input", scalar_file, "--qmax", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["estimate"] == pytest.approx(0.75 * 0.25**4)
    for row in payload["table"]:
        assert row["x_q"] == pytest.approx(0.75 * 0.25 ** row["q1"])
    chain = payload["bounds_chain"]
    assert chain == sorted(chain)


def test_curv_csv_format(scalar_file, capsys, tmp_path):
    out_path = tmp_path / "table.csv"
    code, _, _ = run(
        ["curv", "--input", scalar_file, "--qmax", "3", "--format", "csv", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "q1,x_q,cesaro,defect_product"
    assert len(lines) == 5


def test_curv_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(["curv", "--input", str(path)], capsys)
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "parse"
    assert "line" in payload


def test_curv_nonmember_exit_code(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(scalar_tuple_json(1.5))
    code, _, err = run(["curv", "--input", str(path)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "membership"
    assert payload["eigenvalue"] < 0


def test_construct_mt_then_mult(tmp_path, capsys):
    sub_path = tmp_path / "mt.json"
    code, _, _ = run(
        ["construct", "mt", "--n", "2", "--t", "0.5", "--caps", "8", "--out", str(sub_path)],
        capsys,
    )
    assert code == 0
    code, out, _ = run(["mult", "--input", str(sub_path), "--qmax", "8"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["estimate"] == pytest.approx(0.5)
    assert payload["exact_limit"] == pytest.approx(0.5)
    for row in payload["table"]:
        if row["q1"] >= 1:
            assert row["y_q"] == pytest.approx(0.5)


def test_construct_uncountable_then_mult(tmp_path, capsys):
    sub_path = tmp_path / "fam.json"
    code, _, _ = run(
        ["construct", "uncountable", "--t", "0.3", "--omega", "0.75", "--caps", "8,8",
         "--out", str(sub_path)],
        capsys,
    )
    assert code == 0
    code, out, _ = run(["mult", "--input", str(sub_path), "--qmax", "8"], capsys)
    assert code == 0
    payload = json.loads(out)
    # compression curvature approaches t from above
    assert abs(payload["compression_curvature_estimate"] - 0.3) < 0.01


def test_check_beurling_fixture_false(tmp_path, capsys):
    sub = bidisc_difference_subspace((5, 5))
    path = tmp_path / "diff.json"
    path.write_text(subspace_to_json(sub))
    code, out, _ = run(["check", "beurling", "--input", str(path)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["positive"] is False
    assert payload["min_eigenvalue"] < -1e-3


def test_check_beurling_suffix_true(tmp_path, capsys):
    sub = construct_mt(construct_nadic(2, 0.5), 5)
    path = tmp_path / "mt.json"
    path.write_text(subspace_to_json(sub))
    code, out, _ = run(["check", "beurling", "--input", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["positive"] is True


def test_check_connection(scalar_file, capsys):
    code, out, _ = run(
        ["check", "connection", "--input", scalar_file, "--qmax", "3", "--caps", "4"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["max_residual"] < 1e-12


def test_check_intertwine(scalar_file, capsys):
    code, out, _ = run(["check", "intertwine", "--input", scalar_file, "--caps", "5"], capsys)
    assert code == 0
    assert json.loads(out)["max_residual"] < 1e-12


def index_files(tmp_path):
    """The suffix-subspace compression tuple and the letter-1 monomial multiplier, as files."""
    from polyball.berezin import monomial_multiplier, multiplier_to_json
    from polyball.basis import Shape
    from polyball.subspaces import compression_tuple

    sub = construct_mt(construct_nadic(2, 0.5), 4)
    t_path = tmp_path / "tuple.json"
    t_path.write_text(tuple_to_json(compression_tuple(sub)))
    theta_path = tmp_path / "theta.json"
    theta_path.write_text(multiplier_to_json(monomial_multiplier(Shape((2,)), 0, (1,))))
    return str(t_path), str(theta_path)


def test_check_index(tmp_path, capsys):
    t_path, theta_path = index_files(tmp_path)
    code, out, _ = run(
        ["check", "index", "--input", t_path, "--theta", theta_path, "--caps", "4"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["lhs"] == pytest.approx(0.5, abs=1e-9)
    assert payload["residual"] < 1e-8


def test_output_independent_of_thread_count(tmp_path, capsys):
    sub = bidisc_difference_subspace((5, 5))
    path = tmp_path / "diff.json"
    path.write_text(subspace_to_json(sub))
    outputs = []
    for attempt in ("a", "b"):
        out_path = tmp_path / f"mult-{attempt}.json"
        code, _, _ = run(["mult", "--input", str(path), "--qmax", "4", "--out", str(out_path)], capsys)
        assert code == 0
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["curv", "curv-c", "mult"])
def test_negative_qmax_is_invalid_input(command, scalar_file, tmp_path, capsys):
    path = scalar_file
    if command == "mult":
        path = tmp_path / "mt.json"
        path.write_text(subspace_to_json(construct_mt(construct_nadic(2, 0.5), 4)))
    code, out, err = run([command, "--input", str(path), "--qmax", "-1"], capsys)
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "invalid-input"
    assert "q_max" in payload["reason"]


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["check", "connection", "--qmax", "-1"], "q_max"),
        (["check", "connection", "--caps", "-1"], "caps"),
        (["check", "intertwine", "--qmax", "-1"], "q_max"),
        (["check", "intertwine", "--caps", "-1"], "caps"),
        (["check", "index", "--theta", "missing.json", "--qmax", "-1"], "q_max"),
        (["check", "index", "--theta", "missing.json", "--caps", "-2"], "caps"),
    ],
)
def test_check_negative_qmax_or_cap_is_refused_before_reading(argv, reason, tmp_path, capsys):
    # the input file does not exist: the refusal must come before it is read
    code, out, err = run(argv + ["--input", str(tmp_path / "missing.json")], capsys)
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "invalid-input"
    assert reason in payload["reason"]


def test_check_intertwine_without_grade_pairs_is_invalid_input(scalar_file, capsys):
    code, out, err = run(["check", "intertwine", "--input", scalar_file, "--caps", "0"], capsys)
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "invalid-input"
    assert "caps" in payload["reason"]


def test_check_intertwine_with_one_cap_zero_is_invalid_input(tmp_path, capsys):
    # two commuting factors; factor 0 has cap 0 and would go untested
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"n": [1, 1], "dimH": 1, "factors": [[[[0.5, 0.0]]], [[[0.5, 0.0]]]]}))
    code, _, err = run(["check", "intertwine", "--input", str(path), "--caps", "0,3"], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "invalid-input"
    code, out, _ = run(["check", "intertwine", "--input", str(path), "--caps", "1,3"], capsys)
    assert code == 0 and json.loads(out)["within_tol"] is True


def test_check_intertwine_over_the_kernel_budget_is_invalid_input(tmp_path, capsys):
    # caps (40, 40) on n (2, 2) would need about 2**85 bytes; refused before any allocation
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"n": [2, 2], "dimH": 1, "factors": [[[[0.5, 0.0]], [[0.5, 0.0]]]] * 2}))
    tracemalloc.start()
    try:
        code, out, err = run(["check", "intertwine", "--input", str(path), "--caps", "40,40"], capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "invalid-input"
    assert "bytes" in payload["reason"] and "budget" in payload["reason"]
    assert peak < 2**20


def test_check_connection_over_the_kernel_budget_is_invalid_input(tmp_path, capsys, monkeypatch):
    # the kernel is built only on the qmax box (2, 2), but --caps 40, 40 is refused as before,
    # before any allocation and before the tail bound's transfer-map powers
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"n": [2, 2], "dimH": 1, "factors": [[[[0.5, 0.0]], [[0.5, 0.0]]]] * 2}))
    powers = []
    power = berezin.cp_apply_power
    monkeypatch.setattr(berezin, "cp_apply_power", lambda t, i, y, q: powers.append(q) or power(t, i, y, q))
    tracemalloc.start()
    try:
        code, out, err = run(["check", "connection", "--input", str(path), "--caps", "40,40", "--qmax", "2"], capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "invalid-input"
    assert "caps (40, 40) needs" in payload["reason"] and "budget" in payload["reason"]
    assert peak < 2**20
    assert powers == []


@pytest.mark.parametrize("n, caps, qmax", [
    ((2, 2), (3, 2), 5),  # qmax above every cap
    ((2, 2), (3, 3), 3),  # qmax at the caps
    ((2, 2), (3, 3), 0),
    ((1, 2), (0, 3), 2),  # one cap 0
    ((1, 1, 1), (2, 0, 1), 1),
    ((2,), (4,), 2),
])
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_check_connection_matches_the_full_caps_kernel(n, caps, qmax, seed):
    t = random_polyball_tuple(np.random.default_rng(seed), n, (2,) * len(n), 0.7)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "t.json"), os.path.join(tmp, "out.json")
        with open(path, "w") as fh:
            fh.write(tuple_to_json(t))
        argv = ["check", "connection", "--input", path, "--caps", ",".join(map(str, caps)), "--qmax", str(qmax)]
        assert main(argv + ["--out", out]) == 0
        with open(out) as fh:
            text = fh.read()
    assert text == _render_json(connection_payload_full(t, caps, qmax, INTERTWINE_TOL)) + "\n"


@pytest.mark.parametrize(
    "payload, reason",
    [
        ({"n": [1], "dimH": 0, "factors": [[[]]]}, "dimH"),
        ({"n": [1], "dimH": 1, "factors": [[[[float("nan"), 0.0]]]]}, "finite"),
        ({"n": [1], "dimH": 1, "factors": [[[[0.5, float("inf")]]]]}, "finite"),
        ({"n": [1], "dimH": 1, "factors": [[[["a", 0.0]]]]}, "pairs of numbers"),
        ({"n": [1], "dimH": 1, "factors": [[[None]]]}, "pairs of numbers"),
        ({"n": [1], "dimH": 1, "factors": [[[[None, 0.0]]]]}, "null"),
        ({"n": [1], "dimH": 1, "factors": [[[[0.5, 0.0, 0.0]]]]}, "pairs of numbers"),
        ({"n": [1], "dimH": 1, "factors": [[[[0.5]]]]}, "pairs of numbers"),
        ({"n": [1], "dimH": 1, "factors": [[[["1.5", 0.0]]]]}, "pairs of numbers"),
        ({"n": [1], "dimH": 1, "factors": [[[[10**400, 0.0]]]]}, "finite"),
    ],
)
def test_degenerate_tuple_is_invalid_input(payload, reason, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(["curv", "--input", str(path), "--qmax", "3"], capsys)
    assert code == 1 and out == ""
    report = json.loads(err)
    assert report["error"] == "invalid-input"
    assert reason in report["reason"]


def basis_payload(entry):
    grades = [{"q": [q], "basis": [entry], "cols": 1} for q in (1, 2)]
    return {"model": "full", "n": [1], "caps": [2], "dimE": 1, "mode": "basis", "grades": grades}


def span_payload(entry):
    return {"model": "full", "n": [1], "caps": [2], "dimE": 1, "mode": "span",
            "vectors": [[[0.0, 0.0], entry, [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]}


def multiplier_payload(entry):
    return {"model": "full", "n": [1], "dim_source": 1, "dim_target": 1, "isometric": True,
            "blocks": [{"degree": [1], "coeffs": [[entry]]}]}


@pytest.mark.parametrize("payload", [basis_payload, span_payload, multiplier_payload])
@pytest.mark.parametrize("entry, reason", [(["1.0", 0.0], "pairs of numbers"), ([None, 0.0], "finite")])
def test_every_matrix_loader_refuses_what_the_tuple_loader_refuses(payload, entry, reason, scalar_file,
                                                                   tmp_path, capsys):
    path = tmp_path / "bad.json"
    if payload is multiplier_payload:
        argv = ["check", "index", "--input", scalar_file, "--theta", str(path), "--caps", "3"]
    else:
        argv = ["mult", "--input", str(path), "--qmax", "1"]
    (multiplier_from_json if payload is multiplier_payload else subspace_from_json)(json.dumps(payload([1.0, 0.0])))
    path.write_text(json.dumps(payload(entry)))
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    report = json.loads(err)
    assert report["error"] == "invalid-input"
    assert reason in report["reason"]


MISSING = object()


@pytest.mark.parametrize("path, value, named", [
    (("n",), None, "n"), (("n",), MISSING, "n"), (("n",), "x", "n"), (("n",), [1.0], "n"), (("n",), [True], "n"),
    (("dim_source",), None, "dim_source"), (("dim_target",), 1.5, "dim_target"),
    (("blocks",), None, "blocks"), (("blocks",), MISSING, "blocks"), (("blocks",), {}, "blocks"),
    (("blocks", 0), "x", "degree"),  # a block that is not an object
    (("blocks", 0, "degree"), None, "degree"), (("blocks", 0, "degree"), MISSING, "degree"),
    (("blocks", 0, "degree"), ["1"], "degree"), (("blocks", 0, "degree"), [], "degree"),
    (("blocks", 0, "coeffs"), None, "coeffs"), (("blocks", 0, "coeffs"), MISSING, "coeffs"),
    (("blocks", 0, "coeffs"), "x", "coeffs"), (("isometric",), "false", "isometric"),
])
def test_malformed_multiplier_field_is_refused_by_name(path, value, named, scalar_file, tmp_path, capsys):
    data = multiplier_payload([1.0, 0.0])
    multiplier_from_json(json.dumps(data))
    *parents, key = path
    target = data
    for p in parents:
        target = target[p]
    if value is MISSING:
        del target[key]
    else:
        target[key] = value
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps(data))
    code, out, err = run(["check", "index", "--input", scalar_file, "--theta", str(theta), "--caps", "3"], capsys)
    assert code == 1 and out == "" and "Traceback" not in err
    report = json.loads(err)
    assert report["error"] == "invalid-input"
    assert f"'{named}'" in report["reason"]


def test_unknown_subspace_mode_is_refused_by_name(tmp_path, capsys):
    path = tmp_path / "foo.json"
    path.write_text(json.dumps({"model": "full", "n": [1], "caps": [2], "dimE": 1, "mode": "foo"}))
    code, out, err = run(["mult", "--input", str(path), "--qmax", "1"], capsys)
    assert code == 1 and out == "" and "Traceback" not in err
    report = json.loads(err)
    assert report["error"] == "invalid-input"
    assert report["reason"] == "unknown subspace mode 'foo'; expected structured, basis or span"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["curv", "--qmax", "abc"], "--qmax"),
        (["construct", "mt", "--threads", "2"], "--threads"),
        (["curv", "--input", "tuple.json", "--caps", "3"], "--caps"),
        (["check", "index", "--input", "tuple.json"], "--theta"),
        (["construct", "tensor"], "--input"),
        # a flag that a command would not read is refused
        (["check", "beurling", "--input", "sub.json", "--caps", "2"], "--caps"),
        (["check", "beurling", "--input", "sub.json", "--qmax", "1"], "--qmax"),
        (["check", "beurling", "--input", "sub.json", "--tol", "5"], "--tol"),
        (["check", "index", "--input", "tuple.json", "--theta", "theta.json", "--tol", "1"], "--tol"),
        (["curv", "--input", "tuple.json", "--tol", "1e-3"], "--tol"),
        (["curv-c", "--input", "tuple.json", "--tol", "1e-3"], "--tol"),
        (["mult", "--input", "sub.json", "--tol", "1e-3"], "--tol"),
        (["check", "connection", "--input", "tuple.json", "--theta", "theta.json"], "--theta"),
    ],
)
def test_usage_errors_are_invalid_input(argv, flag, capsys):
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "invalid-input"
    assert flag in payload["reason"]


@pytest.mark.parametrize("command", ["curv", "curv-c", "mult"])
def test_qmax_zero_writes_valid_json(command, scalar_file, tmp_path, capsys):
    path = scalar_file
    if command == "mult":
        path = tmp_path / "mt.json"
        path.write_text(subspace_to_json(construct_mt(construct_nadic(2, 0.5), 4)))
    code, out, _ = run([command, "--input", str(path), "--qmax", "0"], capsys)
    assert code == 0
    payload = json.loads(out)  # rejects a bare nan
    assert payload["qmax"] == 0 and payload["error_proxy"] is None


def test_non_finite_floats_are_null_or_empty():
    from polyball.cli import _render_json, _rows_to_csv

    rendered = _render_json({"a": float("nan"), "b": [float("inf"), 0.5]})
    assert json.loads(rendered) == {"a": None, "b": [None, 0.5]}
    assert _rows_to_csv([{"a": float("nan"), "b": float("-inf"), "c": 0.5}]) == "a,b,c\n,,0.5\n"


def test_demo_runs(capsys):
    code, out, _ = run(["demo"], capsys)
    assert code == 0
    assert "curvature" in out


def test_construct_tensor_via_cli(tmp_path, capsys):
    mt_path = tmp_path / "mt.json"
    cur_path = tmp_path / "cur0.json"
    prod_path = tmp_path / "prod.json"
    assert run(["construct", "mt", "--n", "2", "--t", "0.5", "--caps", "5", "--out", str(mt_path)], capsys)[0] == 0
    assert run(["construct", "cur0", "--n", "2", "--caps", "5", "--out", str(cur_path)], capsys)[0] == 0
    code, _, _ = run(
        ["construct", "tensor", "--input", f"{mt_path},{cur_path}", "--out", str(prod_path)],
        capsys,
    )
    assert code == 0
    code, out, _ = run(["mult", "--input", str(prod_path), "--qmax", "5"], capsys)
    assert code == 0
    payload = json.loads(out)
    # occupation multiplies: 1/2 from the suffix factor, -> 1 from the ladder factor
    assert payload["exact_limit"] == pytest.approx(0.5)


@pytest.mark.parametrize("order", ["uncountable-first", "mt-first"])
def test_tensor_with_a_multi_factor_part_round_trips(order, tmp_path, capsys):
    from fractions import Fraction

    unc, mt, prod = tmp_path / "unc.json", tmp_path / "mt.json", tmp_path / "prod.json"
    assert run(["construct", "uncountable", "--caps", "3,3", "--out", str(unc)], capsys)[0] == 0
    assert run(["construct", "mt", "--caps", "3", "--out", str(mt)], capsys)[0] == 0
    parts = [unc, mt] if order == "uncountable-first" else [mt, unc]
    code, _, _ = run(["construct", "tensor", "--input", ",".join(map(str, parts)), "--out", str(prod)], capsys)
    assert code == 0
    code, out, err = run(["mult", "--input", str(prod), "--qmax", "3"], capsys)
    assert code == 0, err
    limit = Fraction(1)
    for part in parts:
        limit *= subspace_from_json(part.read_text()).limit
    assert json.loads(out)["exact_limit"] == float(limit)
    assert subspace_from_json(prod.read_text()).truncation.shape.n == (2, 2, 2)


def test_mult_symmetric_model_via_cli(tmp_path, capsys):
    from polyball.basis import Shape
    from polyball.symmetric import SymFockTruncation, coordinate_multiple_subspace

    sf = SymFockTruncation(Shape((2,), caps=(8,)))
    sub = coordinate_multiple_subspace(sf, 0, 1)
    path = tmp_path / "sym.json"
    path.write_text(subspace_to_json(sub))
    code, out, _ = run(["mult", "--input", str(path), "--qmax", "8"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["model"] == "symmetric"
    assert payload["beurling_positive"] is True
    assert payload["estimate"] == pytest.approx(8 / 9)
    assert payload["exact_limit"] == pytest.approx(1.0)


@pytest.mark.parametrize("kind", ["beurling", "intertwine", "index"])
def test_check_csv_is_the_payload_as_one_row(kind, scalar_file, tmp_path, capsys):
    if kind == "beurling":
        path = tmp_path / "mt.json"
        path.write_text(subspace_to_json(construct_mt(construct_nadic(2, 0.5), 5)))
        argv = ["check", "beurling", "--input", str(path)]
    elif kind == "intertwine":
        argv = ["check", "intertwine", "--input", scalar_file, "--caps", "3"]
    else:
        t_path, theta_path = index_files(tmp_path)
        argv = ["check", "index", "--input", t_path, "--theta", theta_path, "--caps", "4"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    payload = json.loads(out)
    code, out, _ = run(argv + ["--format", "csv"], capsys)
    assert code == 0
    header, row, *rest = out.splitlines()
    assert rest == [] and header.split(",") == list(payload)
    for key, cell in zip(payload, row.split(",")):
        value = payload[key]
        if isinstance(value, bool):
            assert cell == json.dumps(value)
        elif isinstance(value, float):
            assert float(cell) == value
        elif isinstance(value, list):
            assert cell == ";".join(str(v) for v in value)
        else:
            assert cell == str(value)


def test_unknown_multiplier_model_is_invalid_input(tmp_path, capsys):
    t_path, theta_path = index_files(tmp_path)
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps(json.loads(theta.read_text()) | {"model": "sym"}))
    code, out, err = run(["check", "index", "--input", t_path, "--theta", theta_path, "--caps", "4"], capsys)
    assert code == 1 and out == ""
    report = json.loads(err)
    assert report["error"] == "invalid-input"
    assert "unknown model 'sym'" in report["reason"]


def test_unknown_subspace_model_is_invalid_input(tmp_path, capsys):
    data = json.loads(subspace_to_json(construct_mt(construct_nadic(2, 0.5), 4))) | {"model": "sym"}
    path = tmp_path / "mt.json"
    path.write_text(json.dumps(data))
    code, out, err = run(["mult", "--input", str(path), "--qmax", "4"], capsys)
    assert code == 1 and out == ""
    report = json.loads(err)
    assert report["error"] == "invalid-input"
    assert "unknown model 'sym'" in report["reason"]


def structured_head(kind, params, **head):
    """A structured subspace JSON with the given head fields over a one-factor word-model default."""
    return {"model": "full", "n": [2], "caps": [3], "dimE": 1} | head | {
        "mode": "structured", "kind": kind, "params": params}


MISMATCHED_HEADS = {
    "one-part-for-two-factors": structured_head("cur0", {"n": 2}, n=[2, 2], caps=[3, 3]),
    "mt-digits-in-another-base": structured_head("mt", construct_mt(construct_nadic(3, 0.5), 3).params),
    "coefficients-the-part-lacks": structured_head("cur0", {"n": 2}, dimE=4),
    "coordinate-multiple-on-words": structured_head("coordinate_multiple", {"factor": 0, "var": 1},
                                                    n=[2, 2], caps=[3, 3]),
}


def assert_invalid_input(code, out, err):
    assert code == 1 and out == "" and "Traceback" not in err
    assert json.loads(err)["error"] == "invalid-input"


@pytest.mark.parametrize("command", [["mult", "--qmax", "2"], ["check", "beurling"]])
@pytest.mark.parametrize("name", list(MISMATCHED_HEADS))
def test_structured_subspace_must_live_on_its_head(name, command, tmp_path, capsys):
    path = tmp_path / "sub.json"
    path.write_text(json.dumps(MISMATCHED_HEADS[name]))
    assert_invalid_input(*run([*command, "--input", str(path)], capsys))


def test_tensor_of_a_symmetric_part_is_invalid_input(tmp_path, capsys):
    from polyball.basis import Shape
    from polyball.symmetric import SymFockTruncation, coordinate_multiple_subspace

    sym, mt, prod = tmp_path / "sym.json", tmp_path / "mt.json", tmp_path / "prod.json"
    sym.write_text(subspace_to_json(coordinate_multiple_subspace(SymFockTruncation(Shape((2,), caps=(3,))), 0, 1)))
    mt.write_text(subspace_to_json(construct_mt(construct_nadic(2, 0.5), 3)))
    assert_invalid_input(*run(["construct", "tensor", "--input", f"{sym},{mt}", "--out", str(prod)], capsys))
    assert not prod.exists()


@pytest.mark.parametrize("argv", [
    ["uncountable", "--caps", "3"],
    ["uncountable", "--caps", "3,3,3"],
    ["mt", "--caps", "3,4"],
    ["cur0", "--caps", "3,4"],
    ["mt", "--terms", "0"],
    ["uncountable", "--caps", "3,3", "--terms", "0"],
])
def test_construct_refuses_caps_and_terms_it_cannot_use(argv, tmp_path, capsys):
    out = tmp_path / "sub.json"
    assert_invalid_input(*run(["construct", *argv, "--out", str(out)], capsys))
    assert not out.exists()

"""The one tolerance table: each row decides at its bound, and no module keeps a threshold of its own.

Every check reads its bound through ``cp.tolerance``.  Each test case below
runs a real check on an input where the row's measured ``x`` is nonzero,
reads that ``x`` off the row, then sets the row's value just past it on
either side and sees the check's verdict flip.
"""

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import random_polyball_tuple
from polyball import berezin, cp, curvature, fock, subspaces
from polyball.basis import Shape
from polyball.berezin import (InnerMultiplier, _validate_blocks, monomial_multiplier, multiplier_to_json,
                              validate_multiplier)
from polyball.cli import main
from polyball.cp import (TOLERANCES, OperatorTuple, ampliation, check_polyball, check_pure, defect_data, tolerance,
                         tuple_to_json)
from polyball.curvature import NumericalInstabilityError, bounds_report, curvature_estimate
from polyball.fock import FockTruncation
from polyball.subspaces import (
    InvarianceError,
    compression_tuple,
    construct_mt,
    construct_nadic,
    inner_sequence_check,
    invariant_span,
    span_subspace,
    subspace_from_json,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "polyball"


def diagonal_tuple(*diag):
    return OperatorTuple(Shape((1,)), len(diag), ((np.diag(diag).astype(complex),),))


def passes(fn, match, exc=ValueError):
    """False when ``fn`` raises ``exc`` with a message containing ``match``, else True."""
    try:
        fn()
    except exc as e:
        if match in str(e):
            return False
    return True


def run_main(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    if code:
        payload = json.loads(err)
        return code, payload
    return code, None


def scaled_monomial(c, isometric):
    theta = monomial_multiplier(Shape((2,)), 0, (1,))
    return InnerMultiplier(theta.shape, 1, 1, {d: c * a for d, a in theta.coeffs.items()}, isometric=isometric)


def case_psd(tmp_path, capsys):
    # Delta(I) = diag(1 - 1.21, 0.75): least eigenvalue -0.21 against 1 times the value
    return lambda: check_polyball(diagonal_tuple(1.1, 0.5)).member


def case_ampliation(tmp_path, capsys):
    rng = np.random.default_rng(5)
    parts = [random_polyball_tuple(rng, (2,), (3,), 0.8) for _ in range(2)]
    return lambda: passes(lambda: ampliation(parts), "does not factor")


def case_commutation(tmp_path, capsys):
    # cross-factor commutator 1e3**2 * 1e-9 beside entries of norm about 2e3 and 4e3
    a = 1e3 * np.diag([1.0, 2.0])
    b = 1e3 * np.array([[3.0, 1e-9], [0.0, 4.0]])
    return lambda: passes(lambda: OperatorTuple(Shape((1, 1)), 2, ((a,), (b,))), "do not commute")


def case_purity(tmp_path, capsys):
    # ||Phi(I)|| = 1e-10 at the first step: pure there, or one step later
    return lambda: check_pure(diagonal_tuple(1e-5)).iterations == (1,)


def case_stall(tmp_path, capsys):
    # ||Phi^m(I)|| = 1 + s**2 for every m >= 1: a change of about 1e-13 at the first step, then none
    s = 10**-6.5
    t = OperatorTuple(Shape((2,)), 2, ((np.diag([1.0, 0.0]), np.array([[0.0, s], [0.0, 0.0]])),))
    return lambda: check_pure(t).iterations == (1,)


def case_rank(tmp_path, capsys):
    # Delta(I) = diag(1, 0.3): the smaller eigenvalue is 0.3 of the top
    return lambda: defect_data(diagonal_tuple(0.0, math.sqrt(0.7))).rank == 2


def case_svd_rank(tmp_path, capsys):
    ft = FockTruncation(Shape((1,), caps=(1,)))
    vectors = np.array([[1.0, 1.0], [0.0, 0.1]])
    return lambda: span_subspace(ft, vectors).columns.shape[1] == 2


def case_intertwine(tmp_path, capsys):
    # intertwines exactly, but Theta* Theta = 1.5625 I
    theta = scaled_monomial(1.25, isometric=True)
    return lambda: passes(lambda: validate_multiplier(theta, (3,)), "flagged isometric")


def case_multiplier(tmp_path, capsys):
    theta = monomial_multiplier(Shape((2,)), 0, (1,))
    rng = np.random.default_rng(3)
    blocks = {key: b + 2e-4 * rng.standard_normal(b.shape) for key, b in theta.materialize_blocks((3,)).items()}
    return lambda: passes(lambda: _validate_blocks(theta, blocks, (3,)), "does not intertwine")


def case_completion(tmp_path, capsys):
    # check index from the command line: Theta scaled by 1.001 leaves K K* + Theta Theta* - I about 2e-3
    tup, theta = tmp_path / "tuple.json", tmp_path / "theta.json"
    tup.write_text(tuple_to_json(compression_tuple(construct_mt(construct_nadic(2, 0.5), 4))))
    theta.write_text(multiplier_to_json(scaled_monomial(1.001, isometric=False)))

    def run():
        code, err = run_main(["check", "index", "--input", str(tup), "--theta", str(theta), "--caps", "4"], capsys)
        if code:
            assert code == 1 and err["error"] == "invalid-input"
            assert err["reason"].startswith("K K* + Theta Theta* != I on interior grades (residual ")
        return code == 0
    return run


def basis_subspace_json(grades, n, caps):
    return json.dumps({"model": "full", "n": n, "caps": caps, "dimE": 1, "mode": "basis", "grades": [
        {"q": q, "basis": [[v, 0.0] for v in col], "cols": 1} for q, col in grades]})


def case_gram(tmp_path, capsys):
    # one vector at the cap grade, of norm 1.001: no shift leaves the cap, so only the Gram test can refuse
    text = basis_subspace_json([([2], [1.001])], [1], [2])
    return lambda: passes(lambda: subspace_from_json(text), "loaded basis is not orthonormal")


def case_invariance(tmp_path, capsys):
    # the vacuum and (0.6, 0.8) on the cap grade: S_1 and S_2 leave residuals 0.8 and 0.6
    text = basis_subspace_json([([0], [1.0]), ([1], [0.6, 0.8])], [2], [1])
    return lambda: passes(lambda: subspace_from_json(text), "not shift invariant", InvarianceError)


def case_decomposition(tmp_path, capsys):
    sub = construct_mt(construct_nadic(2, 0.5), 4)
    psi = scaled_monomial(1.1, isometric=False)
    return lambda: passes(lambda: inner_sequence_check(sub, [psi], q_max=3), "inner decomposition residual")


def case_support(tmp_path, capsys):
    # a span vector with a component of about 1e-3 on the cap grade: the shift there drops it, or it is read
    # as no support, and its shifted residual refuses the load
    text = json.dumps({"model": "full", "n": [1], "caps": [1], "dimE": 1, "mode": "span",
                       "vectors": [[[1.0, 0.0], [1e-3, 0.0]]]})
    return lambda: passes(lambda: subspace_from_json(text), "not shift invariant", InvarianceError)


def case_span_shift(tmp_path, capsys):
    # the seed 0.3 e_0, normalized to e_0, shifts to e_1
    ft = FockTruncation(Shape((1,), caps=(1,)))
    return lambda: invariant_span(ft, np.array([[0.3], [0.0]])).columns.shape[1] == 2


def case_span_new(tmp_path, capsys):
    # the vacuum and u = 0.6 e_1 + 0.8 e_2: S_1 adds e_1 - 0.6 u, of norm 0.8, and then S_2 adds nothing
    ft = FockTruncation(Shape((2,), caps=(1,)))
    return lambda: invariant_span(ft, np.array([[1.0, 0.0], [0.0, 0.6], [0.0, 0.8]])).columns.shape[1] == 3


def case_imag(tmp_path, capsys):
    # complex entries leave roundoff in the imaginary parts of the grade traces
    t = random_polyball_tuple(np.random.default_rng(7), (2, 1), (3, 2), 0.8)
    return lambda: passes(lambda: curvature_estimate(t, 3), "grade trace has imaginary part",
                          NumericalInstabilityError)


def case_monotone_slack(tmp_path, capsys):
    # x_q = 0.75 * 0.25**q decreases: its largest step is negative, and so is the threshold
    return lambda: curvature_estimate(diagonal_tuple(0.5), 3).monotone_ok


def case_monotone_error(tmp_path, capsys):
    path = tmp_path / "scalar.json"
    path.write_text(tuple_to_json(diagonal_tuple(0.5)))

    def run():
        code, err = run_main(["curv", "--input", str(path), "--qmax", "3"], capsys)
        if code:
            assert code == 3 and err["error"] == "numerical-instability"
            assert err["reason"].startswith("grade value increased from (2,) to (3,) by ")
        return code == 0
    return run


def case_bounds_chain(tmp_path, capsys):
    # 0 <= 0.75 * 0.25**3 <= 0.75 <= 1: the first step is the closest
    return lambda: passes(lambda: bounds_report(diagonal_tuple(0.5), 3), "bounds chain violated",
                          NumericalInstabilityError)


CASES = {
    "psd": case_psd,
    "ampliation": case_ampliation,
    "commutation": case_commutation,
    "purity": case_purity,
    "stall": case_stall,
    "rank": case_rank,
    "svd_rank": case_svd_rank,
    "intertwine": case_intertwine,
    "multiplier": case_multiplier,
    "completion": case_completion,
    "gram": case_gram,
    "invariance": case_invariance,
    "decomposition": case_decomposition,
    "support": case_support,
    "span_shift": case_span_shift,
    "span_new": case_span_new,
    "imag": case_imag,
    "monotone_slack": case_monotone_slack,
    "monotone_error": case_monotone_error,
    "bounds_chain": case_bounds_chain,
}

def least_positive(ratios):
    return min(v for v in ratios if v > 0)


# the decisive reading, where it is not the largest: commutation is read unscaled first and then at its
# scale, and a rank tips at its smallest kept value, not at the top one
PICK = {"commutation": min, "rank": least_positive, "svd_rank": least_positive}


def thresholds(name, run, monkeypatch):
    """For each element ``x`` the row reads while ``run`` runs: the row value at which the bound equals ``x``."""
    real = cp.tolerance
    ratios = []

    def spy(row, x, scale=1.0):
        out = real(row, x, scale)
        if row == name:
            _, x, bound = out
            if TOLERANCES[name].comparison == "chain":
                x = max(a - b for a, b in zip(x, x[1:]))
            ratios.extend(np.ravel(np.asarray(x, dtype=float) / np.asarray(bound, dtype=float)))
        return out

    with monkeypatch.context() as m:
        for module in (cp, curvature, subspaces, berezin):
            m.setattr(module, "tolerance", spy)
        run()
    row = TOLERANCES[name]
    value = TOLERANCES.get(row.value, row).value  # a borrowed value, else the row's own
    return [value * r for r in ratios if math.isfinite(r)]


def test_every_row_has_a_case():
    assert set(CASES) == set(TOLERANCES)


@pytest.mark.parametrize("name", sorted(TOLERANCES))
def test_each_row_decides_just_below_and_just_above_its_bound(name, tmp_path, capsys, monkeypatch):
    run = CASES[name](tmp_path, capsys)
    threshold = PICK.get(name, max)(thresholds(name, run, monkeypatch))
    assert threshold != 0
    # a larger value loosens every comparison but ">", which reads x as numerically nonzero
    loose = TOLERANCES[name].comparison != ">"
    for value, within in ((threshold + 1e-6 * abs(threshold), loose), (threshold - 1e-6 * abs(threshold), not loose)):
        monkeypatch.setitem(TOLERANCES, name, TOLERANCES[name]._replace(value=value))
        assert run() is within, (name, value)


def test_a_ceiling_row_passes_equality_and_nan():
    # "<=" is the negation of a refusal above the bound
    assert tolerance("intertwine", 1e-10) == (True, 1e-10, 1e-10)
    assert tolerance("intertwine", math.nextafter(1e-10, 1.0))[0] is False
    assert tolerance("intertwine", math.nan)[0] is True


def test_the_psd_row_fails_nan_and_its_borrower_passes_it():
    assert tolerance("psd", -2e-10, 2.0) == (True, -2e-10, -2e-10)
    assert tolerance("psd", math.nan, 2.0)[0] is False
    assert tolerance("ampliation", math.nan, 2.0)[0] is True  # psd's value, its own comparison


def unit_box_case(m):
    """``(ft, build)`` on n (2,) at cap 3: ``build(box)`` is block-diagonal, ``m`` at the vacuum and a random block
    with spectrum in [0.5, 1] on each other grade.  The unit box's interior has grades 0 and 1 (3 rows), the
    whole interior grades 0 to 2 (7 rows)."""
    rng = np.random.default_rng(3)

    def block(d):
        u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        b = (u * rng.uniform(0.5, 1.0, d)) @ u.conj().T
        return (b + b.conj().T) / 2

    ft = FockTruncation(Shape((2,), caps=(3,)))
    blocks = {((0,), (0,)): np.array([[m]], dtype=complex), ((1,), (1,)): block(2), ((2,), (2,)): block(4)}
    return ft, lambda box: fock.GradedOperator(box, {key: b for key, b in blocks.items() if key[0] in box.grades})


@pytest.mark.parametrize("side, reads", [(1 + 1e-6, [3]), (1 - 1e-6, [3, 7])], ids=["below", "above"])
def test_the_psd_row_refutes_from_the_unit_box_at_twice_its_bound(side, reads, monkeypatch):
    # with the shifts patched out, the unit box's least eigenvalue is m, planted just below or just above twice
    # the psd bound at scale 2^k: below, the unit box alone refutes; above, the whole interior is read, and
    # fails at its own bound
    ft, build = unit_box_case(-2 * TOLERANCES["psd"].value * 2.0**1 * side)  # k = 1
    monkeypatch.setattr(fock, "defect_shift", lambda y: y)
    sizes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: sizes.append(len(a)) or eigvalsh(a))
    assert fock.defect_positive("test", ft, build) is False
    assert sizes == reads
    assert cp.psd_verdict(eigvalsh(fock._dense_defect("test", ft, build)[1])).positive is False


def small_float_sites(path):
    """``(line, value)`` of every float constant in ``(0, 1e-6)`` outside ``cp.TOLERANCES``."""
    tree = ast.parse(path.read_text())
    table = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TOLERANCES" for t in node.targets):
            table |= {id(n) for n in ast.walk(node.value)}
    return [(node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, float)
            and 0 < abs(node.value) < 1e-6 and id(node) not in table]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_threshold_outside_the_table(path):
    assert small_float_sites(path) == []


def test_the_guard_sees_a_stray_threshold(tmp_path):
    stray = tmp_path / "stray.py"
    stray.write_text('"""A docstring that mentions 1e-12 is not a constant."""\nTOL = 1e-12\n'
                     'TOLERANCES = {"x": 1e-10}\n')
    assert small_float_sites(stray) == [(2, 1e-12)]

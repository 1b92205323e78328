"""Byte-for-byte CLI outputs on small inputs whose arithmetic is exact in binary.

The expected files live in ``tests/golden/``.  Any difference is an output
change of the command line, which must be deliberate and documented; then
rewrite the files with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import sys
from pathlib import Path

from polyball.basis import Shape
from polyball.berezin import monomial_multiplier, multiplier_to_json
from polyball.cli import main
from polyball.cp import tuple_to_json
from polyball.subspaces import (
    compression_tuple,
    construct_mt,
    construct_nadic,
    subspace_to_json,
    uncountable_family,
)
from polyball.symmetric import SymFockTruncation, coordinate_multiple_subspace, sym_monomial_multiplier

GOLDEN = Path(__file__).resolve().parent / "golden"


def _matrix(diag):
    """Flat ``[re, im]`` pairs of a diagonal matrix."""
    d = len(diag)
    return [[diag[r] if r == c else 0.0, 0.0] for r in range(d) for c in range(d)]


def write_inputs(work: Path) -> dict[str, list[str]]:
    """Write the inputs into ``work``; return the argv of each case, keyed by golden file name."""
    scalar = work / "scalar.json"
    scalar.write_text(json.dumps({"n": [1], "dimH": 1, "factors": [[[[0.5, 0.0]]]]}))
    # commuting diagonal entries with dyadic eigenvalues; row defects 11/16 and 3/4
    diagonal = work / "diagonal.json"
    diagonal.write_text(json.dumps({
        "n": [2, 1], "dimH": 2,
        "factors": [[_matrix([0.5, 0.25]), _matrix([0.25, 0.5])], [_matrix([0.5, 0.5])]],
    }))
    # its first factor alone: the characteristic-function test passes, so curv-c prints no caveat
    single = work / "single.json"
    single.write_text(json.dumps({"n": [2], "dimH": 2, "factors": [[_matrix([0.5, 0.25]), _matrix([0.25, 0.5])]]}))
    mt = work / "mt.json"
    mt.write_text(subspace_to_json(construct_mt(construct_nadic(2, 0.625), 6)))
    unc = work / "uncountable.json"
    unc.write_text(subspace_to_json(uncountable_family(0.625, 0.75, (4, 4))))
    cm = work / "coordinate_multiple.json"
    cm.write_text(subspace_to_json(
        coordinate_multiple_subspace(SymFockTruncation(Shape((2, 1), caps=(4, 4))), 0, 2)))
    # index fixtures: the compressions of a suffix subspace and of a coordinate multiple
    mt_tuple = work / "mt_tuple.json"
    mt_tuple.write_text(tuple_to_json(compression_tuple(construct_mt(construct_nadic(2, 0.5), 4))))
    mt_theta = work / "mt_theta.json"
    mt_theta.write_text(multiplier_to_json(monomial_multiplier(Shape((2,)), 0, (1,))))
    cm_tuple = work / "cm_tuple.json"
    cm_tuple.write_text(tuple_to_json(compression_tuple(
        coordinate_multiple_subspace(SymFockTruncation(Shape((1, 1), caps=(4, 4))), 0, 1))))
    cm_theta = work / "cm_theta.json"
    cm_theta.write_text(multiplier_to_json(sym_monomial_multiplier(Shape((1, 1)), ((1,), (0,)))))
    return {
        "curv_scalar.json": ["curv", "--input", str(scalar), "--qmax", "6"],
        "curv_scalar.csv": ["curv", "--input", str(scalar), "--qmax", "4", "--format", "csv"],
        "curv_c_diagonal.json": ["curv-c", "--input", str(diagonal), "--qmax", "5"],
        "curv_c_single_factor.json": ["curv-c", "--input", str(single), "--qmax", "3"],
        "mult_mt.json": ["mult", "--input", str(mt), "--qmax", "6"],
        "mult_uncountable.json": ["mult", "--input", str(unc), "--qmax", "4"],
        "mult_coordinate_multiple.json": ["mult", "--input", str(cm), "--qmax", "4"],
        "beurling_mt.json": ["check", "beurling", "--input", str(mt)],
        "beurling_uncountable.json": ["check", "beurling", "--input", str(unc)],
        "beurling_coordinate_multiple.json": ["check", "beurling", "--input", str(cm)],
        "index_full.json": ["check", "index", "--input", str(mt_tuple), "--theta", str(mt_theta),
                            "--caps", "4"],
        "index_symmetric.json": ["check", "index", "--input", str(cm_tuple), "--theta", str(cm_theta),
                                 "--caps", "4,4"],
    }


def run_case(argv: list[str], out: Path) -> bytes:
    assert main(argv + ["--out", str(out)]) == 0
    return out.read_bytes()


def test_golden_outputs_byte_identical(tmp_path):
    cases = write_inputs(tmp_path)
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(cases)
    for name, argv in cases.items():
        got = run_case(argv, tmp_path / name)
        assert got == (GOLDEN / name).read_bytes(), name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in write_inputs(Path(tmp)).items():
            (GOLDEN / name).write_bytes(run_case(argv, Path(tmp) / name))
            print("wrote", GOLDEN / name, file=sys.stderr)

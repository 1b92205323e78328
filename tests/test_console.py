"""Console runs whose bytes do not depend on the number of threads BLAS runs.

Every command runs through ``cli.main`` in two child processes, one with BLAS on one thread and one with the
defaults; the kernel slabs run on the calling thread, so both write the same bytes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from conftest import commuting_tuple, random_polyball_tuple
from polyball.basis import Shape
from polyball.berezin import monomial_multiplier, multiplier_to_json
from polyball.cp import ampliation, matrix_to_pairs, tuple_to_json
from polyball.subspaces import compression_tuple, construct_mt, construct_nadic

CHILD = """
import json, sys
from polyball.berezin import verify_intertwining
from polyball.cli import main
from polyball.cp import tuple_from_json
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print(repr(verify_intertwining(tuple_from_json(open(sys.argv[2]).read()), (8, 6), "symmetric")))
"""
SRC = str(Path(__file__).resolve().parent.parent / "src")
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
CAVEAT = "characteristic function test failed; existence of the limit is unproved"


def write_inputs(tmp_path):
    """The input files of the runs, and the tuple of the symmetric intertwining check."""
    # a k = 2 tuple, and the k = 3 tuple n (2, 1, 2), whose letters of factors 1 and 2 write strided views
    seeded = {"seeded2": random_polyball_tuple(np.random.default_rng(1), (2, 2), (3, 3), 0.8),
              "seeded3": random_polyball_tuple(np.random.default_rng(1), (2, 1, 2), (2, 2, 2), 0.8)}
    # a commuting n (2, 2) tuple whose characteristic-function caveat fires, so the unit box refutes it
    rng = np.random.default_rng(1)
    commuting = ampliation([commuting_tuple(rng, 2, 3, 0.8), commuting_tuple(rng, 2, 3, 0.8)])
    # a commuting n (3, 2) tuple, whose letters 2 and 3 of the first factor are gathers, not views
    rng = np.random.default_rng(1)
    intertwine_sym = ampliation([commuting_tuple(rng, 3, 3, 0.8), commuting_tuple(rng, 2, 3, 0.8)])
    # the dimH-512 compression of the t = 1/2 suffix subspace, whose diagonal defect is read from its diagonal
    mt = compression_tuple(construct_mt(construct_nadic(2, 0.5), 9))
    texts = {name: tuple_to_json(t) for name, t in seeded.items()} | {
        "commuting": tuple_to_json(commuting),
        "intertwine_sym": tuple_to_json(intertwine_sym),
        # the diagonal single-factor tuple of tests/golden/curv_c_single_factor.json, whose unit box passes
        "single": json.dumps({"n": [2], "dimH": 2, "factors": [[[[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.25, 0.0]],
                                                                [[0.25, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]]]}),
        "mt512": tuple_to_json(mt),
        "mt512_pairs": json.dumps({"n": list(mt.shape.n), "dimH": mt.dimH,
                                   "factors": [[matrix_to_pairs(a) for a in row] for row in mt.factors]}),
        "letter1": multiplier_to_json(monomial_multiplier(Shape((2,)), 0, (1,))),
    }
    for name, text in texts.items():
        (tmp_path / f"{name}.json").write_text(text)
    assert '"nonzero"' in texts["mt512"]  # tuple_to_json writes the compression sparse
    return {name: str(tmp_path / f"{name}.json") for name in texts}


def test_console_bytes_are_independent_of_the_blas_thread_count(tmp_path):
    path = write_inputs(tmp_path)
    runs = {}
    for kind in ("intertwine", "connection"):
        for k, caps in ((2, "6,6"), (3, "3,3,3")):
            runs[f"{kind}{k}"] = ["check", kind, "--input", path[f"seeded{k}"], "--caps", caps, "--qmax", "6"]
    runs |= {
        "commuting": ["curv-c", "--input", path["commuting"], "--qmax", "6"],
        # at --qmax 0 the caveat is read on the unit box too, not on the empty interior of caps 1
        "commuting_qmax0": ["curv-c", "--input", path["commuting"], "--qmax", "0"],
        "single": ["curv-c", "--input", path["single"], "--qmax", "6"],
        "index": ["check", "index", "--input", path["mt512"], "--theta", path["letter1"], "--caps", "9"],
        "index_pairs": ["check", "index", "--input", path["mt512_pairs"], "--theta", path["letter1"], "--caps", "9"],
    }
    argv = json.dumps([[*cmd, "--out", f"{name}.json"] for name, cmd in runs.items()])
    env = {key: value for key, value in os.environ.items() if key not in ONE_THREAD} | {"PYTHONPATH": SRC}
    children = {}
    for threads, extra in (("one", ONE_THREAD), ("default", {})):
        (tmp_path / threads).mkdir()
        children[threads] = subprocess.Popen([sys.executable, "-c", CHILD, argv, path["intertwine_sym"]],
                                             cwd=tmp_path / threads, env=env | extra, stdout=subprocess.PIPE,
                                             stderr=subprocess.PIPE, text=True)
    printed = {}
    for threads, child in children.items():
        printed[threads], err = child.communicate(timeout=300)
        assert child.returncode == 0, err
    assert printed["one"] == printed["default"]
    out = {name: (tmp_path / "one" / f"{name}.json").read_bytes() for name in runs}
    for name in runs:
        assert (tmp_path / "default" / f"{name}.json").read_bytes() == out[name], name
    assert out["index_pairs"] == out["index"]
    assert b'"completion_residual": 0,' in out["index"]
    assert json.loads(out["commuting"])["caveats"] == json.loads(out["commuting_qmax0"])["caveats"] == [CAVEAT]
    assert json.loads(out["single"])["caveats"] == []

"""Smoke tests of the benchmark: every command and check at tiny sizes, traced and untraced.

No timing is asserted.  Run with ``python -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(args, root=ROOT):
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args], cwd=root,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    path = tmp_path_factory.mktemp("smoke") / "smoke.json"
    code, lines, err = run(["--smoke", "--result", str(path)])
    assert code == 0, err
    return json.loads(lines[-1]), json.loads(path.read_text()), path


def test_smoke_passes_every_check(smoke):
    last, full, _ = smoke
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    for name, res in full["workloads"].items():
        assert res["failed"] == 0, res["failures"]
        assert res["metrics"]["fail_frac"]["median"] == 0.0
        for metric in ("pass_s", "peak_rss_mib", "setup_s"):
            assert res["metrics"][metric]["n"] >= 1
        for metric in ("trace.overhead_frac", *LAYER_METRICS):
            assert f"{name}.{metric}" in last["metrics"]
    env = full["env"]
    for key in ("seed", "git_commit", "python", "numpy", "blas", "thread_pin", "nproc", "cpu_model"):
        assert key in env


def test_layers_are_attributed_to_their_workloads(smoke):
    _, full, _ = smoke
    m = {name: {k: v["median"] for k, v in res["metrics"].items()} for name, res in full["workloads"].items()}
    assert m["word-tuple"]["cp.cp_apply.calls"] > 0
    assert m["word-tuple"]["curvature.curvature_estimate.calls"] == 4  # two per curv
    assert m["word-tuple"]["subspaces.beurling_check.self_ms"] == 0
    assert m["word-subspace"]["subspaces.GradedSubspace.projection.out_mib"] > 0
    assert 0 < m["word-subspace"]["fock.GradedOperator.to_dense.fill"] <= 1
    assert m["sym-model"]["symmetric.SymFockTruncation.shift_data.calls"] > 0
    assert m["sym-model"]["berezin.BerezinKernel.kk_star_full.self_ms"] > 0
    for res in m.values():
        assert all(v == 0 for k, v in res.items() if k.endswith(".raised"))


def test_calls_repeat_exactly(smoke):
    _, full, _ = smoke
    code, lines, err = run(["--smoke", "--workload", "word-tuple"])
    assert code == 0, err
    again = json.loads(lines[-1])["metrics"]
    first = full["workloads"]["word-tuple"]["metrics"]
    calls = [k for k in LAYER_METRICS if k.endswith(".calls")]
    assert {k: again[k]["value"] for k in calls} == {k: first[k]["median"] for k in calls}


def test_compare_prints_ratios(smoke):
    _, _, path = smoke
    code, lines, err = run(["--compare", str(path), str(path)])
    assert code == 0, err
    assert any("pass_s" in ln and "ratio 1.0000" in ln for ln in lines)


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, lines, _ = run(["--workload", "word-tuple", "--seed", "1", "--seconds", "1", "--trace", "0"],
                         root=tmp_path)
    assert code != 0 and not any(ln.startswith("{") for ln in lines)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["word-tuple", "word-subspace", "sym-model"]
    assert {m["name"] for m in spec["end_to_end"]} == {"pass_s", "peak_rss_mib", "setup_s"}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == LAYER_METRICS | {"trace.overhead_frac": "frac"}

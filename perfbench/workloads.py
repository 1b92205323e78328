"""Seeded inputs, command lists and output checks of the benchmark workloads.

A workload is a list of ``Step``s: the argv of one ``polyball.cli.main`` call
and a check of what it wrote.  ``build`` draws every input from the seed,
writes the input files into the work directory and returns the steps; the
program only ever sees those files.  Checks hold for any seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from polyball.basis import Shape
from polyball.berezin import monomial_multiplier, multiplier_to_json
from polyball.cp import OperatorTuple, ampliation, tuple_to_json
from polyball.subspaces import compression_tuple, construct_mt, construct_nadic, cur0_subspace, subspace_to_json
from polyball.symmetric import SymFockTruncation, coordinate_multiple_subspace, sym_monomial_multiplier

ROW_NORM = 0.8
SLACK = 1e-12  # monotonicity slack, as in the library's numerical policy

# Problem sizes per workload; "smoke" runs every command and check in seconds.
SIZES = {
    "full": {
        "word-tuple": {"dims_a": (4, 4), "dims_b": (3, 3, 3), "qmax_a": 60, "qmax_b": 20,
                       "conn_caps": "6,6", "conn_qmax": 5},
        "word-subspace": {"mt_caps": 10, "unc_caps": 5, "tensor_caps": 5, "index_caps": 8},
        "sym-model": {"dim": 3, "qmax": 20, "cm_caps": 7, "index_caps": 10},
    },
    "smoke": {
        "word-tuple": {"dims_a": (2, 2), "dims_b": (2, 1, 1), "qmax_a": 6, "qmax_b": 4,
                       "conn_caps": "3,3", "conn_qmax": 2},
        "word-subspace": {"mt_caps": 5, "unc_caps": 3, "tensor_caps": 3, "index_caps": 4},
        "sym-model": {"dim": 2, "qmax": 5, "cm_caps": 3, "index_caps": 4},
    },
}


class CheckFailed(Exception):
    """An output that contradicts the mathematics it reports on."""


@dataclass(frozen=True)
class Step:
    label: str
    argv: list[str]
    check: Callable[[dict], None]
    out: Path


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# -- input generation ------------------------------------------------------------


def random_row_tuple(rng, n, dim, norm):
    """Single-factor tuple of random matrices, jointly scaled to row norm ``norm``."""
    mats = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)) for _ in range(n)]
    return _scaled_row(mats, n, dim, norm)


def commuting_row_tuple(rng, n, dim, norm):
    """Simultaneously diagonalisable row tuple; all entries commute."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    u, _ = np.linalg.qr(g)
    mats = [
        u @ np.diag(rng.uniform(0.2, 1.0, dim) * np.exp(2j * np.pi * rng.uniform(0, 1, dim))) @ u.conj().T
        for _ in range(n)
    ]
    return _scaled_row(mats, n, dim, norm)


def _scaled_row(mats, n, dim, norm):
    row = sum(m @ m.conj().T for m in mats)
    scale = norm / np.sqrt(np.linalg.norm(row, 2))
    return OperatorTuple(Shape((n,)), dim, (tuple(scale * m for m in mats),))


def polyball_tuple(rng, n, dims, row=random_row_tuple):
    """Cross-commuting tuple: the ampliation of independent row contractions."""
    return ampliation([row(rng, ni, di, ROW_NORM) for ni, di in zip(n, dims)])


# -- checks ------------------------------------------------------------------------


def non_decreasing(seq) -> bool:
    return all(b >= a - SLACK * max(1.0, abs(a)) for a, b in zip(seq, seq[1:]))


def check_curv(p: dict) -> None:
    expect(p["monotone_ok"] is True, "monotone_ok is false")
    expect(non_decreasing(p["bounds_chain"]), f"bounds_chain not non-decreasing: {p['bounds_chain']}")
    cross = p["formula_cross_check"]
    expect(abs(cross["operator_trace"] - cross["ratio"]) <= 1e-9,
           f"operator trace {cross['operator_trace']} != ratio {cross['ratio']}")


def check_curv_c(p: dict) -> None:
    expect(non_decreasing(p["corner_seq"][::-1]), "corner_seq not non-increasing")
    expect(0.0 <= p["estimate"] <= p["dimH"], f"estimate {p['estimate']} outside [0, dimH]")


def check_mult(limit: float | None = None, tol: float = 1e-6):
    def check(p: dict) -> None:
        total = p["estimate"] + p["compression_curvature_estimate"]
        expect(abs(total - p["dimE"]) <= 1e-12, f"estimate + curvature = {total} != dimE {p['dimE']}")
        if limit is not None:
            expect(p["exact_limit"] is not None and abs(p["exact_limit"] - limit) <= tol,
                   f"exact_limit {p['exact_limit']} != {limit}")
    return check


def check_beurling(p: dict) -> None:
    expect(p["positive"] is True, f"not positive (min eigenvalue {p['min_eigenvalue']})")


def check_within_tol(p: dict) -> None:
    expect(p["within_tol"] is True, f"max_residual {p['max_residual']} above tol {p['tol']}")


def check_index(lhs: float):
    def check(p: dict) -> None:
        expect(p["residual"] <= 1e-8, f"residual {p['residual']} above 1e-8")
        expect(abs(p["lhs"] - lhs) <= 1e-9, f"lhs {p['lhs']} != {lhs}")
    return check


def check_written(p: dict) -> None:
    expect(p.get("mode") == "structured", "construct wrote no structured subspace")


# -- workloads ---------------------------------------------------------------------


class _Builder:
    def __init__(self, work: Path):
        self.work = work
        self.steps: list[Step] = []

    def write(self, name: str, text: str) -> str:
        path = self.work / name
        path.write_text(text)
        return str(path)

    def step(self, label: str, argv: list[str], check) -> str:
        out = self.work / f"{len(self.steps):02d}-{label}.json"
        self.steps.append(Step(label, argv + ["--out", str(out)], check, out))
        return str(out)


def word_tuple(rng, b: _Builder, size: dict) -> None:
    ta = b.write("t_a.json", tuple_to_json(polyball_tuple(rng, (2, 2), size["dims_a"])))
    tb = b.write("t_b.json", tuple_to_json(polyball_tuple(rng, (1, 1, 1), size["dims_b"])))
    b.step("curv-a", ["curv", "--input", ta, "--qmax", str(size["qmax_a"])], check_curv)
    b.step("curv-b", ["curv", "--input", tb, "--qmax", str(size["qmax_b"])], check_curv)
    b.step("connection", ["check", "connection", "--input", ta, "--caps", size["conn_caps"],
                          "--qmax", str(size["conn_qmax"])], check_within_tol)
    b.step("intertwine", ["check", "intertwine", "--input", ta, "--caps", size["conn_caps"]],
           check_within_tol)


def word_subspace(rng, b: _Builder, size: dict) -> None:
    t_mt = float(rng.uniform(0.1, 0.9))
    t_unc = float(rng.uniform(0.2, 0.8))
    omega = float(rng.uniform(1.0 - t_unc, 1.0))
    t_part = float(rng.uniform(0.1, 0.9))
    caps = size["tensor_caps"]
    part_limit = construct_mt(construct_nadic(2, t_part), caps).limit * cur0_subspace(2, caps).limit
    fixture = compression_tuple(construct_mt(construct_nadic(2, 0.5), size["index_caps"]))
    idx_tuple = b.write("index_tuple.json", tuple_to_json(fixture))
    theta = b.write("theta.json", multiplier_to_json(monomial_multiplier(Shape((2,)), 0, (1,))))

    mt = b.step("construct-mt", ["construct", "mt", "--n", "2", "--t", repr(t_mt),
                                 "--caps", str(size["mt_caps"])], check_written)
    b.step("mult-mt", ["mult", "--input", mt, "--qmax", str(size["mt_caps"])], check_mult(1.0 - t_mt))
    b.step("beurling-mt", ["check", "beurling", "--input", mt], check_beurling)
    unc_caps = f"{size['unc_caps']},{size['unc_caps']}"
    unc = b.step("construct-uncountable", ["construct", "uncountable", "--t", repr(t_unc),
                                           "--omega", repr(omega), "--caps", unc_caps], check_written)
    b.step("mult-uncountable", ["mult", "--input", unc, "--qmax", str(size["unc_caps"])],
           check_mult(1.0 - t_unc))
    b.step("beurling-uncountable", ["check", "beurling", "--input", unc], check_beurling)
    part = b.step("construct-mt-part", ["construct", "mt", "--t", repr(t_part), "--caps", str(caps)],
                  check_written)
    cur0 = b.step("construct-cur0", ["construct", "cur0", "--caps", str(caps)], check_written)
    ten = b.step("construct-tensor", ["construct", "tensor", "--input", f"{part},{cur0}"], check_written)
    b.step("mult-tensor", ["mult", "--input", ten, "--qmax", str(caps)], check_mult(float(part_limit), tol=0.0))
    b.step("index", ["check", "index", "--input", idx_tuple, "--theta", theta,
                     "--caps", str(size["index_caps"])], check_index(0.5))


def sym_model(rng, b: _Builder, size: dict) -> None:
    t = b.write("t_c.json", tuple_to_json(
        polyball_tuple(rng, (2, 2), (size["dim"],) * 2, row=commuting_row_tuple)))
    factor, var = int(rng.integers(2)), int(rng.integers(1, 3))
    cm_caps = (size["cm_caps"],) * 2
    cm = b.write("cm.json", subspace_to_json(
        coordinate_multiple_subspace(SymFockTruncation(Shape((2, 2), caps=cm_caps)), factor, var)))
    caps = (size["index_caps"],) * 2
    fixture = compression_tuple(coordinate_multiple_subspace(SymFockTruncation(Shape((1, 1), caps=caps)), 0, 1))
    idx_tuple = b.write("index_tuple.json", tuple_to_json(fixture))
    theta = b.write("theta.json", multiplier_to_json(sym_monomial_multiplier(Shape((1, 1)), ((1,), (0,)))))

    b.step("curv-c", ["curv-c", "--input", t, "--qmax", str(size["qmax"])], check_curv_c)
    b.step("mult-cm", ["mult", "--input", cm, "--qmax", str(size["cm_caps"])], check_mult())
    b.step("beurling-cm", ["check", "beurling", "--input", cm], check_beurling)
    b.step("index", ["check", "index", "--input", idx_tuple, "--theta", theta,
                     "--caps", ",".join(map(str, caps))], check_index(0.0))


WORKLOADS = {"word-tuple": word_tuple, "word-subspace": word_subspace, "sym-model": sym_model}


def build(name: str, seed: int, size: str, work: Path) -> list[Step]:
    """Generate the inputs of workload ``name`` from ``seed`` and return its steps."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    b = _Builder(work)
    WORKLOADS[name](rng, b, SIZES[size][name])
    return b.steps


def check_step(step: Step, code) -> None:
    """Raise ``CheckFailed`` unless ``step`` exited 0 and its output passes its check."""
    expect(code == 0, f"exit code {code}")
    step.check(json.loads(step.out.read_text()))

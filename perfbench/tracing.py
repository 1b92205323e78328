"""Out-of-tree tracing of polyball: spans around the public functions of every module.

``Tracer.install`` replaces each public function of each ``polyball`` module
at every module binding (so ``from .cp import cp_apply`` in ``curvature`` is
traced too) and the listed methods on their classes; ``uninstall`` restores
them.  No file under ``src/`` changes.  Spans ``(name, start, end, parent)``
are kept in memory, written out by ``write``, and ``layer_metrics`` derives
per-pass ``calls``, ``self_ms`` and computed sizes from them.
"""

from __future__ import annotations

import importlib
import inspect
import json
import threading
import time
from collections import defaultdict

MODULES = ("basis", "cp", "fock", "curvature", "berezin", "subspaces", "symmetric", "cli")

# The CLI layer is its entry point: argument parsing, row building and
# rendering all count as ``cli.main`` self time.
ONLY = {"cli": ("main",)}

# Methods that do real work, traced on their class; ``arith`` groups the
# operator arithmetic under one span name.
METHODS = {
    "fock": {
        "FockTruncation": {"shift_data": "shift_data"},
        "GradedOperator": {
            "__add__": "arith", "__sub__": "arith", "__rmul__": "arith", "__matmul__": "arith",
            "adjoint": "adjoint", "to_dense": "to_dense",
            "min_eig_interior": "min_eig_interior", "norm_interior": "norm_interior",
        },
    },
    "berezin": {
        "BerezinKernel": {"kk_star_full": "kk_star_full", "kk_star_diag": "kk_star_diag"},
        "InnerMultiplier": {"materialize_blocks": "materialize_blocks"},
    },
    "subspaces": {"GradedSubspace": {"projection": "projection", "certify_invariance": "certify_invariance"}},
    "symmetric": {"SymFockTruncation": {"shift_data": "shift_data"}},
}

MIB = 2.0**20

# Listed per-layer metrics: name -> unit.  ``calls`` and ``self_ms`` are per
# pass; ``out_mib`` is the largest output of one call, computed from array
# shapes; ``to_dense.max_dim`` is the largest dense dimension and ``fill`` the
# share of the dense matrices that stored blocks cover.
LAYER_METRICS = {
    "cli.main.self_ms": "ms",
    "cp.cp_apply.calls": "count",
    "cp.cp_apply.self_ms": "ms",
    "cp.check_polyball.calls": "count",
    "cp.check_polyball.self_ms": "ms",
    "cp.defect_data.calls": "count",
    "cp.tuple_from_json.self_ms": "ms",
    "curvature.curvature_estimate.calls": "count",
    "curvature.curvature_estimate.self_ms": "ms",
    "curvature.grade_trace_table.self_ms": "ms",
    "curvature.subspace_curvature.self_ms": "ms",
    "fock.apply_cp_shift.calls": "count",
    "fock.apply_cp_shift.self_ms": "ms",
    "fock.apply_cp_shift.out_mib": "MiB-computed",
    "fock.GradedOperator.arith.self_ms": "ms",
    "fock.FockTruncation.shift_data.calls": "count",
    "fock.GradedOperator.to_dense.max_dim": "count",
    "fock.GradedOperator.to_dense.fill": "frac",
    "fock.GradedOperator.min_eig_interior.self_ms": "ms",
    "fock.GradedOperator.norm_interior.self_ms": "ms",
    "berezin.berezin_kernel.calls": "count",
    "berezin.berezin_kernel.self_ms": "ms",
    "berezin.berezin_kernel.out_mib": "MiB-computed",
    "berezin.curvature_operator_trace.self_ms": "ms",
    "berezin.verify_intertwining.self_ms": "ms",
    "berezin.connection_identity.calls": "count",
    "berezin.connection_identity.self_ms": "ms",
    "berezin.has_characteristic_function.self_ms": "ms",
    "berezin.BerezinKernel.kk_star_full.self_ms": "ms",
    "berezin.index_check_from_blocks.self_ms": "ms",
    "subspaces.beurling_check.self_ms": "ms",
    "subspaces.GradedSubspace.projection.self_ms": "ms",
    "subspaces.GradedSubspace.projection.out_mib": "MiB-computed",
    "subspaces.construct_mt.self_ms": "ms",
    "subspaces.tensor_subspace.self_ms": "ms",
    "subspaces.subspace_from_json.self_ms": "ms",
    "subspaces.multiplicity_estimate.self_ms": "ms",
    "symmetric.curv_c_estimate.self_ms": "ms",
    "symmetric.constrained_berezin.self_ms": "ms",
    "symmetric.SymFockTruncation.shift_data.calls": "count",
    "symmetric.SymFockTruncation.shift_data.self_ms": "ms",
    "symmetric.materialize_sym_multiplier.self_ms": "ms",
    "symmetric.m_c_estimate.self_ms": "ms",
    "basis.enumerate_words.calls": "count",
    "basis.grade_dim.calls": "count",
} | {f"{m}.raised": "count" for m in MODULES}


def _blocks_mib(blocks) -> float:
    return sum(b.nbytes for b in blocks.values()) / MIB


def _to_dense_stats(args, kwargs, out):
    self, grades = args[0], (args[1] if len(args) > 1 else kwargs.get("grades"))
    gset = set(self.trunc.grades if grades is None else grades)
    stored = sum(b.size for (src, dst), b in self.blocks.items() if src in gset and dst in gset)
    return {"max_dim": out.shape[0], "stored": stored, "dense": out.size}


def _out_mib(args, kwargs, out):
    return {"out_mib": _blocks_mib(out.blocks)}


# span name -> function(args, kwargs, result) -> sizes of that call
SIZE_HOOKS = {
    "fock.apply_cp_shift": _out_mib,
    "berezin.berezin_kernel": _out_mib,
    "subspaces.GradedSubspace.projection": _out_mib,
    "fock.GradedOperator.to_dense": _to_dense_stats,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name_id, start, end, parent record or None]
        self.sizes: dict[str, list[dict]] = defaultdict(list)
        self.raised: dict[str, int] = dict.fromkeys(MODULES, 0)
        self._local = threading.local()
        self._main_stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- span recording ---------------------------------------------------------

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._local.stack = self._main_stack if is_main else []
        return stack

    def _wrap(self, fn, name: str, module: str):
        nid = len(self.names)
        self.names.append(name)
        hook = SIZE_HOOKS.get(name)
        spans, raised, clock = self.spans, self.raised, time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack()
            # a worker thread's first span hangs under the caller blocked on it
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            rec = [nid, clock(), 0.0, parent]
            spans.append(rec)
            stack.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                raised[module] += 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                self.sizes[name].append(hook(args, kwargs, out))
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- patching ---------------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"polyball.{m}") for m in MODULES}
        mods["__init__"] = importlib.import_module("polyball")
        for short in MODULES:
            mod = mods[short]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or inspect.isclass(fn) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__ or inspect.isgeneratorfunction(fn):
                    continue
                if short in ONLY and attr not in ONLY[short]:
                    continue
                traced = self._wrap(fn, f"{short}.{attr}", short)
                for other in mods.values():
                    for name, value in list(vars(other).items()):
                        if value is fn:
                            self._patch(other, name, traced)
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for attr, span in methods.items():
                    self._patch(cls, attr, self._wrap(vars(cls)[attr], f"{short}.{cls_name}.{span}", short))

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results ------------------------------------------------------------------

    def span_table(self) -> tuple[list[str], list[tuple[int, float, float, int]]]:
        """Spans as ``(name_id, start, end, parent_index)`` rows, parent -1 for roots."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        rows = [
            (nid, start, end, -1 if parent is None else index[id(parent)])
            for nid, start, end, parent in self.spans
        ]
        return list(self.names), rows

    def write(self, path) -> None:
        names, rows = self.span_table()
        with open(path, "w") as fh:
            json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))

    def layer_metrics(self) -> dict[str, float]:
        """Every listed per-layer metric for the traced pass, 0 where a layer did not run."""
        names, rows = self.span_table()
        dur = [end - start for _, start, end, _ in rows]
        child = [0.0] * len(rows)
        for i, (_, _, _, parent) in enumerate(rows):
            if parent >= 0:
                child[parent] += dur[i]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i, (nid, _, _, _) in enumerate(rows):
            calls[names[nid]] += 1
            self_s[names[nid]] += dur[i] - child[i]
        stats: dict[str, float] = {}
        for name in set(names):
            stats[f"{name}.calls"] = calls[name]
            stats[f"{name}.self_ms"] = 1e3 * self_s[name]
        for name, sizes in self.sizes.items():
            if name == "fock.GradedOperator.to_dense":
                stats[f"{name}.max_dim"] = max(s["max_dim"] for s in sizes)
                dense = sum(s["dense"] for s in sizes)
                stats[f"{name}.fill"] = sum(s["stored"] for s in sizes) / dense if dense else 0.0
            else:
                stats[f"{name}.out_mib"] = max(s["out_mib"] for s in sizes)
        for module, count in self.raised.items():
            stats[f"{module}.raised"] = count
        return {metric: float(stats.get(metric, 0.0)) for metric in LAYER_METRICS}

"""Command-line front end: estimators, identity checks, and subspace constructions.

Output is deterministic: tables are sorted lexicographically by multi-degree
and floats are printed with 17 significant digits, so identical inputs
produce byte-identical output.

Exit codes: 0 success, 1 bad input (including usage errors), 2 polyball
membership failure, 3 numerical instability.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache

import numpy as np

from .basis import iter_grades
from .berezin import (
    INTERTWINE_TOL,
    berezin_kernel,
    connection_identity,
    curvature_operator_trace,
    index_formula_check,
    kernel_tail_bound,
    multiplier_from_json,
    verify_intertwining,
)
from .cp import MembershipError, tuple_from_json
from .curvature import NumericalInstabilityError, bounds_report, curvature_estimate
from .subspaces import (
    beurling_check,
    construct_mt,
    construct_nadic,
    cur0_subspace,
    multiplicity_estimate,
    subspace_from_json,
    subspace_to_json,
    tensor_subspace,
    uncountable_family,
)
from .symmetric import constrained_berezin, curv_c_estimate, m_c_estimate


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


@lru_cache(maxsize=1024, typed=True)
def _json_key(key) -> str:
    return json.dumps(str(key)) + ": "


class _Rendered(str):
    """JSON text written verbatim by ``_render_json``."""


def _render_json(value, indent: int = 0) -> str:
    """Deterministic JSON rendering with 17-significant-digit floats."""
    if isinstance(value, _Rendered):
        return value
    if isinstance(value, float):
        # fmt, inlined: a table renders thousands of floats
        return f"{value:.17g}" if math.isfinite(value) else "null"  # JSON has no NaN or inf
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if value is None:
        return "null"
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{pad}  {_json_key(k)}{_render_json(v, indent + 1)}" for k, v in value.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{pad}  {_render_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    return json.dumps(value)


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_caps(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _grade_columns(table, cesaro, defect_product, value_key, empty):
    """Header and formatted columns of a grade table; ``empty`` fills cells without a value.

    Rows follow the lexicographic order of the multi-degrees, the C order of
    ``table.array``.  A Cesaro mean depends only on ``|q|`` and a defect product
    only on the diagonal index, so each of those values is formatted once.
    """
    def cells(seq):
        return [f"{v:.17g}" if math.isfinite(v) else empty for v in seq]

    values = table.array
    index = np.indices(values.shape).reshape(values.ndim, -1)
    ints = [str(v) for v in range(max(values.shape))]
    columns = [[ints[v] for v in axis] for axis in index.tolist()]
    columns.append(cells(values.ravel().tolist()))
    degree = index.sum(axis=0).tolist()
    ces = cells(cesaro) + [empty] * (max(degree) + 1 - len(cesaro))
    columns.append([ces[m] for m in degree])
    if defect_product is None:
        columns.append([empty] * values.size)
    else:
        diag = cells(defect_product)
        on_diag = (index == index[0]).all(axis=0).tolist()
        columns.append([diag[q] if d else empty for q, d in zip(index[0].tolist(), on_diag)])
    header = [f"q{i + 1}" for i in range(values.ndim)] + [value_key, "cesaro", "defect_product"]
    return header, columns


def _emit_grade_table(payload: dict, table, cesaro, defect_product, value_key, args) -> None:
    """The payload with its grade table, written straight from the table's columns."""
    if args.format == "csv":
        header, columns = _grade_columns(table, cesaro, defect_product, value_key, "")
        lines = [",".join(header)] + [",".join(row) for row in zip(*columns)]
        _write("\n".join(lines) + "\n", args.out)
        return
    header, columns = _grade_columns(table, cesaro, defect_product, value_key, "null")
    # one table row at indent 2 of the payload: keys at 6 spaces, braces at 4
    row = "    {{\n" + ",\n".join(f"      {_json_key(h)}{{}}" for h in header) + "\n    }}"
    rows = ",\n".join(row.format(*cells) for cells in zip(*columns))
    _write(_render_json(payload | {"table": _Rendered(f"[\n{rows}\n  ]")}) + "\n", args.out)


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return json.dumps(v)
    if isinstance(v, float):
        return fmt(v) if math.isfinite(v) else ""
    if isinstance(v, (list, tuple)):
        return ";".join(_csv_cell(x) for x in v)
    return str(v)


def _rows_to_csv(rows) -> str:
    if not rows:
        return "\n"
    header = list(rows[0].keys())
    lines = [",".join(header)] + [",".join(_csv_cell(row[key]) for key in header) for row in rows]
    return "\n".join(lines) + "\n"


def _emit(payload: dict, rows, args) -> None:
    """JSON payload with the table, or CSV of the table (of the payload as one row if none)."""
    if args.format == "csv":
        _write(_rows_to_csv([payload] if rows is None else rows), args.out)
    else:
        if rows is not None:
            payload = payload | {"table": rows}
        _write(_render_json(payload) + "\n", args.out)


def cmd_curv(args) -> int:
    with open(args.input) as fh:
        t = tuple_from_json(fh.read())
    est = curvature_estimate(t, args.qmax)
    bounds = bounds_report(t, args.qmax)
    depth = min(args.qmax, 3)
    kb = berezin_kernel(t, (depth + 1,) * t.k)
    op_trace = curvature_operator_trace(kb, (depth,) * t.k)
    cross = {
        "depth": depth,
        "ratio": est.grade_values[(depth,) * t.k],
        "cesaro": est.cesaro_seq[depth],
        "defect_product": est.defect_product_seq[depth],
        "operator_trace": op_trace.value,
    }
    by_formula = {
        "ratio": est.estimate,
        "cesaro": est.cesaro_seq[-1],
        "defect-product": est.defect_product_seq[-1],
        "operator-trace": op_trace.value,
    }
    payload = {
        "command": "curv",
        "n": list(t.shape.n),
        "dimH": t.dimH,
        "qmax": args.qmax,
        "formula": args.formula,
        "estimate": by_formula[args.formula],
        "corner_estimate": est.estimate,
        "error_proxy": est.error_proxy,
        "formula_spread": est.formula_spread,
        "monotone_ok": est.monotone_ok,
        "bounds_chain": [0.0, bounds.estimate, bounds.defect_trace, float(bounds.rank)],
        "formula_cross_check": cross,
        "corner_seq": list(est.corner_seq),
        "cesaro_seq": list(est.cesaro_seq),
        "defect_product_seq": list(est.defect_product_seq),
    }
    _emit_grade_table(payload, est.grade_values, est.cesaro_seq, est.defect_product_seq, "x_q", args)
    return 0


def cmd_curv_c(args) -> int:
    with open(args.input) as fh:
        t = tuple_from_json(fh.read())
    est = curv_c_estimate(t, args.qmax)
    payload = {
        "command": "curv-c",
        "n": list(t.shape.n),
        "dimH": t.dimH,
        "qmax": args.qmax,
        "estimate": est.estimate,
        "error_proxy": est.error_proxy,
        "formula_spread": est.formula_spread,
        "monotone_ok": est.monotone_ok,
        "caveats": list(est.caveats),
        "corner_seq": list(est.corner_seq),
        "cesaro_seq": list(est.cesaro_seq),
        "factorial_form_seq": [None] + [float(v) for v in est.defect_product_seq[1:]],
    }
    _emit_grade_table(payload, est.grade_values, est.cesaro_seq, None, "x_q", args)
    return 0


def cmd_mult(args) -> int:
    with open(args.input) as fh:
        sub = subspace_from_json(fh.read())
    qmax = min(args.qmax, min(sub.truncation.shape.caps))
    if sub.truncation.model == "symmetric":
        rep = m_c_estimate(sub, qmax)
        est = rep.estimate
        extra = {
            "model": "symmetric",
            "beurling_positive": rep.beurling.positive,
            "beurling_min_eigenvalue": rep.beurling.min_eigenvalue,
            "caveats": list(rep.caveats),
        }
    else:
        est = multiplicity_estimate(sub, qmax)
        extra = {"model": "full"}
    payload = {
        "command": "mult",
        "n": list(sub.truncation.shape.n),
        "dimE": sub.truncation.coeff_dim,
        "qmax": qmax,
        "estimate": est.estimate,
        "error_proxy": est.error_proxy,
        "exact_limit": None if est.exact_limit is None else float(est.exact_limit),
        "compression_curvature_estimate": est.curvature.estimate,
    } | extra
    _emit_grade_table(payload, est.grade_values, est.cesaro_seq, None, "y_q", args)
    return 0


def cmd_construct(args) -> int:
    kind = args.kind
    if kind in ("mt", "cur0") and len(args.caps) != 1:
        raise ValueError(f"construct {kind} has one factor: --caps takes one cap, got {list(args.caps)}")
    if kind == "mt":
        exp = construct_nadic(args.n, args.t, args.terms)
        sub = construct_mt(exp, args.caps[0])
    elif kind == "cur0":
        sub = cur0_subspace(args.n, args.caps[0])
    elif kind == "uncountable":
        sub = uncountable_family(args.t, args.omega, args.caps, n_terms=args.terms)
    elif kind == "tensor":
        if args.input is None:
            raise ValueError("construct tensor needs --input")
        parts = []
        for path in args.input.split(","):
            with open(path) as fh:
                parts.append(subspace_from_json(fh.read()))
        sub = tensor_subspace(parts)
    else:
        raise ValueError(f"unknown construction {kind!r}")
    _write(subspace_to_json(sub) + "\n", args.out)
    return 0


def cmd_check_beurling(args) -> int:
    with open(args.input) as fh:
        sub = subspace_from_json(fh.read())
    v = beurling_check(sub)
    payload = {
        "command": "check",
        "kind": "beurling",
        "positive": v.positive,
        "min_eigenvalue": v.min_eigenvalue,
        "interior_grades": v.residual_grades,
    }
    _emit(payload, None, args)
    return 0


def _tuple_and_caps(args):
    """The input tuple and the kernel caps: ``--caps``, else ``qmax + 1`` per factor.

    A negative ``--qmax`` or cap is refused before the input is read.
    """
    if args.qmax < 0:
        raise ValueError(f"q_max must be >= 0, got {args.qmax}")
    if args.caps is not None and min(args.caps) < 0:
        raise ValueError(f"caps must be >= 0, got {args.caps}")
    with open(args.input) as fh:
        t = tuple_from_json(fh.read())
    return t, args.caps if args.caps else (args.qmax + 1,) * t.k


def cmd_check_connection(args) -> int:
    """Residuals on the grades ``q <= min(qmax, caps)``, from a kernel built on that box only.

    Kernel rows of a grade depend only on lower grades, so the residuals are
    those of the kernel at ``--caps``; the size budget and the tail bound are
    taken at ``--caps``.
    """
    t, caps = _tuple_and_caps(args)
    box = tuple(min(args.qmax, c) for c in caps)
    kb = berezin_kernel(t, box, budget_caps=caps)
    grades = sorted(iter_grades(box))
    resids = [connection_identity(kb, q)[2] for q in grades]
    rows = [
        {f"q{i + 1}": q[i] for i in range(t.k)} | {"residual": r}
        for q, r in zip(grades, resids)
    ]
    payload = {
        "command": "check",
        "kind": "connection",
        "caps": list(caps),
        "max_residual": max(resids),
        "tail_bound": kernel_tail_bound(t, caps),
        "tol": args.tol,
        "within_tol": max(resids) <= args.tol,
    }
    _emit(payload, rows, args)
    return 0


def cmd_check_intertwine(args) -> int:
    t, caps = _tuple_and_caps(args)
    resid = verify_intertwining(t, caps)
    payload = {
        "command": "check",
        "kind": "intertwine",
        "caps": list(caps),
        "max_residual": resid,
        "tol": args.tol,
        "within_tol": resid <= args.tol,
    }
    _emit(payload, None, args)
    return 0


def cmd_check_index(args) -> int:
    t, caps = _tuple_and_caps(args)
    with open(args.theta) as fh:
        theta = multiplier_from_json(fh.read())
    blocks = theta.materialize_blocks(caps)  # first: at large caps these, not the kernel, exceed the size budget
    kernel = constrained_berezin if theta.model == "symmetric" else berezin_kernel
    kb = kernel(t, caps)
    chk = index_formula_check(kb, theta, blocks=blocks)
    payload = {
        "command": "check",
        "kind": "index",
        "model": theta.model,
        "lhs": chk.lhs,
        "rhs": chk.rhs,
        "residual": chk.residual,
        "completion_residual": chk.completion_residual,
        "rank": kb.defect.rank,
    }
    _emit(payload, None, args)
    return 0


def cmd_demo(args) -> int:
    lines = []
    r = 0.5
    t_json = json.dumps({"n": [1], "dimH": 1, "factors": [[[[r, 0.0]]]]})
    t = tuple_from_json(t_json)
    est = curvature_estimate(t, 6)
    lines.append(f"scalar tuple r={r}: curvature corner sequence")
    lines.append("  " + " ".join(fmt(v) for v in est.corner_seq))
    exp = construct_nadic(2, 0.5)
    sub = construct_mt(exp, 8)
    mult = multiplicity_estimate(sub, 8)
    lines.append("suffix subspace at t=0.5: per-grade occupation " + fmt(mult.estimate)
                 + ", exact limit " + fmt(float(mult.exact_limit)))
    v = beurling_check(sub)
    lines.append(f"its positivity test: {v.positive} (min eigenvalue {fmt(v.min_eigenvalue)})")
    fam = uncountable_family(0.3, 0.75, (8, 8))
    from .curvature import subspace_curvature

    curv = subspace_curvature(fam, 8)
    lines.append("two-factor family at t=0.3: compression curvature limit "
                 + fmt(float(curv.exact_limit)))
    _write("\n".join(lines) + "\n", args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors raise, so ``main`` reports them as invalid input with exit code 1."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polyball",
        description="curvature and multiplicity invariants of operator tuples on regular polyballs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, qmax=True):
        p.add_argument("--input", required=True, help="input JSON path")
        if qmax:
            p.add_argument("--qmax", type=int, default=6)
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--out", default=None)

    p_curv = sub.add_parser("curv", help="curvature of an operator tuple")
    common(p_curv)
    p_curv.add_argument("--formula", choices=["ratio", "cesaro", "defect-product", "operator-trace"],
                        default="ratio")
    p_curv.set_defaults(func=cmd_curv)

    p_curvc = sub.add_parser("curv-c", help="commutative curvature of an operator tuple")
    common(p_curvc)
    p_curvc.set_defaults(func=cmd_curv_c)

    p_mult = sub.add_parser("mult", help="multiplicity of an invariant subspace")
    common(p_mult)
    p_mult.set_defaults(func=cmd_mult)

    p_con = sub.add_parser("construct", help="write a subspace JSON")
    p_con.add_argument("kind", choices=["mt", "tensor", "cur0", "uncountable"])
    p_con.add_argument("--input", default=None, help="comma-separated part files (tensor)")
    p_con.add_argument("--n", type=int, default=2)
    p_con.add_argument("--t", type=float, default=0.5)
    p_con.add_argument("--omega", type=float, default=0.75)
    p_con.add_argument("--terms", type=int, default=20)
    p_con.add_argument("--caps", type=_parse_caps, default=(8,))
    p_con.add_argument("--out", default=None)
    p_con.set_defaults(func=cmd_construct)

    p_chk = sub.add_parser("check", help="identity and positivity checks")
    checks = p_chk.add_subparsers(dest="kind", required=True)
    p_beur = checks.add_parser("beurling", help="positivity test of an invariant subspace")
    common(p_beur, qmax=False)
    p_beur.set_defaults(func=cmd_check_beurling)
    for kind, func, text in (
        ("connection", cmd_check_connection, "Berezin kernel connection identity per grade"),
        ("intertwine", cmd_check_intertwine, "Berezin kernel intertwining residual"),
        ("index", cmd_check_index, "index formula of an inner multiplier"),
    ):
        p = checks.add_parser(kind, help=text)
        common(p)
        p.add_argument("--caps", type=_parse_caps, default=None, help="kernel caps a,b,... (default qmax+1)")
        if kind == "index":
            p.add_argument("--theta", required=True, help="multiplier JSON")
        else:
            p.add_argument("--tol", type=float, default=INTERTWINE_TOL, help="residual tolerance")
        p.set_defaults(func=func)

    p_demo = sub.add_parser("demo", help="small showcase run")
    p_demo.add_argument("--out", default=None)
    p_demo.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except MembershipError as exc:
        payload = {"error": "membership", "reason": str(exc), "p": list(exc.p),
                   "eigenvalue": exc.eigenvalue}
        sys.stderr.write(_render_json(payload) + "\n")
        return 2
    except NumericalInstabilityError as exc:
        sys.stderr.write(_render_json({"error": "numerical-instability", "reason": str(exc)}) + "\n")
        return 3
    except json.JSONDecodeError as exc:
        payload = {"error": "parse", "reason": exc.msg, "line": exc.lineno, "column": exc.colno}
        sys.stderr.write(_render_json(payload) + "\n")
        return 1
    except (OSError, ValueError, KeyError, OverflowError) as exc:
        sys.stderr.write(_render_json({"error": "invalid-input", "reason": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Exit codes: 0 success, 1 usage or parse error, 2 domain error (a theorem
hypothesis or construction precondition fails), 3 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .catalog import verify_catalog
from .errors import ConditionLViolation, DomainError
# The snf matrix cap also caps --truncate, --max-vertices, --max-n and the
# total tail length of desingularize, bounding output and elimination work.
from .graphio import MATRIX_CAP as _SIZE_CAP, emit_graph, parse_graph, parse_matrix
from .graphs import condition_l, is_row_finite, singular_vertices
from .harness import (
    EA_LIMITS,
    EA_NOTE,
    RandomGraphParams,
    ea_table,
    format_report,
    report_json,
    run_properties,
)
from .intlinalg import AbelianGroup, IntMatrix, det_bareiss, group_format, snf
from .ktheory import ext_group, k_groups
from .tails import desingularize


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _dumps(payload) -> str:
    return json.dumps(payload, separators=(",", ":"))


def _group_json(g: AbelianGroup) -> dict:
    return {"rank": g.free_rank, "torsion": list(g.torsion)}


def _check_cap(flag: str, value: int) -> None:
    if value > _SIZE_CAP:
        raise ValueError(f"{flag} must be at most {_SIZE_CAP}, got {value}")


def _load_graph(path: str):
    return parse_graph(Path(path).read_text())


def _cmd_info(args) -> int:
    g = _load_graph(args.file)
    sing = singular_vertices(g)
    print(f"vertices: {len(g.vertices)}")
    print("singular set: " + (" ".join(sing) if sing else "(none)"))
    print(f"regular count: {len(g.vertices) - len(sing)}")
    print(f"singular count: {len(sing)}")
    print(f"row-finite: {'yes' if is_row_finite(g) else 'no'}")
    _print_condition_l(g)
    return 0


def _print_condition_l(g) -> bool:
    """Print the condition (L) line and return whether (L) holds."""
    holds, witness = condition_l(g)
    print("condition (L): " + ("holds" if holds else "fails; witness: " + " ".join(witness)))
    return holds


def _cmd_ktheory(args) -> int:
    g = _load_graph(args.file)
    r = k_groups(g)
    if args.json:
        print(_dumps({"k0": _group_json(r.k0), "k1": _group_json(r.k1)}))
    else:
        print(f"K0 = {group_format(r.k0)}")
        print(f"K1 = {group_format(r.k1)}")
    return 0


def _cmd_ext(args) -> int:
    g = _load_graph(args.file)
    try:
        res = ext_group(g, force=args.force)
    except ConditionLViolation as e:
        if args.json:
            print(_dumps({"error": "condition (L) fails", "witness": list(e.witness)}))
        else:
            print(str(e))
            print("use --force to evaluate the formula anyway")
        return 2
    label = None if res.condition_l_holds else "formula value; theorem hypothesis unmet"
    if args.json:
        payload = {
            "ext": _group_json(res.ext),
            "condition_l_holds": res.condition_l_holds,
        }
        if label:
            payload["label"] = label
        print(_dumps(payload))
    else:
        text = f"Ext = {group_format(res.ext)}"
        if label:
            text += f" ({label})"
        print(text)
    return 0


def _cmd_desingularize(args) -> int:
    _check_cap("--truncate", args.truncate)
    g = _load_graph(args.file)
    # Every singular vertex gets its own tail. Declared-singular vertices
    # get none: desingularize rejects them as a domain error.
    tails = len(singular_vertices(g))
    if not g.declared_singular and tails * args.truncate > _SIZE_CAP:
        raise ValueError(
            f"--truncate {args.truncate} on {tails} singular vertices adds "
            f"{tails * args.truncate} vertices, more than {_SIZE_CAP}"
        )
    orderings = {}
    for item in args.order or []:
        v, sep, rest = item.partition(":")
        if not sep or not v:
            raise ValueError(f"--order expects '<vertex>:<t1>,<t2>,...', got {item!r}")
        if v in orderings:
            raise ValueError(f"--order given twice for {v!r}")
        orderings[v] = [t for t in rest.split(",") if t]
    out = desingularize(g, args.truncate, orderings or None)
    text = emit_graph(out)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_check_l(args) -> int:
    return 0 if _print_condition_l(_load_graph(args.file)) else 2


def _cmd_snf(args) -> int:
    m = parse_matrix(Path(args.matrixfile).read_text())
    res = snf(m)
    diag = res.s.diagonal()
    factors = diag[:res.rank]
    # S must be M-shaped, with the first rank entries of its diagonal on the
    # diagonal and zeros everywhere else
    s = IntMatrix.from_rows(([factors[i] if i == j < len(factors) else 0 for j in range(m.cols)]
                             for i in range(m.rows)), cols=m.cols)
    verified = (
        0 <= res.rank <= min(m.rows, m.cols)
        and res.s == s
        and res.u @ m @ res.v == s
        and abs(det_bareiss(res.u)) == 1
        and abs(det_bareiss(res.v)) == 1
        and all(d >= 1 for d in factors)
        and all(b % a == 0 for a, b in zip(factors, factors[1:]))
    )
    if not verified:
        print("internal error: normal form verification failed", file=sys.stderr)
        return 3
    if args.json:
        print(
            _dumps(
                {
                    "rows": m.rows,
                    "cols": m.cols,
                    "rank": res.rank,
                    "diagonal": list(diag),
                }
            )
        )
    else:
        print(f"rows: {m.rows}")
        print(f"cols: {m.cols}")
        print(f"rank: {res.rank}")
        print("diagonal: " + (" ".join(str(d) for d in diag) if diag else "(empty)"))
    return 0


def _cmd_experiment_ea(args) -> int:
    _check_cap("--max-n", args.max_n)
    rows = ea_table(args.max_n)
    if args.json:
        payload = {
            "family": "ea",
            "truncations": [
                {"n": n, "k0": _group_json(k0), "k1": _group_json(k1)}
                for n, k0, k1 in rows
            ],
            "limits": {
                name: {k: _group_json(g) for k, g in groups.items()}
                for name, groups in EA_LIMITS.items()
            },
            "note": EA_NOTE,
        }
        print(_dumps(payload))
        return 0
    print(f"{'n':>4}  {'K0':<12} {'K1':<12}")
    for n, k0, k1 in rows:
        print(f"{n:>4}  {group_format(k0):<12} {group_format(k1):<12}")
    print()
    ga = EA_LIMITS["graph_algebra"]
    el = EA_LIMITS["exel_laca"]
    print(
        "infinite graph (known value, not computed): "
        f"K0 = {group_format(ga['k0'])}, K1 = {group_format(ga['k1'])}"
    )
    print(
        "Exel-Laca algebra of the same matrix (known value): "
        f"K0 = {group_format(el['k0'])}, K1 = {group_format(el['k1'])}"
    )
    print(EA_NOTE)
    return 0


def _cmd_harness(args) -> int:
    _check_cap("--max-vertices", args.max_vertices)
    params = RandomGraphParams(seed=args.seed, max_vertices=args.max_vertices)
    report = run_properties(params, args.count)
    report.catalog_problems = verify_catalog()
    if args.json:
        print(_dumps(report_json(report)))
    else:
        print(format_report(report))
    return 0 if report.ok else 2


def _build_parser() -> _Parser:
    p = _Parser(prog="graphkt", description="Invariants of graph C*-algebras.")
    sub = p.add_subparsers(dest="command", metavar="command", required=True,
                           parser_class=_Parser)

    sp = sub.add_parser("info", help="summarize a graph file")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_info)

    sp = sub.add_parser("ktheory", help="print K0 and K1")
    sp.add_argument("file")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_ktheory)

    sp = sub.add_parser("ext", help="print Ext (requires condition (L))")
    sp.add_argument("file")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--force", action="store_true",
                    help="evaluate the formula even when condition (L) fails")
    sp.set_defaults(func=_cmd_ext)

    sp = sub.add_parser("desingularize", help="add truncated tails at singular vertices")
    sp.add_argument("file")
    sp.add_argument("--truncate", type=int, required=True, metavar="N",
                    help="tail length")
    sp.add_argument("-o", "--output", metavar="FILE")
    sp.add_argument("--order", action="append", metavar="V:W1,W2,...",
                    help="target order for one singular vertex (repeatable)")
    sp.set_defaults(func=_cmd_desingularize)

    sp = sub.add_parser("check-l", help="exit 0 when condition (L) holds")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_check_l)

    sp = sub.add_parser("snf", help="Smith normal form of a matrix file")
    sp.add_argument("matrixfile")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_snf)

    sp = sub.add_parser("experiment", help="built-in experiment families")
    esub = sp.add_subparsers(dest="family", metavar="family", required=True,
                             parser_class=_Parser)
    ea = esub.add_parser("ea", help="truncations of the infinite {0,1} matrix family")
    ea.add_argument("--max-n", type=int, required=True, dest="max_n")
    ea.add_argument("--json", action="store_true")
    ea.set_defaults(func=_cmd_experiment_ea)

    sp = sub.add_parser("harness", help="randomized property suite")
    sp.add_argument("--count", type=int, default=200)
    sp.add_argument("--max-vertices", type=int, default=8, dest="max_vertices")
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_harness)

    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except DomainError as e:
        print(str(e))
        return 2
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # anything else is a bug in this package
        print(f"internal error: {e!r}", file=sys.stderr)
        return 3

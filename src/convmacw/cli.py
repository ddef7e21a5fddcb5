"""Command line front end: parse code-description documents, run the
pipelines, and emit reports.

A code document is UTF-8 JSON:

    {
      "label": "optional name",
      "field": {"p": 2, "s": 1},            # modulus digits for s > 1
      "generator": [["1+z+z^3", "z^2", "z^2", "1", "z"],
                    ["1", "1", "0", "1", "0"]]
    }

Exit codes: 0 verified/ok, 1 usage or parse error, 2 size guard
exceeded, 3 counterexample candidate or rejected witness, 4 internal
check failed (a proved identity did not hold: a bug).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import adjacency as adjmod
from . import duality as dualmod
from .errors import GuardExceeded, InternalCheckError
from .field import FieldSpec
from .linalg import FMat
from .polymat import (PolyMatrix, basic_diagnostic, dual_generator, is_minimal,
                      make_minimal_basic)
from .statespace import coefficient_code, constant_code, controller_form, degree_guard


class CodeDocument:
    """Parsed code description: a field and a generator matrix."""

    def __init__(self, field: FieldSpec, generator: PolyMatrix,
                 label: str | None = None):
        self.field = field
        self.generator = generator
        self.label = label

    @classmethod
    def from_dict(cls, data: dict) -> "CodeDocument":
        if not isinstance(data, dict):
            raise ValueError("document root must be a JSON object")
        if "field" not in data or "generator" not in data:
            raise ValueError('document needs "field" and "generator" keys')
        fdecl = data["field"]
        if not isinstance(fdecl, dict) or "p" not in fdecl:
            raise ValueError('"field" must be an object with at least "p"')
        p, s, modulus = fdecl["p"], fdecl.get("s", 1), fdecl.get("modulus")
        # a JSON integer loads as int; true, 2.5, "3" and "111" do not
        if (modulus is not None and not isinstance(modulus, list)) or any(
                type(v) is not int for v in [p, s, *(modulus or ())]):
            raise ValueError('"field" entries must be integers')
        field = FieldSpec(p, s, modulus)
        grid = data["generator"]
        if (not isinstance(grid, list) or not grid
                or any(not isinstance(r, list) or not r for r in grid)):
            raise ValueError('"generator" must be a non-empty grid of strings')
        widths = {len(r) for r in grid}
        if len(widths) != 1:
            raise ValueError("generator rows have inconsistent lengths")
        gen = PolyMatrix.from_strings(field, grid)
        label = data.get("label")
        if label is not None and not isinstance(label, str):
            raise ValueError('"label" must be a string')
        return cls(field, gen, label)

    @classmethod
    def from_path(cls, path: str) -> "CodeDocument":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as e:
            raise ValueError(f"cannot read {path}: {e}") from None
        except json.JSONDecodeError as e:
            raise ValueError(
                f"{path}: JSON error at line {e.lineno}, column {e.colno}: {e.msg}"
            ) from None
        return cls.from_dict(data)

    def field_dict(self) -> dict:
        out = {"p": self.field.p, "s": self.field.s}
        if self.field.modulus is not None:
            out["modulus"] = list(self.field.modulus)
        return out

    def to_dict(self) -> dict:
        out = {}
        if self.label is not None:
            out["label"] = self.label
        out["field"] = self.field_dict()
        out["generator"] = self.generator.to_strings()
        return out


def _emit_json(obj) -> int:
    print(json.dumps(obj, indent=2))
    return 0


def _parse_limits(args) -> dict:
    """The --limit overrides, each a guard the command applies."""
    out = {}
    for item in args.limit or []:
        name, _, value = item.partition("=")
        if not value:
            raise ValueError(f"--limit wants NAME=VALUE, got {item!r}")
        if name not in args.limit_names:
            raise ValueError(f"unknown limit {name!r} for {args.command}; "
                             f"accepted: {', '.join(args.limit_names)}")
        if not value.isdecimal() or int(value) < 1:
            raise ValueError(f"--limit {name} wants a positive integer, got {value!r}")
        out[name] = int(value)
    return out


def _require_minimal(doc: CodeDocument) -> PolyMatrix:
    G = doc.generator
    diagnostic = basic_diagnostic(G)
    if diagnostic is not None:
        raise ValueError("generator is not basic: " + diagnostic)
    if not is_minimal(G)[0]:
        raise ValueError(
            "generator is basic but not minimal; re-encode with a minimal "
            "generator (row degrees must sum to the code degree)"
        )
    return G


def cmd_info(args) -> int:
    doc = CodeDocument.from_path(args.file)
    G = doc.generator
    diagnostic = basic_diagnostic(G)
    basic = diagnostic is None
    info: dict = {
        "label": doc.label,
        "field": doc.field_dict(),
        "n": G.ncols,
        "k": G.nrows,
        "basic": basic,
    }
    if not basic:
        info["diagnostic"] = diagnostic
        if args.format == "json":
            _emit_json(info)
        else:
            print(f"(n, k) = ({G.ncols}, {G.nrows})")
            print("basic: no")
            print(f"diagnostic: {info['diagnostic']}")
        return 1
    minimal, indices = is_minimal(G)
    info["minimal"] = minimal
    cf = controller_form(G if minimal else make_minimal_basic(G))
    if not minimal:
        info["note"] = "invariants computed from a canonicalized minimal encoder"
    prof = cf.profile
    const = constant_code(cf)
    coeff, r_hat = coefficient_code(cf)
    info.update({
        "delta": prof.delta,
        "forney_indices": list(prof.forney_indices),
        "r": prof.r,
        "r_hat": r_hat,
        "dim_constant_code": const.dim,
        "dim_coefficient_code": coeff.dim,
        "constant_code_basis": [list(row) for row in const.basis],
        "coefficient_code_basis": [list(row) for row in coeff.basis],
    })
    if args.format == "json":
        return _emit_json(info)
    if doc.label:
        print(f"label: {doc.label}")
    print(f"field: {doc.field}")
    print(f"(n, k, delta) = ({prof.n}, {prof.k}, {prof.delta})")
    print(f"basic: yes")
    print(f"minimal: {'yes' if minimal else 'no (canonicalized for invariants)'}")
    print("forney indices: " + ", ".join(str(d) for d in prof.forney_indices))
    print(f"r = {prof.r}")
    print(f"r_hat = {r_hat}")
    print(f"dim constant code = {info['dim_constant_code']}")
    print(f"dim coefficient code = {info['dim_coefficient_code']}")

    def dump_basis(tag, basis):
        print(f"{tag} basis (reduced rows):")
        if not basis:
            print("  (zero space)")
        for row in basis:
            print("  " + " ".join(str(doc.field.elements[a]).rjust(2) for a in row))

    dump_basis("constant code", const.basis)
    dump_basis("coefficient code", coeff.basis)
    return 0


def cmd_adjacency(args) -> int:
    doc = CodeDocument.from_path(args.file)
    limits = _parse_limits(args)
    G = _require_minimal(doc)
    cf = controller_form(G)
    adj = adjmod.adjacency_by_cosets(
        cf, limits.get("pairs", adjmod.PAIR_LIMIT))
    oracle_entries = None
    if args.oracle:
        oracle = adjmod.adjacency_by_transitions(
            cf, limits.get("transitions", adjmod.TRANSITION_LIMIT))
        if oracle != adj:
            raise InternalCheckError("oracle adjacency disagrees with coset route")
        oracle_entries = adj.support_size()
    if args.format == "json":
        payload = adj.to_json_dict()
        if oracle_entries is not None:
            payload["oracle"] = {"match": True, "entries": oracle_entries}
        return _emit_json(payload)
    # the text grid has a cell for every state pair
    dualmod.grid_guard(cf.field.q, cf.delta, limits.get("grid", dualmod.GRID_LIMIT), cf.n + 1)
    print(adj.render_text())
    if oracle_entries is not None:
        print(f"oracle: match ({oracle_entries} entries)")
    return 0


def cmd_dual(args) -> int:
    doc = CodeDocument.from_path(args.file)
    G = _require_minimal(doc)
    H = dual_generator(G)
    if not H.nrows:
        raise ValueError("the dual of a full code (k = n) is the zero code, "
                         "which a code document cannot hold")
    label = f"{doc.label} (dual)" if doc.label else None
    out = CodeDocument(doc.field, H, label).to_dict()
    # dual_generator raised InternalCheckError unless every entry of H G^t is
    # zero and H's row degrees, its Forney indices, sum to G's code degree
    out["certificate"] = {
        "orthogonal_to_input": True,
        "delta": sum(H.row_degrees()),
    }
    return _emit_json(out)


def _witness_matrix(text: str, field: FieldSpec) -> FMat:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"witness is not valid JSON: {e.msg}") from None
    if not isinstance(data, list) or any(   # a JSON integer loads as int, not bool or float
            not isinstance(r, list) or any(type(v) is not int for v in r) for r in data):
        raise ValueError("witness must be a nested integer array")
    bad = next((v for r in data for v in r if not 0 <= v < field.q), None)
    if bad is not None:   # entries are element codes, as the report prints them
        raise ValueError(f"witness entry {bad} is not an element code of {field} "
                         f"(0 to {field.q - 1})")
    if any(len(r) != len(data[0]) for r in data):
        raise ValueError("witness rows differ in length")
    return FMat(field, len(data), len(data[0]) if data else 0, data)


def _report_out(report, fmt: str) -> int:
    if fmt == "json":
        _emit_json(report.to_json_dict())
    else:
        prof = report.profiles["code"]
        dprof = report.profiles["dual"]

        def line(tag, p):
            idx = ",".join(str(d) for d in p["forney_indices"])
            print(f"{tag}: ({p['n']},{p['k']},{p['delta']}) indices ({idx}) "
                  f"r={p['r']} r_hat={p['r_hat']}")

        line("code", prof)
        line("dual", dprof)
        print(f"theorem: {report.theorem_used}")
        print(f"witness: {report.witness}")
        print(f"verdict: {report.verdict}")
        print(f"entry mismatches: {report.entry_mismatch_count}")
        print(f"elapsed: {report.elapsed_ms} ms")
    return 0 if report.verdict == "verified" else 3


def cmd_verify(args) -> int:
    doc = CodeDocument.from_path(args.file)
    limits = _parse_limits(args)
    G = _require_minimal(doc)
    witness = None
    if args.check_witness is not None:
        witness = _witness_matrix(args.check_witness, doc.field)
    report = dualmod.run_verification(
        G, mode=args.mode, witness=witness,
        grid_limit=limits.get("grid", dualmod.GRID_LIMIT),
        search_limit=limits.get("search", dualmod.SEARCH_LIMIT),
    )
    return _report_out(report, args.format)


def cmd_macw(args) -> int:
    digits = args.modulus.split(",") if args.modulus else []
    if not all(d.isdecimal() for d in digits):
        raise ValueError(f"--modulus wants comma-separated digits, got {args.modulus!r}")
    field = FieldSpec(args.p, args.s, [int(d) for d in digits] or None)
    if args.delta < 0:
        raise ValueError("delta must be >= 0")
    degree_guard(args.delta)
    dualmod.grid_guard(field.q, args.delta, _parse_limits(args).get("grid", dualmod.GRID_LIMIT))
    if not 1 <= args.zeta_exponent < field.p:
        raise ValueError(f"zeta exponent must be in [1, {field.p})")
    # the grid's (X, Y) entry is zeta^(d tr(X . Y)), scaled by q^(-delta/2)
    table = dualmod.trace_exponents(field, args.delta)
    exponents = (args.zeta_exponent * table % field.p).tolist()
    if args.format == "json":
        return _emit_json({
            "p": field.p,
            "q": field.q,
            "delta": args.delta,
            "zeta_exponent": args.zeta_exponent,
            "scale_pow": -args.delta,
            "exponents": exponents,
        })
    if field.p == 2:   # zeta = -1: the grid of signs
        signs = [[-1 if e else 1 for e in row] for row in exponents]
        width = max(len(str(v)) for row in signs for v in row)
        for row in signs:
            print(" ".join(str(v).rjust(width) for v in row))
    else:
        for row in exponents:
            print(" ".join(f"z^{e}" for e in row))
    print(f"scale: q^({-args.delta}/2) with q = {field.q}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convmacw",
        description="Weight adjacency matrices and MacWilliams duality for "
                    "convolutional codes, in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, limits=()):
        p.add_argument("--format", choices=("text", "json"), default="text")
        if limits:
            p.add_argument("--limit", action="append", metavar="NAME=VALUE",
                           help=f"override a size guard ({', '.join(limits)})")
            p.set_defaults(limit_names=limits)

    p = sub.add_parser("info", help="print code invariants")
    p.add_argument("file")
    add_common(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("adjacency", help="print the weight adjacency matrix")
    p.add_argument("file")
    p.add_argument("--oracle", action="store_true",
                   help="also run the transition-enumeration oracle and compare")
    add_common(p, ("pairs", "transitions", "grid"))
    p.set_defaults(func=cmd_adjacency)

    p = sub.add_parser("dual", help="emit a code document for the dual code")
    p.add_argument("file")
    add_common(p)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("verify", help="verify the duality transformation")
    p.add_argument("file")
    p.add_argument("--mode", default="auto",
                   choices=("auto", "weak", "theorem-q", "theorem-p",
                            "search", "unit-memory"))
    p.add_argument("--check-witness", metavar="JSON",
                   help="validate a given witness matrix (nested int arrays)")
    add_common(p, ("grid", "search"))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search-p", help="projective witness search only")
    p.add_argument("file")
    add_common(p, ("grid", "search"))
    p.set_defaults(func=cmd_verify, mode="search", check_witness=None)   # verify --mode search

    p = sub.add_parser("macw", help="dump the character matrix for (q, delta)")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--modulus", help="comma-separated digits, constant first")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--zeta-exponent", type=int, default=1)
    add_common(p, ("grid",))
    p.set_defaults(func=cmd_macw)

    return parser


# argparse keeps no state between parse_args calls, so one parser serves
# every main call of a process
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        if e.code:   # argparse exits 2 on a usage error; 2 here is a size guard
            return 1
        raise
    try:
        return args.func(args)
    except GuardExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except InternalCheckError as e:
        print(f"internal check failed: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

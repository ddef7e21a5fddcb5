"""One benchmark repetition, run in a fresh single-threaded process.

    python3 bench/worker.py OPS_JSON [--traced]
    python3 bench/worker.py --probe

A fresh process starts with empty module caches, as a command-line run
does.  Untraced, each op is ``convmacw.cli.main(["verify", doc, ...])``
called in-process with its output captured.  Traced, each op mirrors
``run_verification``'s dispatch through the public API and records a
span around every call into a layer.  The result, spans included, is
printed as one JSON line on stdout when the repetition ends.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import convmacw  # noqa: E402
import convmacw.cli  # noqa: E402

READY = time.monotonic()    # set-up ends: interpreter up, package imported


def report_digest(text: str) -> str:
    """Digest of a report's JSON with the wall-clock ``elapsed_ms`` removed."""
    obj = json.loads(text)
    obj.pop("elapsed_ms", None)
    return hashlib.sha256(json.dumps(obj, indent=2).encode()).hexdigest()[:16]


def argv_of(op: dict) -> list[str]:
    return ["verify", op["path"], "--format", "json", "--mode", op["mode"]]


def outcome(op: dict, seconds: float, text: str, error: str | None) -> dict:
    out = {"name": op["name"], "seconds": seconds, "error": error}
    if error is None:
        try:
            report = json.loads(text)
            out.update(verdict=report["verdict"], theorem=report["theorem_used"],
                       details=report["details"], profiles=report["profiles"],
                       digest=report_digest(text))
        except (ValueError, KeyError, TypeError) as e:
            out["error"] = f"unreadable report: {e!r}"
    return out


def run_plain(op: dict) -> dict:
    """Time one ``convmacw verify`` call, parsing and JSON output included."""
    buf, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            rc = convmacw.cli.main(argv_of(op))
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 1
    except Exception as e:  # an op that raises is a failed op, not a crash
        error = repr(e)
    seconds = time.perf_counter() - start
    if error is None and rc != 0:
        error = f"exit code {rc}: {err.getvalue().strip()[-300:]}"
    return outcome(op, seconds, buf.getvalue(), error)


class Tracer:
    """Spans kept in memory: name, start, end, parent span and op id."""

    def __init__(self):
        self.spans: list[dict] = []
        self.absent: set[str] = set()

    @contextlib.contextmanager
    def span(self, name: str, op: int, parent: int | None = None):
        rec = {"id": len(self.spans), "name": name, "op": op, "parent": parent,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        try:
            yield rec["id"]
        finally:
            rec["end"] = time.perf_counter()


# public names the mirror calls, by module; a name missing in the program
# under test turns its span absent instead of failing the run
API = {
    "cli": ("build_parser", "CodeDocument"),
    "polymat": ("is_basic", "is_minimal", "dual_generator", "code_degree"),
    "duality": ("DualPair", "DualityReport", "check_weak_identity",
                "search_witness", "closed_form_witness_dual",
                "closed_form_witness_primal", "check_unit_memory",
                "GRID_LIMIT", "SEARCH_LIMIT"),
}
# DualPair attributes warmed one layer at a time, in pipeline order
STAGES = (
    ("statespace.coefficient_code", ("r_dual",)),
    ("adjacency.by_cosets", ("adj", "adj_dual")),
    ("duality.geometry", ("geometry",)),
    ("duality.fourier", ("fourier",)),
    ("duality.transform", ("transformed", "dual_scaled")),
)
ROUTE_NEEDS = {
    "delta=1": ("check_unit_memory", "closed_form_witness_dual",
                "closed_form_witness_primal"),
    "rhat=delta": ("closed_form_witness_dual",),
    "r=delta": ("closed_form_witness_primal",),
    "conjecture-search": ("check_weak_identity", "search_witness"),
    "multiset-only": ("check_weak_identity",),
}
ESSENTIAL = ("build_parser", "CodeDocument", "DualPair", "DualityReport",
             "GRID_LIMIT", "SEARCH_LIMIT")


def resolve_api() -> dict:
    api = {}
    for module, names in API.items():
        mod = importlib.import_module(f"convmacw.{module}")
        for name in names:
            api[name] = getattr(mod, name, None)
    return api


class Mirror:
    """``verify --format json`` rebuilt from public calls, one span per
    layer call.  Search spans are split into the first search per
    (q, delta) in the process (cold, it builds the candidates) and later
    ones (warm)."""

    def __init__(self, api: dict, tracer: Tracer):
        self.api = api
        self.tr = tracer
        self.searched: set = set()

    def _missing(self, names) -> list[str]:
        missing = [n for n in names if self.api.get(n) is None]
        self.tr.absent.update(missing)
        return missing

    def run(self, index: int, op: dict) -> dict:
        route_names = ROUTE_NEEDS.get(op["route"], ("?",))
        if self._missing(ESSENTIAL + route_names) or op["mode"] not in ("auto", "weak"):
            with self.tr.span("op", index) as root:
                with self.tr.span("cli.main", index, root):
                    return run_plain(op)
        api, tr = self.api, self.tr
        buf = io.StringIO()
        probes = []
        with tr.span("op", index) as root:
            start = time.perf_counter()
            with tr.span("cli.parse", index, root):
                args = api["build_parser"]().parse_args(argv_of(op))
                doc = api["CodeDocument"].from_path(args.file)
            G = doc.generator
            if not self._missing(("is_basic", "is_minimal")):
                with tr.span("polymat.validate", index, root) as sid:
                    with tr.span("polymat.is_basic", index, sid):
                        basic = api["is_basic"](G)
                    with tr.span("polymat.is_minimal", index, sid):
                        minimal = basic and api["is_minimal"](G)[0]
                if not minimal:
                    raise ValueError(f"{op['name']}: generator is not minimal basic")
            H = None
            if not self._missing(("dual_generator",)):
                with tr.span("polymat.dual_generator", index, root):
                    H = api["dual_generator"](G)
            with tr.span("statespace.controller_form", index, root):
                pair = api["DualPair"](G, G_dual=H,
                                       grid_limit=api["GRID_LIMIT"])
            for name, attrs in STAGES:
                present = [a for a in attrs if hasattr(type(pair), a)]
                if len(present) < len(attrs):
                    tr.absent.add(name)
                if present:
                    with tr.span(name, index, root):
                        for attr in present:
                            getattr(pair, attr)
            details: dict = {"mode": op["mode"]}
            theorem, verdict, wit = op["mode"], "verified", None
            if op["mode"] == "weak":
                with tr.span("duality.weak_identity", index, root):
                    details["weak_entries"] = \
                        api["check_weak_identity"](pair).entries_checked
                theorem = "multiset-only"
            elif pair.delta == 1:
                with tr.span("duality.closed_form", index, root):
                    details["entries"] = api["check_unit_memory"](pair)
                    wit = api["closed_form_witness_dual"](pair)
                    agree = api["closed_form_witness_primal"](pair)
                details["primal_witness"] = agree.to_int_rows()
                theorem = "delta=1"
            elif pair.r_dual == pair.delta:
                with tr.span("duality.closed_form", index, root):
                    wit = api["closed_form_witness_dual"](pair)
                theorem = "rhat=delta"
            elif pair.cf.r == pair.delta:
                with tr.span("duality.closed_form", index, root):
                    wit = api["closed_form_witness_primal"](pair)
                theorem = "r=delta"
            else:
                with tr.span("duality.weak_identity", index, root):
                    details["weak_entries"] = \
                        api["check_weak_identity"](pair).entries_checked
                key = (pair.field.q, pair.delta)
                cold = key not in self.searched
                self.searched.add(key)
                name = "duality.search_cold" if cold else "duality.search_warm"
                with tr.span(name, index, root):
                    result = api["search_witness"](pair, api["SEARCH_LIMIT"])
                details["candidates_tested"] = result.tested
                if cold:
                    probes.append(("probe.search_repeat", lambda: api["search_witness"](
                        pair, api["SEARCH_LIMIT"])))
                if result.witness is not None:
                    wit, theorem = result.witness, "conjecture-search"
                else:
                    theorem, verdict = "multiset-only", "counterexample-candidate"
            with tr.span("cli.emit", index, root):
                report = api["DualityReport"](
                    profiles=pair.profile_dicts(), theorem_used=theorem,
                    witness=wit.to_int_rows() if wit is not None else None,
                    verdict=verdict, entry_mismatch_count=0,
                    elapsed_ms=int((time.perf_counter() - start) * 1000),
                    details=details)
                print(json.dumps(report.to_json_dict(), indent=2), file=buf)
        if not self._missing(("code_degree",)):
            probes.append(("probe.code_degree",
                           lambda: [api["code_degree"](M) for M in (G, pair.G_dual)]))
        for name, call in probes:
            with tr.span(name, index):
                call()
        span = tr.spans[root]
        return outcome(op, span["end"] - span["start"], buf.getvalue(), None)


def main(argv: list[str]) -> int:
    if not Path(convmacw.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: convmacw imported from {convmacw.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if argv == ["--probe"]:
        print(json.dumps({"ready": READY}))
        return 0
    ops = json.loads(Path(argv[0]).read_text())
    traced = "--traced" in argv[1:]
    result: dict = {"ready": READY, "traced": traced}
    if traced:
        tracer = Tracer()
        mirror = Mirror(resolve_api(), tracer)
        records = []
        for index, op in enumerate(ops):
            try:
                records.append(mirror.run(index, op))
            except Exception as e:  # a failed op is counted, the run goes on
                records.append({"name": op["name"], "seconds": 0.0, "error": repr(e)})
        result.update(spans=tracer.spans, absent=sorted(tracer.absent))
    else:
        records = [run_plain(op) for op in ops]
    result["ops"] = records
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

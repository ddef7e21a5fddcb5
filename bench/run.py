"""Benchmark of ``convmacw verify`` on seeded workloads.

    python3 bench/run.py --workload {search,grid,long} [--seed N]
                         [--seconds S] [--trace 0|1]

Writes the workload's documents for the seed, then runs repetitions for
``--seconds`` seconds.  Each repetition is a fresh single-threaded
process in which one client runs the workload's ops one after another
(a closed loop).  With ``--trace 0`` it prints the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run, whose
repetitions alternate with untraced ones so the tracing overhead shows.
The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Every op must exit 0 with verdict ``verified`` and the route its slot
was built for.  At the default seed the documents must equal the pinned
ones in ``bench/pinned`` byte for byte, and each report (less
``elapsed_ms``) must match its pinned digest.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402

DEFAULT_SEED = 1
PINNED = HERE / "pinned"
WORKER = HERE / "worker.py"
SETUP_PROBES = 5
MIN_REPS = 2
DEADLINE_S = 170          # a run must end within 180 s
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

SEARCH_SPANS = ("duality.search_cold", "duality.search_warm")
GRID_SPANS = ("adjacency.by_cosets", "duality.geometry", "duality.fourier",
              "duality.transform", "duality.closed_form", "duality.weak_identity")
ENCODER_SPANS = ("polymat.validate", "polymat.dual_generator",
                 "statespace.controller_form", "statespace.coefficient_code")
TIMED_SPANS = ("cli.parse", "cli.emit") + ENCODER_SPANS + GRID_SPANS + SEARCH_SPANS


def child_env() -> dict:
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(args: list[str], deadline: float) -> tuple[dict | None, float, str]:
    """Run the worker; returns its result, the spawn time and an error."""
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, spawned, "repetition overran the run deadline"
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, spawned, f"worker exit {proc.returncode}: {err.strip()[-500:]}"
    return json.loads(lines[-1]), spawned, ""


def pinned_digests() -> dict:
    path = PINNED / "digests.json"
    return json.loads(path.read_text()) if path.exists() else {}


def check_op(rec: dict, op: dict, pinned: dict | None) -> str | None:
    """Reason the op failed, or None."""
    if rec.get("error"):
        return rec["error"]
    if rec["verdict"] != "verified":
        return f"verdict {rec['verdict']}"
    if rec["theorem"] != op["route"]:
        return f"route {rec['theorem']} instead of {op['route']}"
    if pinned is not None and pinned.get(op["name"]) != rec["digest"]:
        return f"report digest {rec['digest']} != pinned {pinned.get(op['name'])}"
    return None


def check_corpus(workload: str, ops: list[dict]) -> list[str]:
    """At the default seed, the generated documents equal the pinned ones."""
    problems = []
    for op in ops:
        pinned = PINNED / workload / op["name"]
        if not pinned.exists() or pinned.read_bytes() != Path(op["path"]).read_bytes():
            problems.append(f"{op['name']}: document differs from {pinned.relative_to(ROOT)}")
    return problems


def quantity(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(reps: list[dict], setup: list[float]) -> dict:
    walls = [sum(r["seconds"] for r in rep["ops"]) for rep in reps]
    latencies = [r["seconds"] for rep in reps for r in rep["ops"]]
    return {
        "wall_s": quantity(statistics.median(walls), "s"),
        "op_p50_s": quantity(statistics.median(latencies), "s"),
        "setup_s": quantity(statistics.median(setup), "s"),
        "peak_rss_mb": quantity(statistics.median(
            rep["maxrss_kb"] / 1024 for rep in reps), "MB"),
    }


def projective_count(q: int, delta: int) -> int:
    """|GL(delta, q)| / (q - 1): candidates the search builds for (q, delta)."""
    order = 1
    for i in range(delta):
        order *= q ** delta - q ** i
    return order // (q - 1)


def layer_totals(rep: dict, ops: list[dict], limits: dict) -> dict:
    """Per-layer times and counts of one traced repetition."""
    spans = rep["spans"]
    roots = {s["id"] for s in spans if s["name"] == "op"}
    dur = {}    # op roots, probes and the layer spans directly under a root
    for s in spans:
        if s["parent"] is None or s["parent"] in roots:
            dur[s["name"]] = dur.get(s["name"], 0.0) + s["end"] - s["start"]
    op_wall = dur.get("op", 0.0)
    top_sum = sum(s["end"] - s["start"] for s in spans if s["parent"] in roots)
    build = dur.get("duality.search_cold", 0.0) - dur.get("probe.search_repeat", 0.0)
    out = {f"{name}_s": quantity(dur.get(name, 0.0), "s") for name in TIMED_SPANS}
    out["duality.search_build_s"] = quantity(build, "s")
    out["polymat.code_degree_s"] = quantity(dur.get("probe.code_degree", 0.0), "s")
    out["trace.coverage"] = quantity(top_sum / op_wall if op_wall else 0.0, "ratio")
    out["trace.op_wall_s"] = quantity(op_wall, "s")

    counts = dict.fromkeys(
        ("adjacency.entries", "adjacency.coset_points", "duality.grid_pairs",
         "duality.weak_entries", "duality.candidates_tested",
         "duality.candidates_built", "polymat.minor_sets",
         "field.pairing_products", "linalg.search_rrefs",
         "exact.transform_terms"), 0)
    witnesses = 0
    headroom = {"search": math.inf, "grid": math.inf, "pairs": math.inf}
    built = set()
    for rec, op in zip(rep["ops"], ops):
        if rec.get("error"):
            continue
        code, dual = rec["profiles"]["code"], rec["profiles"]["dual"]
        q, n, k, delta = op["q"], code["n"], code["k"], code["delta"]
        counts["adjacency.entries"] += q ** (delta + code["r"]) + q ** (delta + dual["r"])
        counts["adjacency.coset_points"] += q ** (delta + k) + q ** (delta + n - k)
        counts["duality.grid_pairs"] += q ** (2 * delta)
        counts["duality.weak_entries"] += rec["details"].get("weak_entries", 0)
        counts["polymat.minor_sets"] += math.comb(n, k)
        counts["field.pairing_products"] += delta * q ** (2 * delta)
        counts["exact.transform_terms"] += q ** (2 * delta) * (n + 1) ** 2
        tested = rec["details"].get("candidates_tested")
        if tested is not None:
            counts["duality.candidates_tested"] += tested
            witnesses += rec["theorem"] == "conjecture-search"
            if (q, delta) not in built:
                built.add((q, delta))
                counts["duality.candidates_built"] += projective_count(q, delta)
                counts["linalg.search_rrefs"] += q ** (delta * delta)
        cost = {"search": q ** (delta * delta), "grid": q ** (2 * delta),
                "pairs": q ** (delta + max(code["r"], dual["r"]))}
        for name, limit in limits.items():
            if limit is not None:
                headroom[name] = min(headroom[name], limit / cost[name])
    out.update({name: quantity(v, "count") for name, v in counts.items()})
    tested = counts["duality.candidates_tested"]
    out["duality.search_hit_ratio"] = quantity(witnesses / tested if tested else 0.0, "ratio")
    for name, v in headroom.items():
        out[f"guard.{name}_headroom_min"] = quantity(v if v != math.inf else 0.0, "ratio")
    return out


def layer_split(metrics: dict) -> str:
    """Shares of traced op time taken by the search, grid and encoder layers."""
    wall = metrics["trace.op_wall_s"]["value"] or 1.0
    groups = {"search": SEARCH_SPANS, "grid": GRID_SPANS, "encoder": ENCODER_SPANS}
    shares = {name: sum(metrics[f"{s}_s"]["value"] for s in spans) / wall
              for name, spans in groups.items()}
    return "layer split: " + " ".join(f"{k}={v:.3f}" for k, v in shares.items())


def per_layer(traced: list[dict], plain: list[dict], ops: list[dict],
              limits: dict) -> dict:
    totals = [layer_totals(rep, ops, limits) for rep in traced]
    out = {}
    for name, first in totals[0].items():
        # counts repeat exactly; median_low keeps them whole numbers
        middle = statistics.median_low if first["unit"] == "count" else statistics.median
        out[name] = quantity(middle(t[name]["value"] for t in totals), first["unit"])
    untraced_wall = statistics.median(sum(r["seconds"] for r in rep["ops"]) for rep in plain)
    out["trace.overhead_s"] = quantity(out["trace.op_wall_s"]["value"] - untraced_wall, "s")
    return out


def guard_limits() -> dict:
    """The size guards; a guard missing in this version reads headroom 0."""
    from convmacw import adjacency, duality
    return {"search": getattr(duality, "SEARCH_LIMIT", None),
            "grid": getattr(duality, "GRID_LIMIT", None),
            "pairs": getattr(adjacency, "PAIR_LIMIT", None)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + DEADLINE_S

    if not (ROOT / "src" / "convmacw" / "__init__.py").is_file():
        print(f"error: no convmacw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        ops = corpus.write_corpus(args.workload, args.seed, work / "docs")
        problems = check_corpus(args.workload, ops) if args.seed == DEFAULT_SEED else []
        # at the default seed a missing pin fails its op, never skips the check
        pinned = pinned_digests().get(args.workload, {}) if args.seed == DEFAULT_SEED else None
        ops_file = work / "ops.json"
        ops_file.write_text(json.dumps(ops))

        setup = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                res, spawned, err = spawn(["--probe"], deadline)
                if res is None:
                    print(f"error: {err}", file=sys.stderr)
                    return 2
                setup.append(res["ready"] - spawned)

        reps = {False: [], True: []}
        absent: set[str] = set()
        attempted = failed = 0
        measure_start = time.monotonic()
        while True:
            traced = bool(args.trace) and len(reps[True]) <= len(reps[False])
            res, spawned, err = spawn([str(ops_file)] + (["--traced"] if traced else []),
                                      deadline)
            if res is None:
                print(f"error: {err}", file=sys.stderr)
                return 2
            setup.append(res["ready"] - spawned)
            for rec, op in zip(res["ops"], ops):
                reason = check_op(rec, op, pinned)
                attempted += 1
                if reason:
                    failed += 1
                    problems.append(f"{op['name']}: {reason}")
            reps[traced].append(res)
            absent.update(res.get("absent", []))
            enough = len(reps[traced]) >= MIN_REPS if not args.trace else \
                min(len(reps[True]), len(reps[False])) >= 1
            elapsed = time.monotonic() - measure_start
            rep_cost = elapsed / (len(reps[True]) + len(reps[False]))
            if enough and (elapsed >= args.seconds
                           or time.monotonic() + 1.5 * rep_cost > deadline):
                break

        if args.trace:
            metrics = per_layer(reps[True], reps[False], ops, guard_limits())
        else:
            metrics = end_to_end(reps[False], setup)
        for name in sorted(absent):
            print(f"absent: {name} is not in this version; its span reads 0")
        for problem in problems:
            print(f"FAIL {problem}")
        for name, m in metrics.items():
            print(f"{name:34s} {m['value']:.6g} {m['unit']}")
        if args.trace:
            print(layer_split(metrics))
        else:
            print(f"op_p50_s is the median of {sum(len(r['ops']) for r in reps[False])} "
                  f"ops in {len(reps[False])} repetitions")
        print(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted} ops)")
        print(json.dumps({"correct": not problems, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())

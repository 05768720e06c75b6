"""dpcolor benchmark: four workloads, end-to-end metrics and a traced run.

    python3 bench/run.py --workload corpus-exhaustive --seed 1 --seconds 8 --trace 0
    python3 bench/run.py --workload all --seed 1 --trace 1     # every workload

Each run executes whole passes of one workload (see ``workloads.py``) until
at least ``--seconds`` of op time has been measured.  A pass is split into
``CHUNKS`` slices, and every slice runs in its own fresh single-threaded
interpreter that first sets the workload up from the seed, so each run
holds several set-ups.  The benchmark times its own calls into the public
API of ``dpcolor`` from outside; it changes nothing in the program.  Every
reported time is adjusted for host speed (see ``reference.py``); the raw
set-up time and throughput are printed beside the adjusted ones.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
passes untraced and then traced, prints per-layer busy time, self time and
counts with the tracing overhead, and reports the per-layer metrics.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full result with the
environment, the answer fingerprint and, when traced, every span is
written to ``.bench_build/bench/``.

Op outcomes: ``ok`` (answered, answer check passed), ``unresolved`` (the
program answered ``BudgetExceeded``, ``None`` within ``k_max`` or a CLI
"exceeds", or hit the interpreter's default recursion limit, which the
benchmark never raises), ``error`` (an unexpected exception, CLI exit code
2, or a failed answer check).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import reference
from spans import self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_build" / "bench"
WORKLOADS = ("corpus-exhaustive", "grid-ladder", "lattice-audit", "cli-batch")
CHUNKS = 3                 # set-ups (fresh interpreters) per pass
RUN_LIMIT_S = 150          # no new pass starts past this much wall time
TAIL_BEYOND = 10           # ops beyond the tail percentile, per pass
LIMITS_NOTE = ("measured without CPU pinning, page-cache dropping or "
               "machine-wide tracing, on a host shared with other processes")

LAYER_SPANS = {
    "plane_graph.build_s": ["plane_graph.build_from_rotation"],
    "plane_graph.cycles_s": ["plane_graph.enumerate_cycles"],
    "cover.full_cover_s": ["cover.full_cover"],
    "cover.cover_graph_s": ["cover.cover_graph"],
    "solver.dp_s": ["solver.dp_chromatic", "solver.dp_colorable"],
    "solver.survey_s": ["solver.survey_precoloring_extensions"],
    "solver.list_chromatic_s": ["solver.list_chromatic"],
    "solver.chromatic_s": ["solver.chromatic"],
    "solver.find_transversal_s": ["solver.find_transversal"],
    "solver.extend_s": ["solver.extend_precoloring"],
    "structure.class_membership_s": ["structure.class_membership"],
    "structure.lemmas_s": ["structure.verify_structural_lemmas"],
    "discharging.run_s": ["discharging.run_discharging"],
    "discharging.audit_g1_s": ["discharging.audit_g1"],
    "discharging.audit_g2_s": ["discharging.audit_g2"],
    "io.corpus_generate_s": ["io.corpus_generate"],
    "io.parse_s": ["io.load_document", "io.parse"],
    **{f"cli.{c}_s": [f"cli.{c}"] for c in (
        "faces", "cycles", "class", "structure", "solve", "dp_chromatic",
        "list_chromatic", "extend", "discharge", "corpus")},
}
LAYER_COUNTS = ("plane_graph.cycles_found", "solver.covers_checked",
                "solver.covers_raw", "solver.budget_exceeded",
                "solver.survey_covers", "solver.survey_precolorings",
                "solver.recursion_errors", "structure.lemma_reports",
                "discharging.transfers")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


# -- running workers ------------------------------------------------------------


def run_worker(workload: str, seed: int, trace: int, chunk: int,
               deadline: float) -> dict:
    """One fresh interpreter: set-up plus one slice of a pass."""
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-{seed}-{trace}-{chunk}-{os.getpid()}"
    workdir, out = OUT / f"work-{tag}", OUT / f"worker-{tag}.json"
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--chunk", str(chunk),
           "--chunks", str(CHUNKS), "--workdir", str(workdir), "--out", str(out)]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker {chunk} ran past the time limit")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker {chunk} exited "
                         f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(out.read_text())
    out.unlink()
    # host-speed adjustment: see reference.py
    refs = result["ref_times"]
    result["host_factor"] = reference.NOMINAL_S / statistics.median(refs)
    result["setup_raw_s"] = result["t_setup_done"] - t_spawn
    result["setup_s"] = result["setup_raw_s"] * result["host_factor"]
    result["op_time_raw_s"] = sum(r[3] for r in result["records"])
    for r in result["records"]:
        r[3] *= reference.factor(refs, r[8])
    return result


def run_passes(workload: str, seed: int, seconds: float, trace: int,
               deadline: float, passes: int = 0,
               limit: float = RUN_LIMIT_S) -> dict:
    """Whole passes until ``seconds`` of ops are measured (or ``passes``);
    no new pass starts that would end past ``limit`` seconds."""
    workers: list[dict] = []
    done, measured, started = 0, 0.0, time.monotonic()
    while True:
        t_pass = time.monotonic()
        for chunk in range(CHUNKS):
            w = run_worker(workload, seed, trace, chunk, deadline)
            w["pass"] = done
            measured += w["t_end"] - w["t_first_op"]
            workers.append(w)
        done += 1
        pass_wall = time.monotonic() - t_pass
        if passes:
            if done >= passes:
                break
        elif measured >= seconds or \
                time.monotonic() + pass_wall > started + limit:
            break
    return {"workers": workers, "passes": done}


# -- metrics -----------------------------------------------------------------------


def end_to_end(run: dict) -> dict:
    workers, passes = run["workers"], run["passes"]
    records = [r for w in workers for r in w["records"]]
    times = sorted(r[3] for r in records)
    n = len(times)
    ok = sum(1 for r in records if r[4] == "ok")
    errors = [r for r in records if r[4] == "error"]
    unresolved = sum(1 for r in records if r[4] == "unresolved")
    beyond = TAIL_BEYOND * passes
    rank = max(0, n - beyond - 1)
    first_pass = sorted((r for w in workers if w["pass"] == 0
                         for r in w["records"]), key=lambda r: (r[0], r[1]))
    fingerprint = hashlib.sha256(
        "\n".join(f"{r[0]}.{r[1]} {r[2]} {r[4]} {r[6]}"
                  for r in first_pass).encode()).hexdigest()[:32]
    by_op: dict[str, list] = {}
    for r in records:
        row = by_op.setdefault(r[2], [0, 0.0, 0.0, 0, 0])
        row[0] += 1
        row[1] += r[3]
        row[2] = max(row[2], r[3])
        row[3] += r[4] == "unresolved"
        row[4] += r[4] == "error"
    raw_time = sum(w["op_time_raw_s"] for w in workers)
    return {
        "by_op": by_op,
        "raw_ops_per_s": ok / raw_time if raw_time else 0.0,
        "raw_setup_s": statistics.median(w["setup_raw_s"] for w in workers),
        "host_factors": [w["host_factor"] for w in workers],
        "attempted": n,
        "failed": len(errors),
        "errors": errors,
        "ok": ok,
        "unresolved": unresolved,
        "op_time_s": sum(times),
        "setup_s": statistics.median(w["setup_s"] for w in workers),
        "setups": [w["setup_s"] for w in workers],
        "ops_per_s": ok / sum(times) if times else 0.0,
        "op_p50_ms": 1000 * statistics.median(times) if times else 0.0,
        "op_tail_ms": 1000 * times[rank] if times else 0.0,
        "tail_percentile": 100 * (n - beyond) / n if n > beyond else 100.0,
        "tail_beyond": n - rank - 1,
        "error_share": len(errors) / n if n else 0.0,
        "unresolved_share": unresolved / n if n else 0.0,
        "answered_share": ok / n if n else 0.0,
        "peak_rss_mb": max(w["rss_kb"] for w in workers) / 1024,
        "fingerprint": fingerprint,
        "passes": passes,
        "workers": len(workers),
        "recursion_limits": sorted({x for w in workers
                                    for x in w["recursion_limit"]}),
    }


def span_table(run: dict) -> dict[str, dict]:
    """Host-adjusted busy and self seconds per span name: set-up spans per
    set-up, op and check spans per pass."""
    table: dict[str, dict] = {}
    for w in run["workers"]:
        refs, records = w["ref_times"], w["records"]
        for s, own in zip(w["spans"], self_times(w["spans"])):
            name, start, end, _, op_id, phase = s
            per = "set-up" if phase == "setup" else "pass"
            f = reference.factor(refs, 0 if per == "set-up"
                                 else records[op_id][8])
            share = 1 / (len(run["workers"]) if per == "set-up"
                         else run["passes"])
            row = table.setdefault(name, {"calls": 0.0, "busy_s": 0.0,
                                          "self_s": 0.0, "per": per})
            row["calls"] += share
            row["busy_s"] += (end - start) * f * share
            row["self_s"] += own * f * share
    return table


def per_layer(run: dict, table: dict[str, dict], overhead: float) -> dict:
    passes = run["passes"]
    counts = {c: 0.0 for c in LAYER_COUNTS}
    for w in run["workers"]:
        for r in w["records"]:
            for key, value in r[7].items():
                counts[key] = counts.get(key, 0.0) + value / passes

    def busy(names):
        return sum(table.get(n, {}).get("busy_s", 0.0) for n in names)

    out = {name: (busy(names), "s") for name, names in LAYER_SPANS.items()}
    out.update({c: (counts[c], "count") for c in LAYER_COUNTS})
    sweep_s = busy(["solver.dp_colorable"])
    out["solver.covers_per_s"] = (
        counts["solver.covers_checked"] / sweep_s if sweep_s else 0.0, "1/s")
    out["solver.swept_share"] = (
        counts["solver.covers_checked"] / counts["solver.covers_raw"]
        if counts["solver.covers_raw"] else 0.0, "share")
    survey_s = out["solver.survey_s"][0]
    out["solver.survey_checks_per_s"] = (
        counts["solver.survey_precolorings"] / survey_s if survey_s else 0.0,
        "1/s")
    out["trace.overhead_share"] = (overhead, "share")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


# -- reporting ---------------------------------------------------------------------


def environment(seed: int, e2e: dict) -> dict:
    try:
        nx_version = metadata.version("networkx")
    except metadata.PackageNotFoundError:
        nx_version = "missing"
    return {
        "python": platform.python_version(),
        "networkx": nx_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "recursion_limit": e2e["recursion_limits"],
        "limits": LIMITS_NOTE,
    }


def print_end_to_end(workload: str, m: dict) -> None:
    print(f"== {workload}: {m['passes']} pass(es), {m['workers']} set-ups, "
          f"{m['attempted']} ops; times are host-adjusted (reference.py)")
    rows = [
        ("setup_s", m["setup_s"], "s",
         "median of " + ", ".join(f"{s:.3f}" for s in m["setups"])
         + f"; raw {m['raw_setup_s']:.3f}"),
        ("ops_per_s", m["ops_per_s"], "1/s",
         f"{m['ok']} checked answers in {m['op_time_s']:.3f} s of op time; "
         f"raw {m['raw_ops_per_s']:.3f}"),
        ("op_p50_ms", m["op_p50_ms"], "ms", ""),
        ("op_tail_ms", m["op_tail_ms"], "ms",
         f"p{m['tail_percentile']:.2f} of {m['attempted']} ops, "
         f"{m['tail_beyond']} beyond"),
        ("error_share", m["error_share"], "share",
         f"{m['failed']} of {m['attempted']}"),
        ("unresolved_share", m["unresolved_share"], "share",
         f"{m['unresolved']} of {m['attempted']}"),
        ("answered_share", m["answered_share"], "share",
         f"{m['ok']} of {m['attempted']}"),
        ("peak_rss_mb", m["peak_rss_mb"], "MB", "largest set-up process"),
    ]
    for name, value, unit, note in rows:
        print(f"  {name:<17} {value:>12.4f} {unit:<6} {note}")
    print(f"  fingerprint       {m['fingerprint']}")
    print("  host factors      "
          + " ".join(f"{f:.3f}" for f in m["host_factors"])
          + " (nominal / measured reference time, per set-up)")
    print(f"  {'op':<26} {'count':>6} {'total_s':>9} {'max_ms':>10} "
          f"{'unresolved':>10} {'errors':>6}")
    for name, (count, total, worst, unres, errs) in sorted(m["by_op"].items()):
        print(f"  {name:<26} {count:>6} {total:>9.3f} {1000 * worst:>10.2f} "
              f"{unres:>10} {errs:>6}")
    for r in m["errors"][:5]:
        print(f"  error: group {r[0]} op {r[2]}: {r[5]}")


def print_trace_report(workload: str, table: dict, layer: dict,
                       overhead: float, untraced: float, traced: float) -> None:
    print(f"== {workload} trace: busy and self seconds per span")
    print(f"  {'span':<40} {'per':<7} {'calls':>9} {'busy_s':>10} "
          f"{'self_s':>10}")
    for name in sorted(table):
        row = table[name]
        print(f"  {name:<40} {row['per']:<7} {row['calls']:>9.1f} "
              f"{row['busy_s']:>10.4f} {row['self_s']:>10.4f}")
    print("  per-layer metrics (per pass; set-up spans per set-up):")
    for name, v in layer.items():
        print(f"  {name:<40} {v['value']:>14.4f} {v['unit']}")
    print(f"  tracing overhead: ops_per_s {untraced:.2f} untraced, "
          f"{traced:.2f} traced, {100 * overhead:.2f} % lower")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_one(workload: str, seed: int, seconds: float, trace: int,
            deadline: float) -> dict:
    # a traced run repeats the timed passes, so each half gets half the time
    timed = run_passes(workload, seed, seconds, 0, deadline,
                       limit=RUN_LIMIT_S / (2 if trace else 1))
    e2e = end_to_end(timed)
    env = environment(seed, e2e)
    print_end_to_end(workload, e2e)
    print(f"  env: {json.dumps({k: v for k, v in env.items() if k != 'limits'})}")
    print(f"  limits: {LIMITS_NOTE}")
    result = {"correct": e2e["failed"] == 0, "attempted": e2e["attempted"],
              "failed": e2e["failed"]}
    full = {"workload": workload, "env": env,
            "end_to_end": {k: v for k, v in e2e.items() if k != "errors"},
            "errors": e2e["errors"]}
    if trace:
        traced = run_passes(workload, seed, seconds, 1, deadline,
                            passes=timed["passes"])
        t_e2e = end_to_end(traced)
        overhead = (1 - t_e2e["ops_per_s"] / e2e["ops_per_s"]
                    if e2e["ops_per_s"] else 0.0)
        table = span_table(traced)
        layer = per_layer(traced, table, overhead)
        print_trace_report(workload, table, layer, overhead,
                           e2e["ops_per_s"], t_e2e["ops_per_s"])
        result["correct"] = result["correct"] and t_e2e["failed"] == 0
        result["metrics"] = layer
        full.update(spans_table=table, per_layer=layer,
                    spans=[w["spans"] for w in traced["workers"]])
    else:
        result["metrics"] = {
            "setup_s": metric(e2e["setup_s"], "s"),
            "ops_per_s": metric(e2e["ops_per_s"], "1/s"),
            "op_p50_ms": metric(e2e["op_p50_ms"], "ms"),
            "op_tail_ms": metric(e2e["op_tail_ms"], "ms"),
            "answered_share": metric(e2e["answered_share"], "share"),
            "peak_rss_mb": metric(e2e["peak_rss_mb"], "MB"),
        }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(full))
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dpcolor" / "__init__.py").is_file():
        print(f"error: no dpcolor sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # a terminating signal unwinds through subprocess.run, which kills and
    # reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    # each run must end within 180 s; `all` runs get that per workload
    deadline = time.monotonic() + 170 * len(names)
    results = {}
    try:
        for name in names:
            results[name] = run_one(name, args.seed, args.seconds, args.trace,
                                    deadline)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if len(names) == 1:
        line = results[names[0]]
    else:
        line = {"correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{k}": v for w, r in results.items()
                            for k, v in r["metrics"].items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

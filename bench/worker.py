"""One workload process: set up from the seed, run a slice of the pass.

Started by ``run.py`` in a fresh interpreter; not meant to be run by hand.
The result (op records, spans, memory, clocks) goes to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def execute(groups, first: int, last: int, tr, workloads,
            ref_times: list[float]) -> list[list]:
    """Run groups[first:last]; one record per op.  A host-speed reference
    sample is taken after every ``reference.EVERY_S`` of op time."""
    from dpcolor import BudgetExceeded

    import reference

    records = []
    since_ref = 0.0
    for gi in range(first, last):
        state: dict = {}
        for oi, op in enumerate(groups[gi].ops):
            tr.op_id, tr.phase = len(records), "op"
            answer, outcome, note, counts = None, "ok", "", {}
            ref_index = len(ref_times)
            t0 = time.perf_counter()
            try:
                answer = tr.call(f"op.{op.name}", op.run, tr, state)
            except BudgetExceeded:
                outcome, note = "unresolved", "budget-exceeded"
                counts["solver.budget_exceeded"] = 1
            except RecursionError:
                outcome, note = "unresolved", "recursion-limit"
                counts["solver.recursion_errors"] = 1
            except Exception as e:  # an op that raises is a counted error
                outcome, note = "error", f"{type(e).__name__}: {e}"
            dt = time.perf_counter() - t0
            since_ref += dt
            if since_ref >= reference.EVERY_S:
                ref_times.append(reference.sample())
                since_ref = 0.0
            state[op.name] = answer
            tr.phase = "check"
            if outcome == "ok":
                counts.update(op.counts(answer))
                why = op.unresolved(answer)
                if why:
                    outcome, note = "unresolved", why
                elif op.check is not None:
                    try:
                        failures = op.check(tr, state, answer)
                    except Exception as e:  # a check that raises fails
                        failures = [f"check raised {type(e).__name__}: {e}"]
                    if failures:
                        outcome, note = "error", "; ".join(failures[:3])
            fp = workloads.digest(answer if outcome == "ok" else
                                  [outcome, note.split(":")[0]])
            records.append([gi, oi, op.name, dt, outcome, note, fp, counts,
                            ref_index])
    return records


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--chunk", type=int, required=True)
    ap.add_argument("--chunks", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    limit_at_start = sys.getrecursionlimit()

    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import dpcolor
    if not Path(dpcolor.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"dpcolor imported from {dpcolor.__file__}, not from this "
              "checkout", file=sys.stderr)
        return 2
    import reference
    import workloads
    from spans import Tracer

    tr = Tracer(bool(args.trace))
    groups = workloads.WORKLOADS[args.workload](args.seed, tr,
                                                Path(args.workdir))
    first = args.chunk * len(groups) // args.chunks
    last = (args.chunk + 1) * len(groups) // args.chunks
    t_setup_done = time.monotonic()
    ref_times = [reference.sample() for _ in range(reference.WARM_SAMPLES)]
    t_first_op = time.monotonic()
    records = execute(groups, first, last, tr, workloads, ref_times)
    t_end = time.monotonic()
    result = {
        "t_setup_done": t_setup_done,
        "t_first_op": t_first_op,
        "ref_times": ref_times,
        "t_end": t_end,
        "records": records,
        "spans": tr.spans,
        "groups": len(groups),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "recursion_limit": [limit_at_start, sys.getrecursionlimit()],
    }
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

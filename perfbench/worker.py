"""One pass of one workload in one fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE --launched T

Sets up (imports, inputs, one warm-up request), then sends the pass's
requests in a closed loop: one client, the next request once the last
has completed.  Every answer is checked.  The last line of standard
output is a JSON summary with every request's identity and wall time,
and the host's slowdown (see reference.py) before the first request and
after each.  Modes:

    pass     one untraced pass
    trace    one traced pass; spans are written out

``--launched`` is the launcher's ``time.monotonic()`` just before it
started this process, so set-up time covers interpreter start as well.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import workloads
import reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPAN_DIR = os.path.join(ROOT, ".perfbench")


def run_pass(workload, requests, tracer) -> dict:
    times: list[float] = []
    failures: list[str] = []
    seen: set[str] = set()
    repeats = 0
    clock = time.perf_counter
    start = clock()
    measure = reference.launch_slowdown if workload.in_children else reference.arithmetic_slowdown
    slowdowns = [measure()]  # the host's, before and after each request
    for request in requests:
        if tracer is not None:
            tracer.begin_request()
        t0 = clock()
        try:
            out, error = request.call(), None
        except Exception as err:  # a failed request is counted; the run goes on
            out, error = None, f"raised {type(err).__name__}: {err}"
        elapsed = clock() - t0
        if tracer is not None:
            tracer.end_request(elapsed)
        if error is None:
            try:
                error = request.check(out)
            except Exception as err:  # malformed answer
                error = f"check raised {type(err).__name__}: {err}"
        times.append(elapsed)
        slowdowns.append(measure())
        if error:
            failures.append(f"{request.kind}: {error}")
        repeats += request.key in seen
        seen.add(request.key)
    who = resource.RUSAGE_CHILDREN if workload.in_children else resource.RUSAGE_SELF
    return {
        "kinds": [r.kind for r in requests],
        "times": times,
        "slowdowns": slowdowns,
        "wall_s": clock() - start,
        "failed": len(failures),
        "failures": failures[:5],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "repeat_share": repeats / len(times),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("pass", "trace"))
    parser.add_argument("--launched", type=float, required=True)
    args = parser.parse_args()

    workload = workloads.make(args.workload, args.seed, ROOT)
    workload.warm_up()
    requests = workload.pass_requests()
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        missing = tracer.install()
        if missing:
            print(f"not in the program, not traced: {', '.join(missing)}", file=sys.stderr)
        workload.tracer = tracer
    setup_s = time.monotonic() - args.launched
    summary = run_pass(workload, requests, tracer)
    summary["setup_s"] = setup_s
    for failure in summary["failures"]:
        print(f"{args.workload}: wrong answer: {failure}", file=sys.stderr)
    if tracer is not None:
        summary["trace"] = tracer.metrics()
        os.makedirs(SPAN_DIR, exist_ok=True)
        tracer.write_spans(os.path.join(SPAN_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

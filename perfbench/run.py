"""Benchmark of sdident: time to a checked verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --steady [--workload NAME] [--seed N] [--seconds S]

Users of sdident are modellers who want a checked verdict for a network,
from the library in a loop or from one CLI call.  Each pass is a closed
loop (one client, next request once the last has completed) in its own
fresh process; load comes from that single process with no extra
threads, and BLAS runs on one thread.  The program is imported
from ``src/`` of this checkout; nothing needs installing.

A run repeats the workload's pass, one fixed list of requests, in fresh
processes until ``--seconds`` are used up (at least five passes), so
every request is timed several times.  The host is shared: its speed
flips between two levels about 1.8x apart and may stay at either for
minutes.  So every time is divided by the host's slowdown at that
moment, measured by fixed reference work next to it (reference.py), and
reported as seconds at one nominal speed.  The benchmark and its
children stay on one CPU, so that the reference meets the same core.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json: set-up
time (median over the passes' launches), the median and p90 over the
pass's requests of each one's median scaled time, requests per second at
those times, and peak resident memory.  The unscaled times are printed
above it.  ``--trace 1`` runs traced and untraced passes in turn and
prints the per-layer metrics (unscaled) and the tracing overhead.
The last line of output is one JSON object: correct, attempted, failed
and metrics.  Failed requests (raised, exited non-zero, wrong answer)
are in ``failed``; ``failed_frac`` is printed above it, not listed as a
metric, since it is 0 on a healthy program.

``--steady`` runs each workload ten times with successive seeds, each
run in a fresh process, and reports every end-to-end metric's spread
(interquartile range over median) against its bound; it exits non-zero
if a spread is wider than its bound or an answer was wrong.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
MIN_PASSES = 5  # per measured run; their launches give setup_s its median
BEYOND_P90 = 10  # timings a run must have at or beyond its p90
STEADY_RUNS = 10
TIMEOUT_S = 170

sys.path.insert(0, HERE)
from reference import launch_slowdown, pin_to_one_cpu  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        raise BenchError(f"cannot read {path}: {err}") from err


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def launch(workload: str, seed: int, mode: str) -> dict:
    """Run one worker process to completion; its last line is its summary.
    ``slowdown`` is the host's around the launch (see reference.py)."""
    before = launch_slowdown()
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--launched", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{workload} {mode} worker did not finish in {TIMEOUT_S} s") from err
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} worker exited with code {proc.returncode}")
    summary = json.loads(lines[-1])
    summary["slowdown"] = (before + launch_slowdown()) / 2
    return summary


def run_passes(workload: str, seed: int, seconds: float, modes: tuple, least: int) -> dict:
    """Passes in fresh processes, cycling through ``modes``, until the next
    cycle would end after ``seconds``; at least ``least`` of each mode."""
    done: dict[str, list[dict]] = {mode: [] for mode in modes}
    start = time.monotonic()
    cycles = 0
    while True:
        for mode in modes:
            done[mode].append(launch(workload, seed, mode))
        cycles += 1
        elapsed = time.monotonic() - start
        if cycles >= least and elapsed * (cycles + 1) / cycles > seconds:
            return done


def scaled_times(passes: list[dict]) -> tuple[list[float], list[int]]:
    """Each request of the pass at the median of its scaled timings, and
    the number of timings behind it.

    A timing is divided by the host's slowdown at that moment, measured
    by the reference work just before and after it.
    """
    kinds = passes[0]["kinds"]
    if any(p["kinds"] != kinds for p in passes):
        raise BenchError("passes of one run sent different requests")
    samples: dict[str, list[float]] = {}
    for p in passes:
        slow = p["slowdowns"]
        for i, (kind, t) in enumerate(zip(kinds, p["times"])):
            samples.setdefault(kind, []).append(2 * t / (slow[i] + slow[i + 1]))
    median = {kind: statistics.median(ts) for kind, ts in samples.items()}
    return [median[k] for k in kinds], [len(samples[k]) for k in kinds]


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def p90_support(values: list[float], counts: list[int]) -> tuple[float, int]:
    """The p90 of ``values`` and the timings it rests on: every timing of
    the requests at or beyond it.  A p90 between two equal values may come
    out a rounding error above both."""
    high = p90(values)
    return high, sum(c for t, c in zip(values, counts) if t >= high or math.isclose(t, high))


def measure(workload: str, seed: int, seconds: float, units: dict) -> tuple[dict, dict]:
    """Untraced passes; every time is scaled to the nominal speed."""
    passes = run_passes(workload, seed, seconds, ("pass",), MIN_PASSES)["pass"]
    scaled, counts = scaled_times(passes)
    high, beyond = p90_support(scaled, counts)
    if beyond < BEYOND_P90:
        raise BenchError(f"{workload}: only {beyond} timings lie at or beyond the p90, "
                         f"fewer than {BEYOND_P90}")
    values = {
        "setup_s": statistics.median(p["setup_s"] / p["slowdown"] for p in passes),
        "scaled_request_s.p50": statistics.median(scaled),
        "scaled_request_s.p90": high,
        "scaled_requests_per_s": len(scaled) / sum(scaled),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    every = [t for p in passes for t in p["times"]]
    n = len(every)
    failed = sum(p["failed"] for p in passes)
    print(f"{workload}  seed {seed}: {len(passes)} passes of {len(scaled)} requests, each pass "
          "a fresh process; closed loop, one client")
    notes = {
        "setup_s": f"median of {len(passes)} launches, scaled",
        "scaled_request_s.p50": f"of {len(scaled)} requests, each the median of "
                                f"{min(counts)}+ scaled timings",
        "scaled_request_s.p90": f"{beyond} timings at or beyond",
    }
    for name, value in values.items():
        print(f"  {name:<22} {value!r:<22} {units[name]:<6} {notes.get(name, '')}")
    print(f"  {'failed_frac':<22} {failed / n!r:<22} {'ratio':<6} {failed} of {n}")
    print(f"  {'repeat_share':<22} {passes[0]['repeat_share']!r:<22} {'ratio':<6} "
          "requests whose structure came earlier in the pass")
    print(f"  unscaled, host speed as it came: setup "
          f"{statistics.median(p['setup_s'] for p in passes):.4g} s, request p50 "
          f"{statistics.median(every):.4g} s, p90 {p90(every):.4g} s, "
          f"{n / sum(p['wall_s'] for p in passes):.4g} requests/s with the reference work")
    return values, {"attempted": n, "failed": failed}


def trace(workload: str, seed: int, seconds: float, units: dict) -> tuple[dict, dict]:
    """Traced and untraced passes in turn; layer metrics are means over
    the traced passes, and the overhead compares scaled request times."""
    done = run_passes(workload, seed, seconds, ("trace", "pass"), 1)
    traced, plain = done["trace"], done["pass"]
    per_pass = [p["trace"] for p in traced]
    values = {name: statistics.fmean(m[name] for m in per_pass) for name in per_pass[0]}
    values["trace.requests"] = sum(m["trace.requests"] for m in per_pass)
    traced_s, plain_s = sum(scaled_times(traced)[0]), sum(scaled_times(plain)[0])
    size = len(traced[0]["kinds"])
    values["trace.traced_requests_per_s"] = size / traced_s
    values["trace.untraced_requests_per_s"] = size / plain_s
    values["trace.overhead"] = traced_s / plain_s - 1
    print(f"{workload}  seed {seed}: {len(traced)} traced and {len(plain)} untraced passes")
    for name, value in values.items():
        print(f"  {name:<36} {value!r} {units.get(name, '')}")
    counts = {
        "attempted": sum(len(p["times"]) for p in traced + plain),
        "failed": sum(p["failed"] for p in traced + plain),
    }
    return values, counts


def result_line(values: dict, counts: dict, units: dict) -> str:
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise BenchError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    return json.dumps({
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
    })


def run_one(spec: dict, workload: str, seed: int, seconds: float, traced: bool) -> tuple:
    section = "per_layer" if traced else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    values, counts = (trace if traced else measure)(workload, seed, seconds, units)
    return values, counts, units


def steady(spec: dict, names: list[str], first_seed: int, seconds: float) -> int:
    """Spread of each end-to-end metric over ten seeds, per workload."""
    report: dict = {}
    worst = 0
    for workload in names:
        samples: dict[str, list[float]] = {}
        for seed in range(first_seed, first_seed + STEADY_RUNS):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=3 * TIMEOUT_S,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                raise BenchError(f"{workload} seed {seed} failed")
            result = json.loads(lines[-1])
            if not result["correct"]:
                worst = 1
            for name, metric in result["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{n} {m['value']:.4g}" for n, m in result["metrics"].items()), file=sys.stderr)
        report[workload] = {}
        print(f"{workload}: {STEADY_RUNS} runs, seeds {first_seed}..{first_seed + STEADY_RUNS - 1}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = samples[name]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            if spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound, above a third of it"
            else:
                verdict = "WIDER THAN BOUND"
                worst = 1
            print(f"  {name:<22} median {median:<12.6g} spread {spread:7.2%}  bound {bound:.0%}  {verdict}")
            report[workload][name] = {"median": median, "spread": spread, "bound": bound, "values": values}
    print(json.dumps(report))
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description="sdident benchmark: time to a checked verdict")
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", action="store_true", help="report run-to-run spread")
    args = parser.parse_args()

    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "sdident", "__init__.py")):
            raise BenchError(f"no sdident sources under {os.path.join(ROOT, 'src')}")
        spec = load_spec()
        pin_to_one_cpu()
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        if args.steady:
            return steady(spec, names, args.seed, seconds)
        all_values, all_units = {}, {}
        total = {"attempted": 0, "failed": 0}
        for workload in names:
            values, counts, units = run_one(spec, workload, args.seed, seconds, bool(args.trace))
            tag = f"{workload}." if len(names) > 1 else ""
            all_values.update({tag + k: v for k, v in values.items()})
            all_units.update({tag + k: u for k, u in units.items()})
            total = {k: total[k] + counts[k] for k in total}
        print(result_line(all_values, total, all_units))
        return 0
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Smoke check of the benchmark on a tiny seed and a one-second run.

    python3 -m pytest -q perfbench/test_smoke.py

Runs in about forty seconds, most of it the fewest passes a run makes.
It checks the output contract of ``run.py`` in both modes, that it fails
without a result where the program's sources are absent, that the first
requests of every workload pass their checks, that the checks reject
wrong answers, and how timings are scaled to the nominal speed.
"""

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(proc):
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_spec_shape():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_untraced_run_prints_every_end_to_end_metric():
    result = last_json(run_bench("--workload", "cli_small", "--seed", "3", "--seconds", "1", "--trace", "0"))
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(result["metrics"][n]["value"] > 0 for n in names)


def test_traced_run_prints_every_per_layer_metric():
    result = last_json(run_bench("--workload", "prony_report", "--seed", "3", "--seconds", "1", "--trace", "1"))
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert 0.9 <= metrics["trace.coverage"] <= 1.0
    assert metrics["opalg.constitutive.calls"] > 0 and metrics["oracle.self_s"] == 0


def test_fails_without_program_sources():
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("--workload", "verify_sweep", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


@pytest.fixture
def cli_env(monkeypatch):
    src = os.path.join(ROOT, "src")
    monkeypatch.setenv("PYTHONPATH", src + os.pathsep + os.environ.get("PYTHONPATH", ""))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_first_requests_pass_their_checks(name, cli_env):
    workload = workloads.make(name, 1, ROOT)
    batch = workload.pass_requests()
    if name == "fiber_classics":  # one network with a larger fiber, one without
        batch = [r for r in batch if r.kind in ("fiber GEN_KELVIN_VOIGT #0", "fiber VOIGT #0")]
    for request in batch[:4]:
        assert request.check(request.call()) is None, request.kind


def test_checks_reject_wrong_answers(cli_env):
    prony = workloads.make("prony_report", 1, ROOT).pass_requests()[0]
    report = prony.call()
    assert prony.check(dict(report, **{"global": "global"})) is not None
    assert prony.check(dict(report, param_count=report["param_count"] - 1)) is not None

    fiber = [r for r in workloads.make("fiber_classics", 1, ROOT).pass_requests()
             if r.kind == "fiber MAXWELL #0"][0]
    answer = fiber.call()
    wrong = SimpleNamespace(solutions=[SimpleNamespace(values=(2.0, 3.0), method="base")])
    assert fiber.check(answer) is None and fiber.check(wrong) is not None

    sweep = workloads.make("verify_sweep", 1, ROOT).pass_requests()[0]
    verdict, _ = sweep.call()
    assert sweep.check((verdict, False)) is not None

    cli = workloads.make("cli_small", 1, ROOT).pass_requests()[0]
    assert cli.check((1, "")) is not None


def test_scaled_times_take_the_median_timing_at_nominal_speed():
    import run

    passes = [
        {"kinds": ["a", "b", "a"], "times": [3.0, 5.0, 2.0], "slowdowns": [1.0] * 4},
        {"kinds": ["a", "b", "a"], "times": [8.0, 2.0, 4.0], "slowdowns": [2.0] * 4},
        {"kinds": ["a", "b", "a"], "times": [1.0, 9.0, 9.0], "slowdowns": [1.0] * 4},
    ]
    # a: 3, 2, 4, 2, 1, 9 -> 2.5; b: 5, 1, 9 -> 5
    assert run.scaled_times(passes) == ([2.5, 5.0, 2.5], [6, 3, 6])
    with pytest.raises(run.BenchError):
        run.scaled_times(passes + [{"kinds": ["b", "a", "a"], "times": [1.0] * 3, "slowdowns": [1.0] * 4}])


def test_p90_rests_on_the_timings_of_its_requests():
    import run

    # this p90 is computed a rounding error above the ten equal values
    values = [0.01] * 40 + [0.0779123] * 10
    high, beyond = run.p90_support(values, [3] * 50)
    assert beyond == 30

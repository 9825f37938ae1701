"""Fast tests of the benchmark: tiny-N smoke runs of each workload, traced
and untraced, repeatable counts, the output checks and the failure exit."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text())


def _declared(section: str) -> dict:
    return {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK[section]}


def test_benchmark_json_matches_the_harness():
    assert BENCHMARK["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert _declared("end_to_end") == harness.END_TO_END
    assert _declared("per_layer") == harness.PER_LAYER


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_workload_reports_every_metric(workload, trace):
    result = harness.measure(workload, seed=3, seconds=0, trace=trace, scale="smoke")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == sum(len(p.runs) for p in result["passes"]) > 0
    names = harness.PER_LAYER if trace else harness.END_TO_END
    assert set(names) <= set(result["metrics"])
    assert all(isinstance(v, (int, float)) for v in result["metrics"].values())
    if trace:
        assert [p.traced for p in result["passes"]] == [False, True]
        assert result["metrics"]["cli.s"] > 0
    else:
        assert all(result["metrics"][name] > 0 for name in harness.END_TO_END)


def test_two_traced_runs_of_one_job_give_identical_counts():
    references = workloads.load_references()
    jobs, _ = workloads.build("concurrent_derivative", seed=0, scale="smoke")
    for job in (jobs[1], jobs[-1]):  # spin optimize of scheme C, Fock sweep
        first, second = (harness.run_job(job, references, traced=True) for _ in "ab")
        assert first.error is None and second.error is None

        def counts(run_):
            return {k: v for k, v in run_.layers.items() if not k.endswith(".s")}

        assert counts(first) == counts(second)
    # The Fock sweep reaches spin_core.propagate through the name that
    # bosonic_limit imported, which the tracer must patch too.
    assert first.layers["spin_core.propagate.calls"] > 0
    assert first.layers["bosonic_limit.fock_simulate.calls"] == 3


def test_a_missing_layer_reports_zero_calls(monkeypatch):
    gone = ("gone", "twistsense.spin_core", "no_such_function", None)
    monkeypatch.setattr(layers, "WRAPPED", layers.WRAPPED + (gone,))
    monkeypatch.setattr(layers, "LAYERS", layers.LAYERS + ("gone",))
    jobs, _ = workloads.build("large_n_sequential", seed=0, scale="smoke")
    result = harness.run_job(jobs[0], workloads.load_references(), traced=True)
    assert result.error is None
    assert result.layers["gone.calls"] == 0 and result.layers["gone.s"] == 0


def test_checks_reject_wrong_output():
    references = workloads.load_references()
    optimize = [
        job
        for job in workloads.build("twist_scan", seed=0, scale="smoke")[0]
        if job.command == "optimize"
    ]
    for job in workloads.build("large_n_sequential", seed=0, scale="smoke")[0] + optimize:
        good = harness.run_job(job, references)
        assert good.error is None
        if job.command == "sweep":
            rows = good.stdout.splitlines()
            cells = rows[2].split(",")
            cells[4] = repr(float(cells[4]) * (1 + 1e-6) + 1e-6)
            bad = "\n".join(rows[:2] + [",".join(cells)] + rows[3:]) + "\n"
            dropped = "\n".join(rows[:-1]) + "\n"
        else:
            bad = good.stdout.replace('"boundary": "', '"boundary": "x')
            dropped = good.stdout.replace(f'"scheme": "{job.scheme}"', '"scheme": "A"')
        assert workloads.check(job, bad, references) is not None
        assert workloads.check(job, dropped, references) is not None
        assert workloads.check(job, "", references) is not None


def test_runs_fail_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench")
    shutil.copy(run.BENCH.parent / "BENCHMARK.json", tmp_path)
    argv = ["--workload", "twist_scan", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, "bench/run.py", *argv],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout

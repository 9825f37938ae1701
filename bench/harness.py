"""Runs a workload's CLI jobs, each in a fresh fork, and derives the metrics.

One parent process imports ``twistsense`` and computes nothing else. It runs
the workload's jobs in order as a closed loop with one client: each job is a
forked child that calls ``twistsense.cli.main(argv)`` with stdout captured,
so every job starts with empty caches, as a CLI invocation does. A pass is
one run of the whole job list; passes repeat up to the pass boundary
nearest the requested seconds, and timings are medians over passes.

Jobs and set-up are timed by the CPU time (user plus system) of their
process, not by wall time. Every job is single-threaded (BLAS runs on one
thread), so the two agree on an idle machine. On a shared virtual machine
the wall time also counts the time the hypervisor gave the core to other
guests (steal); on a 2-vCPU machine that was 2-9% of a workload's time and
changed from run to run. Each job's wall time is still printed with it.

CPU time still drifts with the load other guests put on the host. After
every job the parent times a fixed numpy/scipy kernel (``yardstick.py``),
and the reported times are CPU times scaled to the speed that kernel had on
a quiet reference machine (the ``norm`` metrics and ``setup_s``). The raw
CPU time and the kernel's median are reported with the per-layer metrics.

With tracing on, untraced and traced passes alternate; per-layer figures
come from the traced passes and the end-to-end split from the untraced
ones, and their difference is the tracing overhead.
"""

from __future__ import annotations

import io
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
import twistsense.cli

import layers
import workloads
from workloads import Job
from yardstick import REFERENCE_S, Yardstick

SRC = Path(__file__).resolve().parent.parent / "src"

# Metric name -> (unit, better). Memory is in MiB (2**20 bytes). ``norm_cpu_s``
# sums the jobs' CPU times scaled to the reference machine speed (see the
# module docstring), ``setup_s`` is scaled CPU time too, ``raw_cpu_s`` is the
# unscaled sum and ``yardstick_s`` the median kernel time it was scaled by.
# Per-layer ``.s`` is wall self time inside a job, ``dim3`` sums d**3 over
# the matrices decomposed or exponentiated, and ``evals_per_eigh`` is
# sweep_optimize.evals per eigensolve (counting at least one).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "norm_cpu_s": ("s", "lower"),
    "spin_norm_cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

PER_LAYER = {
    "spin_core.eigh.calls": ("count", "lower"),
    "spin_core.eigh.s": ("s", "lower"),
    "spin_core.eigh.dim3": ("count", "lower"),
    "spin_core.eigvec_mb": ("MiB", "lower"),
    "spin_core.evals_per_eigh": ("ratio", "higher"),
    "spin_core.expm.calls": ("count", "lower"),
    "spin_core.expm.s": ("s", "lower"),
    "spin_core.expm.dim3": ("count", "lower"),
    "spin_core.propagate_with_derivative.calls": ("count", "lower"),
    "spin_core.propagate_with_derivative.s": ("s", "lower"),
    "spin_core.propagate.calls": ("count", "lower"),
    "spin_core.propagate.s": ("s", "lower"),
    "spin_core.collective_operators.calls": ("count", "lower"),
    "spin_core.collective_operators.s": ("s", "lower"),
    "protocols.hamiltonian.calls": ("count", "lower"),
    "protocols.hamiltonian.misses": ("count", "lower"),
    "protocols.hamiltonian.s": ("s", "lower"),
    "protocols.hamiltonian.hit_ratio": ("ratio", "higher"),
    "protocols.final_state.calls": ("count", "lower"),
    "protocols.final_state.s": ("s", "lower"),
    "metrology.readout.calls": ("count", "lower"),
    "metrology.readout.s": ("s", "lower"),
    "bosonic_limit.fock_simulate.calls": ("count", "lower"),
    "bosonic_limit.fock_simulate.s": ("s", "lower"),
    "bosonic_limit.fock_hamiltonian.calls": ("count", "lower"),
    "bosonic_limit.fock_hamiltonian.misses": ("count", "lower"),
    "bosonic_limit.fock_hamiltonian.s": ("s", "lower"),
    "sweep_optimize.evals": ("count", "lower"),
    "sweep_optimize.s": ("s", "lower"),
    "cli.s": ("s", "lower"),
    "tracing_overhead_s": ("s", "lower"),
    "fock_norm_cpu_s": ("s", "lower"),
    "raw_cpu_s": ("s", "lower"),
    "yardstick_s": ("s", "lower"),
    "fail_frac": ("ratio", "lower"),
}

_EXIT_CRASH = 70


@dataclass
class JobRun:
    job: Job
    wall_s: float
    cpu_s: float  # user plus system time of the job process
    rss_mb: float
    error: str | None  # None when the job exited 0 and its output checked out
    exited_ok: bool
    stdout: str = ""
    layers: dict | None = None


@dataclass
class Pass:
    traced: bool
    runs: list[JobRun]
    yardstick_s: list[float]  # one kernel sample after each job


def setup_sample() -> float:
    """CPU seconds a fresh interpreter spends until twistsense is imported."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "import twistsense; print(repr(time.process_time()))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        check=True, capture_output=True, text=True, timeout=120,
    ).stdout
    return float(out)


def _summed_medians(passes: list[Pass], engine: str | None = None) -> float:
    """Sum over jobs of each job's median CPU time across ``passes``."""
    return sum(
        statistics.median(r.cpu_s for r in runs)
        for runs in zip(*(p.runs for p in passes))
        if engine in (None, runs[0].job.engine)
    )


def _child(job: Job, traced: bool, wfd: int) -> None:
    """Body of a forked job process; never returns."""
    try:
        tracer = None
        if traced:
            tracer = layers.Tracer()
            tracer.install()
        out, err = io.StringIO(), io.StringIO()
        sys.stdout, sys.stderr = out, err
        try:
            rc = twistsense.cli.main(job.argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        finally:
            sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
        payload = {
            "stdout": out.getvalue(),
            "stderr": err.getvalue(),
            "layers": tracer.report() if tracer else None,
        }
        with os.fdopen(wfd, "w") as pipe:
            json.dump(payload, pipe)
        os._exit(rc)
    except BaseException:
        traceback.print_exc()
        sys.__stderr__.flush()
        os._exit(_EXIT_CRASH)


def run_job(job: Job, references: dict, traced: bool = False) -> JobRun:
    """Run one job in a forked child and check its output."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        _child(job, traced, wfd)
    os.close(wfd)
    reaped = False
    try:
        with os.fdopen(rfd, "rb") as pipe:
            data = pipe.read()
        _, status, usage = os.wait4(pid, 0)
        reaped = True
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    wall = time.perf_counter() - start
    rss_mb = usage.ru_maxrss / 1024.0
    code = os.waitstatus_to_exitcode(status)
    payload = json.loads(data) if data else None
    if payload is None:
        error = f"job process died with exit code {code}"
    elif code != 0:
        error = f"exit code {code}: {payload['stderr'].strip()}"
    else:
        error = workloads.check(job, payload["stdout"], references)
    return JobRun(
        job=job,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=rss_mb,
        error=error,
        exited_ok=code == 0,
        stdout=payload["stdout"] if payload else "",
        layers=payload["layers"] if payload else None,
    )


def _layer_metrics(p: Pass) -> dict:
    """Per-layer metrics of one traced pass, summed over its jobs."""
    total: dict = {}
    for run in p.runs:
        for key, value in (run.layers or {}).items():
            total[key] = total.get(key, 0) + value
    out = {name: total.get(name, 0) for name in PER_LAYER}
    out["spin_core.eigvec_mb"] = total.get("spin_core.eigvec_bytes", 0) / 2**20
    hits = total.get("protocols.hamiltonian.hits", 0)
    misses = total.get("protocols.hamiltonian.misses", 0)
    out["protocols.hamiltonian.hit_ratio"] = hits / max(hits + misses, 1)
    out["spin_core.evals_per_eigh"] = out["sweep_optimize.evals"] / max(
        out["spin_core.eigh.calls"], 1
    )
    return out


def measure(
    workload: str, seed: int, seconds: float, trace: bool, scale: str = "full"
) -> dict:
    """Run one workload and return its result and metrics.

    End-to-end metrics are reported with ``trace`` off and per-layer metrics
    with it on. Job times are medians over passes, summed over jobs. The
    ``setup_s`` samples are taken before the first pass and after every
    pass, and a yardstick sample after every job, so that they and the job
    times see the same machine; the first launch may compile bytecode and
    is not counted.
    """
    jobs, probes = workloads.build(workload, seed, scale)
    references = workloads.load_references()
    probe_runs = [run_job(job, references) for job in probes]
    # A probe that exits 0 with a wrong answer is a correctness failure; one
    # that exits nonzero is the known defect it probes and only counts in
    # fail_frac.
    wrong_probes = [r for r in probe_runs if r.exited_ok and r.error]

    yardstick = Yardstick()
    setup = []
    if not trace:
        setup_sample()
        setup.append(setup_sample())
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        traced = trace and bool(passes) and not passes[-1].traced
        pass_start = time.perf_counter()
        p = Pass(traced, [], [])
        for job in jobs:
            p.runs.append(run_job(job, references, traced))
            p.yardstick_s.append(yardstick.sample())
        passes.append(p)
        if not trace:
            setup.append(setup_sample())
        now = time.perf_counter()
        done = now - start + (now - pass_start) / 2 >= seconds
        if done and (not trace or any(p.traced for p in passes)):
            break

    plain = [p for p in passes if not p.traced]
    runs = [r for p in passes for r in p.runs]
    failed = sum(r.error is not None for r in runs)
    probe_failed = sum(r.error is not None for r in probe_runs)
    yardstick_s = statistics.median(y for p in passes for y in p.yardstick_s)
    scale = REFERENCE_S / yardstick_s

    if trace:
        traced_passes = [p for p in passes if p.traced]
        per_pass = [_layer_metrics(p) for p in traced_passes]
        metrics = {
            name: statistics.median(m[name] for m in per_pass) for name in PER_LAYER
        }
        overhead = _summed_medians(traced_passes) - _summed_medians(plain)
        metrics["tracing_overhead_s"] = overhead
    else:
        metrics = {
            "setup_s": statistics.median(setup) * scale,
            "norm_cpu_s": _summed_medians(plain) * scale,
            "spin_norm_cpu_s": _summed_medians(plain, "spin") * scale,
            "peak_rss_mb": max(r.rss_mb for r in runs),
        }
    metrics["fock_norm_cpu_s"] = _summed_medians(plain, "fock") * scale
    metrics["raw_cpu_s"] = _summed_medians(plain)
    metrics["yardstick_s"] = yardstick_s
    metrics["fail_frac"] = (failed + probe_failed) / (len(runs) + len(probe_runs))

    return {
        "correct": failed == 0 and not wrong_probes,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
        "passes": passes,
        "probes": probe_runs,
    }


def environment(seed: int) -> dict:
    """Machine and library facts recorded with every result."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


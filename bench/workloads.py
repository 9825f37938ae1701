"""Workload job lists and the per-job output checks of the benchmark.

A workload is a fixed list of ``twistsense`` CLI jobs. The seed picks, for
each job, one of a few jittered variants of its twist values and threshold
intervals, so the same seed always gives the same jobs and every variant's
expected output can be recorded once (``reference.json``).

Why these three workloads:

* ``large_n_sequential``: sweeps of schemes A, B and Bprime at N = 1000, a
  few twists and 11 points per twist. Time goes to dense generator and
  operator build and ``eigh``; the field derivative is never called. A
  faster eigensolver or banded generators shows here, a faster derivative
  must not. It has no optimize and no N = 2000 job: those spend their time
  streaming 16-64 MB matrices through memory (per-point propagation, page
  faults), and on a shared host that work ran up to 45% slower for minutes
  at a time when the neighbours were busy, where eigensolves and small-N
  jobs ran about 20% slower.
* ``concurrent_derivative``: schemes C and Cprime on the spin engine at
  N = 40-200 and scheme C on the Fock engine. Almost all time is the block
  ``expm`` in ``propagate_with_derivative``, with few eigensolves. The
  eigenbasis derivative shows here, eigensolver work mostly does not.
* ``twist_scan``: thresholds and an optimize over many distinct twists at
  N = 200-300, plus Fock B and Bprime sweeps. Same generator and
  eigensystem layers as ``large_n_sequential`` but the other way round:
  many cache misses, per-point ``propagate`` and the outer loop dominate.
  It also carries an untimed probe of an input that fails at truncation
  dimension 400 (``sweep --scheme B --engine fock --twist 1``), so a fix
  shows as fewer failures.

Each job takes 0.3-3 s and a pass over a workload 5-12 s on one core of a
shared 2-core machine, so a run repeats every job several times and reports
medians.

Each workload also has a ``smoke`` scale with tiny N for the fast tests.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from twistsense.bosonic_limit import closed_form, closed_form_optimum
from twistsense.metrology import closed_form_Bprime

WORKLOADS = ("large_n_sequential", "concurrent_derivative", "twist_scan")
SCALES = ("full", "smoke")
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Multipliers applied to a job's twists (and threshold intervals); the seed
# picks one per job. They are small because the block expm's cost steps
# with the generator norm, and a workload's cost should not depend on the
# seed.
JITTER = (1.0, 0.98, 1.02)

CSV_HEADER = "scheme,n_spins,twist_times_tau,t_over_tau,sensitivity,method,engine"
ECHO = ("Bprime", "Cprime")
# Break-even margin of the CLI threshold search.
MARGIN = 1e-9


def fmt(x: float) -> str:
    """A number as the CLI prints it (12 significant digits)."""
    return format(x, ".12g")


@dataclass(frozen=True)
class Job:
    """One CLI invocation. ``n`` is None for the infinite-N Fock engine."""

    command: str
    scheme: str
    n: int | None
    twists: tuple[float, ...] = ()
    t_points: int | None = None
    interval: tuple[float, float] | None = None

    @property
    def engine(self) -> str:
        return "spin" if self.n is not None else "fock"

    @property
    def argv(self) -> list[str]:
        args = [self.command, "--scheme", self.scheme]
        args += ["--n", str(self.n)] if self.n is not None else ["--engine", "fock"]
        if self.twists:
            args += ["--twist", *map(fmt, self.twists)]
        if self.t_points is not None:
            args += ["--t-points", str(self.t_points)]
        if self.interval is not None:
            args += ["--interval", *map(fmt, self.interval)]
        return args

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def needs_reference(self) -> bool:
        """True when no closed form checks the output's values."""
        if self.command != "sweep":
            return True
        return self.engine == "spin" and self.scheme not in ("A", "Bprime")


def _twists(base, j):
    return tuple(round(x * j, 4) for x in base)


def _break_even(scheme: str, n: int) -> float:
    """Twist at which the closed-form optimum first beats the benchmark 1.

    Bprime uses its exact finite-N closed form; B uses the infinite-N one.
    """
    if scheme == "Bprime":
        def best(x):
            ts = np.linspace(0.0, 1.0, 401)
            return max(closed_form_Bprime(n, x, float(t)) for t in ts)
    else:
        def best(x):
            return closed_form_optimum(scheme, x).value
    lo, hi = 1e-6, 100.0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if best(mid) > 1.0 + MARGIN:
            hi = mid
        else:
            lo = mid
    return hi


def _bracket(scheme: str, n: int, j: float) -> tuple[float, float]:
    """A threshold interval around the closed-form break-even twist x.

    Its width is fixed at 0.75 x, so the number of bisection steps, and with
    it the job's cost, does not depend on the seed.
    """
    x = _break_even(scheme, n)
    lo = round(0.6 * x * j, 4)
    return (lo, round(lo + 0.75 * x, 4))


# Each job is a function of the jitter multiplier j.
_FULL = {
    "large_n_sequential": [
        lambda j: Job("sweep", "A", 1000, _twists([1], j), 11),
        lambda j: Job("sweep", "B", 1000, _twists([1], j), 11),
        lambda j: Job("sweep", "Bprime", 1000, _twists([8, 11.5], j), 11),
        lambda j: Job("sweep", "B", 1000, _twists([2], j), 11),
    ],
    "concurrent_derivative": [
        lambda j: Job("sweep", "C", 200, _twists([1], j), 11),
        lambda j: Job("sweep", "C", 100, _twists([0.5, 2], j), 21),
        lambda j: Job("optimize", "C", 60, _twists([1], j), 51),
        lambda j: Job("sweep", "Cprime", 100, _twists([8], j), 11),
        lambda j: Job("optimize", "Cprime", 40, _twists([8], j), 51),
        lambda j: Job("sweep", "C", None, _twists([0.5], j), 3),
    ],
    "twist_scan": [
        lambda j: Job("threshold", "Bprime", 200, interval=_bracket("Bprime", 200, j)),
        lambda j: Job("threshold", "B", 300, interval=_bracket("B", 300, j)),
        lambda j: Job(
            "optimize", "B", 300, _twists([0.6, 0.8, 1, 1.2, 1.4, 1.6, 1.8, 2], j), 21
        ),
        lambda j: Job("sweep", "B", None, _twists([0.3, 0.5, 0.7], j), 21),
        lambda j: Job("sweep", "Bprime", None, _twists([2, 4, 6], j), 21),
    ],
}

# Same shapes at tiny N; the Fock C/Cprime jobs become Fock B/Bprime, whose
# eigensolve at dimension 400 is fast where the 800 x 800 expm is not.
_SMOKE = {
    "large_n_sequential": [
        lambda j: Job("sweep", "A", 8, _twists([1], j), 3),
        lambda j: Job("sweep", "B", 12, _twists([1], j), 3),
        lambda j: Job("sweep", "Bprime", 10, _twists([8, 11.5], j), 5),
        lambda j: Job("sweep", "B", 12, _twists([2], j), 3),
    ],
    "concurrent_derivative": [
        lambda j: Job("sweep", "C", 6, _twists([1], j), 3),
        lambda j: Job("optimize", "C", 4, _twists([1], j), 5),
        lambda j: Job("sweep", "Cprime", 6, _twists([8], j), 3),
        lambda j: Job("optimize", "Cprime", 4, _twists([8], j), 5),
        lambda j: Job("sweep", "B", None, _twists([0.5], j), 3),
    ],
    "twist_scan": [
        lambda j: Job("threshold", "Bprime", 30, interval=_bracket("Bprime", 30, j)),
        lambda j: Job("threshold", "B", 30, interval=_bracket("B", 30, j)),
        lambda j: Job("optimize", "B", 10, _twists([0.6, 1, 2], j), 5),
        lambda j: Job("sweep", "Bprime", None, _twists([2, 4], j), 3),
    ],
}

# Untimed inputs that fail at the seed commit (truncation error at t = 0).
PROBES = {"twist_scan": [Job("sweep", "B", None, (1.0,))]}


def _table(scale: str) -> dict:
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; expected one of {SCALES}")
    return _FULL if scale == "full" else _SMOKE


def build(workload: str, seed: int, scale: str = "full") -> tuple[list[Job], list[Job]]:
    """The timed jobs and untimed probes of one workload for one seed."""
    table = _table(scale)
    if workload not in table:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}")
    jobs = [make(rng.choice(JITTER)) for make in table[workload]]
    return jobs, list(PROBES.get(workload, []))


def all_variants(scale: str) -> list[Job]:
    """Every job any seed can produce at this scale, without duplicates."""
    seen = {}
    for makers in _table(scale).values():
        for make in makers:
            for j in JITTER:
                job = make(j)
                seen.setdefault(job.key, job)
    return list(seen.values())


def load_references() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def parse_values(job: Job, stdout: str):
    """The values of a job's output that ``reference.json`` records."""
    if job.command == "sweep":
        rows = list(csv.reader(io.StringIO(stdout)))
        return [float(row[4]) for row in rows[1:]]
    payload = json.loads(stdout)
    if job.command == "optimize":
        return [
            [r["best_sensitivity"], r["t_opt"], r["boundary"]]
            for r in payload["results"]
        ]
    return payload["threshold"]


def _close(a: float, b: float, rtol: float, floor: float = 0.0) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), floor) or abs(a - b) <= 1e-13


def check(job: Job, stdout: str, references: dict) -> str | None:
    """None when ``stdout`` is a correct answer to ``job``, else the reason.

    Rows and tags must match the request. Values are checked against
    references independent of the timed path: scheme A is 1 (1e-9), finite-N
    Bprime matches its exact closed form (1e-9 relative), Fock rows match the
    infinite-N closed forms (1e-4, the acceptance-test tolerance), and
    everything else matches the outputs recorded at the seed commit (1e-10
    relative, so a flip of the 12th printed digit passes).
    """
    try:
        return _check(job, stdout, references)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output: {exc!r}"


def _check(job: Job, stdout: str, references: dict) -> str | None:
    ref = references.get(job.key) if job.needs_reference else None
    if job.needs_reference and ref is None:
        return "no recorded reference for this job"
    n_col = "inf" if job.n is None else str(job.n)
    if job.command == "sweep":
        lines = stdout.splitlines()
        if not lines or lines[0] != CSV_HEADER:
            return "missing or wrong CSV header"
        rows = list(csv.reader(lines[1:]))
        ts = [float(t) for t in np.linspace(0.0, 1.0, job.t_points or 201)]
        grid = [(x, t) for x in job.twists for t in ts]
        if len(rows) != len(grid):
            return f"{len(rows)} rows for a grid of {len(grid)}"
        method = "echo" if job.scheme in ECHO else "qfi"
        for i, (row, (x, t)) in enumerate(zip(rows, grid)):
            tags = [job.scheme, n_col, fmt(x), fmt(t), method, job.engine]
            if row[:4] + row[5:] != tags:
                return f"row {i} tags {row} do not match {tags}"
            value = float(row[4])
            if job.engine == "fock":
                ok = _close(value, closed_form(job.scheme, x, t), 1e-4, floor=1.0)
            elif job.scheme == "A":
                ok = abs(value - 1.0) <= 1e-9
            elif job.scheme == "Bprime":
                ok = _close(value, closed_form_Bprime(job.n, x, t), 1e-9)
            else:
                ok = _close(value, ref[i], 1e-10)
            if not ok:
                return f"row {i} sensitivity {value!r} fails its reference"
        return None
    payload = json.loads(stdout)
    head = {"scheme": job.scheme, "n_spins": job.n, "engine": job.engine}
    if {k: payload[k] for k in head} != head:
        return f"tags {payload} do not match {head}"
    if job.command == "optimize":
        results = payload["results"]
        if [r["twist_value"] for r in results] != list(job.twists):
            return "optimize results do not follow the requested twists"
        for r, (best, t_opt, boundary) in zip(results, ref):
            if not (
                _close(r["best_sensitivity"], best, 1e-10)
                and _close(r["t_opt"], t_opt, 1e-10)
                and r["boundary"] == boundary
            ):
                return f"optimum {r} differs from reference {[best, t_opt, boundary]}"
        return None
    if payload["search_interval"] != list(job.interval):
        return "threshold interval does not match the request"
    if not _close(payload["threshold"], ref, 1e-10):
        return f"threshold {payload['threshold']!r} differs from reference {ref!r}"
    return None

"""Benchmark of the twistsense command line.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``twistsense`` from
``src/`` and needs nothing built. The workloads are ``large_n_sequential``,
``concurrent_derivative`` and ``twist_scan`` (see ``workloads.py``); ``all``
runs the three in turn.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``. The lines before
it give the environment, every job with its time and check result, and every
metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

def pin_blas_threads() -> None:
    """Run BLAS on one thread; must be called before numpy is loaded.

    Most matrices here are small (d <= 800). On those, OpenBLAS's thread
    hand-off costs more than the arithmetic: on a 2-core machine a scheme
    Cprime optimize at N = 40 took 0.5 s on one thread and 2.4-4.0 s on
    two, and that spread alone exceeds the benchmark's bounds. One thread
    measures the algorithms rather than the thread pool.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser, parser.parse_args(argv)


def _report(harness, name: str, result: dict) -> None:
    for probe in result["probes"]:
        status = "ok" if probe.error is None else f"FAIL {probe.error}"
        print(f"probe {name} untimed {' '.join(probe.job.argv)} :: {status}")
    for i, p in enumerate(result["passes"]):
        for run, yardstick_s in zip(p.runs, p.yardstick_s):
            status = "ok" if run.error is None else f"FAIL {run.error}"
            print(
                f"job {name} pass={i} traced={int(p.traced)} "
                f"wall_s={run.wall_s:.4f} cpu_s={run.cpu_s:.4f} rss_mib={run.rss_mb:.1f} "
                f"yardstick_s={yardstick_s:.4f} {' '.join(run.job.argv)} :: {status}"
            )
    units = {**harness.END_TO_END, **harness.PER_LAYER}
    for metric, value in result["metrics"].items():
        print(f"metric {name} {metric} {value!r} {units[metric][0]}")


def main(argv=None) -> int:
    parser, args = _parse(argv)
    if not (SRC / "twistsense" / "__init__.py").is_file():
        print(f"error: no twistsense sources under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import harness

    names = list(harness.workloads.WORKLOADS)
    if args.workload != "all":
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; expected one of {names}")
        names = [args.workload]
    print("env " + json.dumps(harness.environment(args.seed)))
    for name in names:
        result = harness.measure(name, args.seed, args.seconds, bool(args.trace))
        _report(harness, name, result)
        declared = harness.PER_LAYER if args.trace else harness.END_TO_END
        print(
            json.dumps(
                {
                    "correct": result["correct"],
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": {
                        metric: {"value": result["metrics"][metric], "unit": unit}
                        for metric, (unit, _) in declared.items()
                    },
                }
            ),
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

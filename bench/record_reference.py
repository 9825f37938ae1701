"""Record the expected output of every job variant into ``reference.json``.

    python3 bench/record_reference.py

Run it from the root of a checkout of the commit whose outputs are the
baseline, and only when the job lists in ``workloads.py`` change. It runs
every variant any seed can pick, at both scales, and stops with an error if
any job fails or fails its check, so it also proves that every timed job
passes at this commit.
"""

from __future__ import annotations

import json
import sys

import run

run.pin_blas_threads()
sys.path.insert(0, str(run.SRC))

import harness  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    references = {}
    jobs = [job for scale in workloads.SCALES for job in workloads.all_variants(scale)]
    for job in jobs:
        result = harness.run_job(job, references)
        if job.needs_reference and result.exited_ok:
            references[job.key] = workloads.parse_values(job, result.stdout)
        error = result.error and workloads.check(job, result.stdout, references)
        if not result.exited_ok or error:
            print(f"{job.key}: {result.error if not result.exited_ok else error}",
                  file=sys.stderr)
            return 1
        print(f"{result.wall_s:8.3f} s  {job.key}", flush=True)
    with open(workloads.REFERENCE_PATH, "w") as handle:
        json.dump(references, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

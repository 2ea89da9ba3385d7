"""Record golden output digests for every input any seed can draw.

    python3 perfbench/make_golden.py

Runs each workload's whole pool once, requires every output to pass the
benchmark's own checks, and writes perfbench/golden.json: for each
workload, input digest -> output digest.  The digests pin the library's
output byte for byte, so regenerate them only when the pool changes, never
to accept a changed output.
"""

from __future__ import annotations

import json
import sys

from run import GOLDEN, import_library
from workloads import WORKLOADS, output_digest


def main() -> int:
    zz = import_library()
    golden = {}
    for name, workload in WORKLOADS.items():
        jobs = workload.rounds(workload.prepare(zz, workload.pool()), 0)
        digests = {}
        for job in jobs:
            out = workload.output(job, workload.run(zz, job))
            problems = workload.problems(job, out)
            if problems:
                print(f"{name} {job.key}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            digests[job.key] = output_digest(out, job.prefix)
        golden[name] = dict(sorted(digests.items()))
        print(f"{name}: {len(digests)} inputs")
    GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

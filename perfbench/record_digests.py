"""Record the stdout digests of the default seed's jobs in digests.json.

    python3 perfbench/record_digests.py

Run it at the commit whose outputs are the reference: later runs of the
default seed count any job whose stdout differs as failed.  It refuses to
record when a job fails its exit-code or output check.
"""

import json
import sys

from gen import EXPECTED_CODES, WORKLOADS, make_jobs
from run import DIGESTS, spawn

DEFAULT_SEED = 0


def main():
    digests = {}
    for workload in WORKLOADS:
        result = spawn(make_jobs(workload, DEFAULT_SEED), EXPECTED_CODES[workload])
        if result["failures"]:
            print(f"{workload}: {result['failures']}", file=sys.stderr)
            return 1
        digests[workload] = result["digests"]
    DIGESTS.write_text(json.dumps({"seed": DEFAULT_SEED, "digests": digests},
                                  indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

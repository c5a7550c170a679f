"""Print the label and the sha256 of the checked output of every benchmark op.

Usage: python3 tools/output_digests.py <workload> <seed>

Builds the op list of one `perfbench` workload (`perfbench/workloads.py` is
imported, never changed), runs each op once in list order and prints
`label digest`, plus `FAIL` when the op's own check fails.  Run it in two
checkouts and diff the two listings to compare outputs across commits.
"""

import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
os.environ.pop("MAXSMOOTH_THREADS", None)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402
import workloads  # noqa: E402


def main(workload, seed):
    capture = workloads.GammaTableCapture()
    with tempfile.TemporaryDirectory() as work:
        rng = np.random.default_rng(int(seed))
        for op in workloads.WORKLOADS[workload](rng, work, capture):
            fails, _, out = op.check(op.call())
            print(op.label, hashlib.sha256(out).hexdigest(),
                  *(["FAIL"] if fails else []))


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in workloads.WORKLOADS:
        names = ", ".join(workloads.WORKLOADS)
        sys.exit(f"{__doc__.strip()}\nworkloads: {names}")
    main(*sys.argv[1:])

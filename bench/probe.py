"""Set-up probe: one fresh interpreter that imports pqh, makes request 0 of
a workload and runs it.

    python bench/probe.py WORKLOAD SEED T0 WORKDIR

T0 is the launching process's ``perf_counter()`` just before the launch (a
system-wide monotonic clock on Linux), so the printed ``setup_s`` runs from
launch through ``import pqh`` to the end of the warm-up request.  The probe
calibrates just before ``import pqh`` and just after the request, and
prints both readings; the first calibration is left out of ``setup_s``.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

from calibration import calibrate_median


def main(argv):
    name, seed, t0, workdir = argv[0], int(argv[1]), float(argv[2]), Path(argv[3])
    t1 = perf_counter()
    before = calibrate_median()
    t2 = perf_counter()
    import workloads  # imports pqh

    workload = workloads.WORKLOADS[name](seed, workdir)
    ok = workload.run(workload.make())
    setup = perf_counter() - t0 - (t2 - t1)
    print(json.dumps({"setup_s": setup, "cal_s": [before, calibrate_median()], "ok": ok}))


if __name__ == "__main__":
    main(sys.argv[1:])

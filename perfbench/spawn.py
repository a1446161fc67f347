"""Run one command and print its exit code, wall time and peak RSS as JSON.

    python3 spawn.py LOG COMMAND [ARG...]

The command's stdout and stderr go to LOG. The benchmark starts every timed
child through this small launcher because a child's `ru_maxrss` includes the
high-water RSS of the process it was forked from: measured straight from the
benchmark process, each child would report the benchmark's own size instead
of its own. Forked from this launcher, the floor is the launcher's few MB.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    log, args = sys.argv[1], sys.argv[2:]
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=fh, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"code": proc.returncode, "wall_s": wall, "maxrss_mb": usage.ru_maxrss / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

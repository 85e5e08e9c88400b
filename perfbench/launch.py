"""Run one command and print its exit code, wall time and peak RSS as JSON.

    launch.py STDOUT_FILE STDERR_FILE COMMAND...

On Linux ``ru_maxrss`` of a child also covers the memory it had between
fork and exec, which is its parent's.  Forking the command from this small
process, rather than from run.py, which holds numpy and parsed
reports, keeps the figure the command's own.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    out_path, err_path, cmd = sys.argv[1], sys.argv[2], sys.argv[3:]
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.perf_counter()
    print(json.dumps({"exit": os.waitstatus_to_exitcode(status), "wall_s": t1 - t0,
                      "t0": t0, "t1": t1, "peak_rss_mb": usage.ru_maxrss / 1024.0}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

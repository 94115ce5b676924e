"""Start child processes on request and report their wall time, exit code and peak RSS.

    python3 perfbench/launch.py      (started by run.py, which talks to it)

On Linux a child's `ru_maxrss` includes the resident size of the process
that forked it, so CLI children forked straight from run.py (which holds
numpy, scipy and the input streams) would report run.py's size.  This
process stays small, so the peak RSS of the children it starts is their own.

Protocol: one JSON request per stdin line, {"argv": [...], "stdout": path or
null, "stderr": path}; one JSON reply per request on stdout, {"wall_s",
"code", "maxrss_kb"}.  Children inherit this process's environment and
working directory.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"] or os.devnull, "w", encoding="utf-8") as out, \
                open(request["stderr"], "a", encoding="utf-8") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall_s": wall, "code": proc.returncode, "maxrss_kb": usage.ru_maxrss}),
              flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

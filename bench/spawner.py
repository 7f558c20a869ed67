"""Start CLI invocations from a small process, so each child's peak RSS is its own.

Linux records the old address space's high-water RSS in the process's
ru_maxrss at exec. A child spawned by vfork (or fork) of ``run.py``, which
holds every expected output in memory, would therefore report the RSS of
``run.py`` whenever that is larger than the CLI's own peak. This process
stays small.

Protocol: one JSON request per line on stdin,
``{"cmd": [...], "cwd": str, "env": {...}, "log": str, "timeout": seconds}``;
one JSON reply per line on stdout, ``{"wall": s, "maxrss_kib": n, "code": c}``.
It exits when stdin closes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "wb") as log:
            start = perf_counter()
            proc = subprocess.Popen(
                request["cmd"],
                cwd=request["cwd"],
                env=request["env"],
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
            killer = threading.Timer(request["timeout"], proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall": wall, "maxrss_kib": usage.ru_maxrss, "code": proc.returncode}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

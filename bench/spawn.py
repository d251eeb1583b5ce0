"""Run one command and report its exit code, wall time and peak RSS.

    python3 bench/spawn.py RESULT.json COMMAND [ARG ...]

The command inherits this process's standard streams. Linux counts in a
child's peak RSS the memory of the process that spawned it, up to the
exec, so a child started straight from the benchmark would report the
benchmark's own memory. This small process starts the child instead, and
reads the child's peak RSS alone with ``os.wait4`` (``RUSAGE_CHILDREN``
would keep the maximum over every child reaped so far). A child still
running after two minutes is killed, so a hang cannot outlive the
benchmark's time limit.
"""

import json
import os
import signal
import sys
import time

TIMEOUT_S = 120

if __name__ == "__main__":
    result, cmd = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    pid = os.posix_spawnp(cmd[0], cmd, os.environ)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(TIMEOUT_S)
    _, status, usage = os.wait4(pid, 0)
    wall_s = time.perf_counter() - t0
    signal.alarm(0)
    with open(result, "w") as f:
        json.dump({
            "code": os.waitstatus_to_exitcode(status),
            "wall_s": wall_s,
            "rss_mb": usage.ru_maxrss / 1024.0,
        }, f)

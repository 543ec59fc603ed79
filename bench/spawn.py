"""Run one command and report its wall time and its own peak memory.

    python3 -I -S spawn.py REPORT TIMEOUT -- ARGV...

The command inherits stdin, stdout and stderr.  REPORT receives JSON with
the exit code (or "timeout"), the CLOCK_MONOTONIC spawn and exit times and
the child's ru_maxrss from os.wait4.

Linux keeps the largest resident set a process had, across exec, so a child
forked from a large process reports its parent's size when its own is
smaller.  This spawner is a bare interpreter (-S: no site packages), smaller
than any CLI run, so the peak it reports is the child's own.
"""

import json
import os
import select
import signal
import sys
import time


def main(argv):
    report, timeout = argv[0], float(argv[1])
    command = argv[argv.index("--") + 1:]
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    pid = os.posix_spawn(command[0], command, os.environ)
    pidfd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], timeout)
    finally:
        os.close(pidfd)
    if not ready:
        os.kill(pid, signal.SIGKILL)
    _, status, usage = os.wait4(pid, 0)
    ended = time.clock_gettime(time.CLOCK_MONOTONIC)
    with open(report, "w") as fh:
        json.dump({
            "rc": os.waitstatus_to_exitcode(status) if ready else "timeout",
            "started": started,
            "ended": ended,
            "maxrss_kb": usage.ru_maxrss,
        }, fh)


if __name__ == "__main__":
    main(sys.argv[1:])

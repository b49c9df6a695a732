"""Start the benchmark's processes from a small, long-lived process.

    python perfbench/launch.py

reads one request a line from standard input,
``TIMEOUT<TAB>STDOUT_FILE<TAB>STDERR_FILE<TAB>PROGRAM<TAB>ARG...``, runs
PROGRAM (an absolute path) to its end with standard input from /dev/null,
and answers ``EXIT<TAB>SECONDS<TAB>MAXRSS_KB``.  A process still running
after TIMEOUT seconds is killed.

Why a separate process: Linux carries a parent's peak RSS into the
``ru_maxrss`` of every child it spawns, so children of the benchmark
itself would report at least the benchmark's own footprint.  This process
imports almost nothing and stays smaller than any ``nilorb`` process.
"""

import os
import signal
import sys
import time

_running = [0]


def _expire(signum, frame):
    if _running[0]:
        os.kill(_running[0], signal.SIGKILL)


def main() -> int:
    signal.signal(signal.SIGALRM, _expire)
    for line in sys.stdin:
        timeout, out, err, *argv = line.rstrip("\n").split("\t")
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600),
            (os.POSIX_SPAWN_OPEN, 2, err, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600),
        ]
        t0 = time.perf_counter()
        _running[0] = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        signal.setitimer(signal.ITIMER_REAL, max(float(timeout), 0.001))
        _, status, usage = os.wait4(_running[0], 0)
        seconds = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        _running[0] = 0
        sys.stdout.write(f"{os.waitstatus_to_exitcode(status)}\t{seconds!r}\t{usage.ru_maxrss}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one ``nilorb`` command under cProfile and save the profiler records.

    python perfbench/profiled.py STATS_FILE ARGS...

behaves like ``python -m nilorb ARGS...`` (same output, same exit code),
and also writes the records, import of the package included, to
STATS_FILE.  ``nilorb`` must be importable (PYTHONPATH=src).
"""

import cProfile
import sys


def main() -> int:
    stats_file, argv = sys.argv[1], sys.argv[2:]
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        from nilorb import cli

        code = cli.main(argv)
    finally:
        profiler.disable()
        sys.stdout.flush()
        profiler.dump_stats(stats_file)
    return code


if __name__ == "__main__":
    sys.exit(main())

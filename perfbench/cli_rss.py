"""``python -m repro ...`` that also records the child's own peak RSS.

Usage: ``python perfbench/cli_rss.py RSS_OUT <repro CLI args>``

A child forked from the benchmark keeps, in its ``ru_maxrss``, the peak
resident set of the benchmark process it was forked from, so that
figure reads the benchmark's memory whenever it is the larger.
``VmHWM`` in ``/proc/self/status`` counts only the program's own
memory; it is written to ``RSS_OUT`` (in kB) at exit.  The package runs
as ``python -m repro`` runs it, and standard output, standard error and
the exit code are the CLI's own.
"""

import atexit
import os
import runpy
import sys


def record_peak_rss(path: str) -> None:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                with open(path, "w") as out:
                    out.write(line.split()[1])
                return


if __name__ == "__main__":
    atexit.register(record_peak_rss, sys.argv.pop(1))
    sys.path[0] = os.getcwd()  # as for ``python -m``
    runpy.run_module("repro", run_name="__main__", alter_sys=True)

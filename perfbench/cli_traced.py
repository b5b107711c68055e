"""Traced stand-in for ``python -m repro ...`` (the traced cli-cold run).

Usage: ``python perfbench/cli_traced.py SPANS_OUT.json <repro CLI args>``

Times ``import repro.cli``, installs the timing shims, calls
``repro.cli.main(argv)`` and writes the per-layer self times, the wall
clock of each phase boundary and the engine of every kernel to
``SPANS_OUT.json``.  Standard output is the CLI's own.
"""

import time

ENTERED = time.time()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - t0
    from spans import Shims, SpanRecorder

    recorder = SpanRecorder()
    shims = Shims(recorder).install()
    with recorder.span("cli.main"):
        code = repro.cli.main(argv)
    shims.remove()
    sys.stdout.flush()
    selfs, calls = recorder.self_times()
    with open(out_path, "w") as fh:
        json.dump(
            {"entered": ENTERED, "import_s": import_s, "self_s": selfs, "calls": calls,
             "engines": shims.engines, "left": time.time()},
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())

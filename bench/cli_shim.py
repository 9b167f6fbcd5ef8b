"""Traced stand-in for `python -m markovwindow.cli`.

Usage: python3 bench/cli_shim.py SPANS_PATH [CLI ARGS...]

Times `import markovwindow.cli`, installs the span wrappers of
bench/tracing.py, runs `markovwindow.cli.main` on the remaining arguments and
writes the spans and the import time as JSON to SPANS_PATH, also when the
command raises.  The exit code and streams are those of the real CLI.
"""

import json
import sys
import time

t0 = time.perf_counter()
import markovwindow.cli  # noqa: E402

import_s = time.perf_counter() - t0

from tracing import Tracer  # noqa: E402  (bench/ is sys.path[0])


def run() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return markovwindow.cli.main(argv)
    finally:
        with open(path, "w") as fh:
            json.dump({"import_s": import_s, "spans": tracer.take()}, fh)


if __name__ == "__main__":
    sys.exit(run())

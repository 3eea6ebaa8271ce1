"""The ``famop`` command with spans, for the traced ``cli_cold`` run.

Usage: python3 famop_traced.py RECORD_PATH ARGS...

Behaves like the ``famop`` console script (same output, exit code and
traceback) and writes its spans, its ``import famop`` time and its
``main`` time to RECORD_PATH as JSON.
"""
import sys
import time

_start = time.perf_counter()
import famop  # noqa: E402
import famop.cli  # noqa: E402
IMPORT_S = time.perf_counter() - _start

import json  # noqa: E402

from tracing import Tracer  # noqa: E402


def run() -> int:
    record_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    close = tracer.span("cli.main")
    start = time.perf_counter()
    try:
        return famop.cli.main(argv)
    finally:
        main_s = time.perf_counter() - start
        close()
        tracer.uninstall()
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": IMPORT_S, "main_s": main_s,
                       "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(run())

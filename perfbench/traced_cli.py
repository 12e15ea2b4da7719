"""Traced entry for one CLI run.

    python perfbench/traced_cli.py SPANS_JSON OP_ID ARG...

Imports ``gwfield.cli`` (the finish time of the import is recorded, so the
caller can compute spawn-to-import startup on the shared monotonic clock),
wraps the public functions of every layer module, runs
``gwfield.cli.main(ARG...)`` and writes its spans to SPANS_JSON on exit.
Untraced benchmark ops run ``python -m gwfield.cli`` instead.
"""

import json
import sys
import time


def main() -> int:
    spans_path, op, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    import gwfield.cli

    imported = time.monotonic()
    from tracing import Tracer

    tracer = Tracer(op)
    tracer.install()
    code = 1
    try:
        code = gwfield.cli.main(argv)
    finally:
        with open(spans_path, "w") as handle:
            json.dump({"imported": imported, "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())

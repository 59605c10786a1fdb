"""Run one genus2pencils CLI command with the package's functions traced.

    python3 bench/clitrace.py SPANS_JSON SUBCOMMAND [ARGS...]

Behaves like ``python -m genus2pencils.cli SUBCOMMAND [ARGS...]`` (same
output and exit code) and also writes the recorded spans to SPANS_JSON.
Used only by the traced run of the cli workload.
"""

from __future__ import annotations

import json
import sys

import tracer as tracing


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tr = tracing.Tracer()
    tr.install()
    from genus2pencils import cli

    try:
        code = tr.span("bench.op", cli.main, argv)
    finally:
        sys.stdout.flush()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(tr.spans, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())

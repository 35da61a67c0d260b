"""``repro serve`` under the benchmark's layer wrappers.

Usage: ``python3 perfbench/serve_traced.py SPANS_OUT serve ARGS...``

Installs the wrappers of :mod:`tracing`, runs the unmodified ``repro``
command line, and on shutdown (SIGINT) writes the spans it recorded to
``SPANS_OUT`` as JSON.  Per-layer totals also reach ``/metrics``.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import SpanLog, install  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    from repro.cli import main as repro_main

    log = SpanLog()
    install(log)
    try:
        return repro_main(argv)
    finally:
        Path(out).write_text(json.dumps(
            [s for s in log.spans if s["end"] is not None]))


if __name__ == "__main__":
    sys.exit(main())

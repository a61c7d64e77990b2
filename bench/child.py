"""Run one CLI command with the benchmark's spans installed.

Usage: python bench/child.py SPANS_JSON ARGV...

The traced cli-cold run starts this instead of ``python -m
weingarten_tubes.cli``; stdout and the exit code are the CLI's, and the
recorded spans and counters go to SPANS_JSON.
"""

import json
import sys
from pathlib import Path

from spans import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    from weingarten_tubes import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        record = {"spans": [span[:4] for span in tracer.spans], "counts": dict(tracer.counts)}
        Path(out_path).write_text(json.dumps(record))


if __name__ == "__main__":
    sys.exit(main())

"""Run one jordanlab CLI command with per-layer tracing and save the spans.

    PYTHONPATH=src python3 perfbench/traced_cli.py SPANS.json nf "x^12*y"

Stdout and the exit code are the command's own; the spans go to SPANS.json.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import jordanlab.cli  # noqa: E402
from tracing import Tracer  # noqa: E402


def main() -> int:
    stats_path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    with tracer.installed():
        tracer.enabled = True
        code = jordanlab.cli.run(argv)
        tracer.enabled = False
    sys.stdout.flush()
    stats_path.write_text(json.dumps(tracer.snapshot()))
    return code


if __name__ == "__main__":
    sys.exit(main())

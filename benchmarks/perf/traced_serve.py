"""Traced server entry for the benchmark's ``--trace`` runs.

Runs the shipped ``python -m repro serve`` command unchanged, with the
public wire entry points wrapped in ``bench.wire.*`` telemetry spans.
Pass ``--metrics PATH`` (as the benchmark does) to keep the program's
own spans and counters and write them, with the wire spans, on exit::

    python benchmarks/perf/traced_serve.py --bundle nb.json \\
        --format json --workers 2 --metrics server-metrics.json
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro import cli

import spans


def main(argv) -> int:
    spans.install_wire_spans()
    return cli.main(["serve", *argv])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

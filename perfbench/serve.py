"""Start ``msropm serve`` for the service-replay workload, optionally traced.

Runs the service exactly as ``msropm serve --workers 1`` does (through
``repro.cli.main``); with ``--trace-dir`` the layer wrappers are installed
first and the spans are written out when the server shuts down on SIGINT.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--rate", required=True)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)

    from perfbench.workload import finish_tracing, start_tracing

    tracer = start_tracing(args.trace_dir, main_thread=False)
    from repro.cli import main as cli_main

    try:
        return cli_main(
            ["serve", "--cache-dir", args.cache_dir, "--workers", "1", "--port", "0",
             "--rate", args.rate, "--burst", args.rate]
        )
    finally:
        finish_tracing(tracer)


if __name__ == "__main__":
    sys.exit(main())

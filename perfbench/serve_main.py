"""Server process of the serve workloads.

Runs a ``seal-se`` :class:`repro.serve.server.ModelServer` with in-process
crypto threads (``workers=0``) under the key given on the command line,
until SIGTERM drains it.  On exit it prints one ``PERFBENCH {...}`` line:
its peak RSS and, with ``--trace``, the per-layer probe totals.

    python3 perfbench/serve_main.py --key <32 hex digits> [--trace]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--key", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from repro.serve.server import ServeConfig, run_server

    timer = None
    if args.trace:
        from layers import LayerTimer, instrument_serve

        timer = LayerTimer()
        instrument_serve(timer)
    config = ServeConfig(key=bytes.fromhex(args.key), scheme="seal-se", workers=0)
    run_server(config)
    report = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": timer.dump() if timer is not None else None,
    }
    print("PERFBENCH " + json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

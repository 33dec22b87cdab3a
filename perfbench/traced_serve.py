"""A ``repro serve`` stand-in for the traced run: the same server with
default settings, but with the program's own ``repro.obs`` counters
enabled before it starts, so the status endpoint carries a metrics
snapshot.

    PYTHONPATH=src python3 perfbench/traced_serve.py

Prints ``serving on HOST:PORT`` once listening; SIGTERM drains and exits.
"""

import signal
import sys
import threading

from repro.obs import metrics
from repro.server import AnalysisServer, ServerConfig


def main() -> int:
    metrics.enable(reset=True)
    server = AnalysisServer(ServerConfig()).start()
    print(f"serving on {server.host}:{server.port}", flush=True)
    stop = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: stop.set())
    stop.wait()
    server.shutdown(drain=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

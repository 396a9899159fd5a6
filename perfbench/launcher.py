"""Runs the log service in its own process.

    python3 perfbench/launcher.py CONFIG_JSON [SPANS_OUT]

Recovers the log with ``open_log_from_config`` and serves it with
``LogHTTPService``. The config uses ``"clock": "virtual"``, so updates
happen only on ``POST /v1/update``. Once listening it prints one JSON line
with the bound address; ``pkisn serve`` prints the configured address
instead, so a port-0 listener cannot be found from its output. It stops
when its standard input closes, writes its spans to SPANS_OUT when given,
and prints its peak resident set size.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main(argv: list[str]) -> int:
    spans_out = argv[2] if len(argv) > 2 else None
    tracer = None
    if spans_out:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    from pkisn.service import LogHTTPService, ServiceConfig, open_log_from_config

    config = ServiceConfig.load(argv[1])
    service = LogHTTPService(open_log_from_config(config), config)
    if tracer is not None:
        service.lock = tracer.timed_lock(service.lock)
    address = service.serve()
    print(json.dumps({"address": address}), flush=True)
    sys.stdin.read()  # until the benchmark closes the pipe
    service.shutdown()
    if tracer is not None:
        with service.lock:  # let an in-flight request finish
            tracer.dump(spans_out)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_kb": peak_kb}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""The benchmark's server launcher: one busytime HTTP server per process.

Run as ``python -m perfbench.server --store DIR [--trace FILE]`` with the
repository's ``src`` on ``PYTHONPATH``.  It builds the public
``SolveService`` over a fresh disk-backed ``ResultStore`` and binds
``make_server`` on a free loopback port, with the same settings for every
workload.  It prints ``READY <url>`` and serves until a line (or EOF)
arrives on stdin.  Then it shuts down, writes its spans to FILE when
tracing, and prints one JSON line carrying its peak RSS.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading

#: Reports held in the memory tier.  The solve_hot pool is larger, so part
#: of its hits are served from the disk tier.
STORE_CAPACITY = 16


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True, help="fresh disk-tier directory")
    parser.add_argument("--trace", help="record spans and write them here at shutdown")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from .tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    from busytime.service import ResultStore, SolveService, make_server

    service = SolveService(store=ResultStore(capacity=STORE_CAPACITY, directory=args.store))
    server = make_server(service)
    loop = threading.Thread(target=server.serve_forever, name="perfbench-serve")
    loop.start()
    print(f"READY http://127.0.0.1:{server.server_address[1]}", flush=True)
    try:
        sys.stdin.readline()
    finally:
        server.shutdown()
        loop.join()
        server.server_close()
        service.close()
    if tracer is not None:
        tracer.dump(args.trace)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_mb": peak_kb / 1024.0}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Server launcher used by every serving run of the benchmark.

Usage::

    python perfbench/launcher.py [--trace-out FILE] -- <repro.serve args>

It puts the checkout's ``src`` on ``sys.path``, optionally wraps the
service's public calls with the span recorder (``--trace-out``), then
runs ``repro.service.http.main``.  When the server stops (SIGINT), the
spans are written to ``FILE``.  Untraced runs go through the same
launcher with tracing off, so both runs start the server the same way.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv: list[str]) -> int:
    trace_out = None
    if argv and argv[0] == "--trace-out":
        trace_out, argv = argv[1], argv[2:]
    if argv and argv[0] == "--":
        argv = argv[1:]
    from repro.service import http

    tracer = None
    if trace_out:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer, server=True)
    try:
        return http.main(argv)
    finally:
        if tracer is not None:
            tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

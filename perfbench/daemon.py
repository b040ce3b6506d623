"""The traced ``thresher serve`` daemon: ``repro.cli`` with layer spans.

    python3 perfbench/daemon.py LAYERS.json serve --stdio --no-library APP.mj

Runs ``repro.cli.main`` on the remaining arguments with a
:class:`layers.LayerTracer` installed. The measured window opens when the
first ``analyze`` or ``update`` request arrives and closes when the last
one returns, so daemon set-up and the client's closing ``metrics`` and
``shutdown`` requests stay out of it. On exit the layer totals of that
window are written to ``LAYERS.json``.
"""

from __future__ import annotations

import json
import sys

from layers import LayerTracer

MEASURED_OPS = ("analyze", "update")


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import repro.cli as cli
    import repro.serve.server as server

    tracer = LayerTracer().install()
    traced_handle = server.handle_request
    window = {"report": None}

    def handle_request(session, request):
        if request.op not in MEASURED_OPS:
            return traced_handle(session, request)
        if window["report"] is None:
            tracer.open_root()
        response = traced_handle(session, request)
        window["report"] = tracer.report()
        return response

    server.handle_request = handle_request
    try:
        return cli.main(argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump(window["report"], fh, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main())

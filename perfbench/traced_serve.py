"""Run the unmodified ``serve`` command with the layer spans installed.

Usage::

    python3 perfbench/traced_serve.py SPANS_FILE serve --snapshot ... [serve options]

The span wrappers are installed first; then ``repro.cli.main`` runs with the
remaining arguments exactly as ``repro-xsact`` would.  When the server stops
(SIGINT), the recorded spans are written to ``SPANS_FILE`` as JSON.
"""

from __future__ import annotations

import sys

from tracing import Recorder, install


def main(argv: list) -> int:
    spans_path, serve_argv = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(serve_argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

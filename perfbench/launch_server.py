"""Run ``repro serve`` in this process, optionally with layer wrappers.

    python3 perfbench/launch_server.py TRACE_OUT serve FILE... [FLAGS]

``TRACE_OUT`` is ``-`` for a plain server; otherwise the wrappers of
:mod:`tracing` are installed before the CLI starts, and the recorded
spans are written to ``TRACE_OUT`` as JSON once the server has drained
(SIGINT stops it).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main(argv: list[str]) -> int:
    trace_out, cli_args = argv[0], argv[1:]
    import repro.cli

    recorder = None
    if trace_out != "-":
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
    code = repro.cli.main(cli_args)
    if recorder is not None:
        Path(trace_out).write_text(json.dumps(recorder.spans))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

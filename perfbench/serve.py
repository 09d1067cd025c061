"""``repro serve`` with the benchmark's layer wrappers installed.

Builds the service exactly as ``repro serve`` does, wraps the layers
(``layers.py``) before ``SweepServer.serve_forever``, and writes the span
totals to ``--trace-out`` once the server has drained.

    PYTHONPATH=src python3 perfbench/serve.py --state-dir S --socket S.sock \
        --trace-out spans.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--state-dir", required=True)
    ap.add_argument("--socket", required=True)
    ap.add_argument("--trace-out", required=True)
    args = ap.parse_args(argv)

    import layers
    from repro.service import SweepServer, SweepService

    service = SweepService(args.state_dir)
    server = SweepServer(service, args.socket)
    recorder = layers.SpanRecorder()
    installed = layers.install(recorder)
    try:
        server.serve_forever()
    finally:
        installed.remove()
        Path(args.trace_out).write_text(json.dumps(recorder.snapshot()))
    return 0


if __name__ == "__main__":
    sys.exit(main())

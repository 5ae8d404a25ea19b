"""Server process of the ``http-serve`` workload.

Usage: ``python perfbench/serve_index.py INDEX.npz [--spans OUT.jsonl]``

Loads a saved index and serves it with ``repro.serving.serve`` and the
default ``ServingConfig`` (port 0: the kernel picks a free port, which
``serve`` prints).  SIGTERM drains and stops it.  With ``--spans`` the
serving and library layers are traced from outside and the spans are
written to that file after the drain.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("index")
    parser.add_argument("--spans")
    args = parser.parse_args()

    from repro import _native
    from repro.io import load_index
    from repro.serving import ServingConfig, serve

    if _native.LIB is None:
        print(f"native kernel not loaded: {_native.LOAD_ERROR}", file=sys.stderr)
        return 2
    index = load_index(args.index)
    tracer = None
    if args.spans:
        tracer = tracing.Tracer()
        tracing.install_server(tracer, index)
        tracer.active = True
    serve(index, ServingConfig(port=0))
    if tracer is not None:
        tracer.active = False
        tracing.dump_spans(tracer.spans, args.spans)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

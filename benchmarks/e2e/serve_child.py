"""Benchmark-owned launcher of the serving process.

``serve_child.py <workload> [--smoke]`` builds the workload's model,
fills a dealer ``TripletBank``, starts a ``PredictionServer`` on an
ephemeral loopback port and prints ``{"port": ...}``.  It then answers
one JSON line per command read from stdin: ``metrics`` (CPU seconds,
``VmHWM``, bank and server counters) and ``stop`` (shut down and exit).
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))

import adapters  # noqa: E402
from serving import ServerState  # noqa: E402
from workloads import lookup  # noqa: E402


def main(argv: list[str]) -> int:
    workload = lookup(argv[0])
    if "--smoke" in argv[1:]:
        adapters.use_test_group()
    qmodel = adapters.build_model(workload.model, workload.bits, workload.side)
    state = ServerState(qmodel, workload)
    try:
        print(json.dumps({"port": state.port}), flush=True)
        for line in sys.stdin:
            if line.strip() == "metrics":
                print(json.dumps(state.metrics()), flush=True)
            elif line.strip() == "stop":
                break
    finally:
        state.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

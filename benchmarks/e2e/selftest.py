"""Self-tests of the harness (not of the program, and not part of tier-1).

Run explicitly, either way::

    python3 benchmarks/e2e/selftest.py
    PYTHONPATH=src python3 -m pytest benchmarks/e2e/selftest.py -q

They pin what the numbers rest on: ``ProbeChannel`` totals equal
``ChannelStats``; the percentile helper refuses a thin tail; span self
time is duration minus children; the result line has the contract's
shape; ``BENCHMARK.json`` stays inside the contract's limits; and a
``--smoke`` walk of every runner code path finishes in under a minute.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import adapters  # noqa: E402
import summary  # noqa: E402
from ledger import ProbeChannel, SpanLog, protocol_ledger  # noqa: E402
from workloads import SMOKE, WORKLOADS, Workload, check_prediction, verify  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_probe_channel_totals_equal_channel_stats():
    import numpy as np

    server, client = (ProbeChannel(c) for c in adapters.make_channel_pair())

    def server_fn(chan):
        chan.phase = "a"
        chan.send(chan.recv())
        chan.phase = "b"
        chan.send((b"xyz", np.arange(5, dtype=np.uint64)))

    def client_fn(chan):
        chan.send(np.zeros(100, dtype=np.uint64))
        return chan.recv(), chan.recv()

    result = adapters.run_protocol(server_fn, client_fn, channels=(server, client))
    stats = result.stats
    assert client.total("sent_bytes") == stats.bytes_sent[1] == 800
    assert client.total("recv_bytes") == stats.bytes_sent[0] == server.total("sent_bytes")
    assert client.total("sent_msgs") + client.total("recv_msgs") == stats.total_messages
    assert server.total("sent_bytes", "b") == 3 + 40
    assert server.total("recv_s") > 0.0 and len(client.events) == 3


def test_percentile_refuses_a_thin_tail():
    values = list(range(1, 113))  # n = 112: the p90 has 11 samples beyond it
    assert summary.percentile(values, 90) == 101
    for n, pct in ((28, 90), (112, 95), (99, 90)):
        try:
            summary.percentile(list(range(n)), pct)
        except ValueError:
            continue
        raise AssertionError(f"p{pct} of {n} samples should be refused")
    assert summary.highest_percentile(112) == 90
    assert summary.highest_percentile(28) is None


def test_quartiles_and_verdicts_follow_the_driver():
    import statistics

    values = [10.2, 9.8, 10.0, 10.4, 9.9, 10.1, 10.3, 9.7, 10.0, 10.2]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert summary.quartiles(values) == (q1, q2, q3)
    assert abs(summary.spread(values) - (q3 - q1) / q2) < 1e-12
    slower = [v * 1.2 for v in values]
    assert summary.classify(values, values, "lower", 0.1) == "within"
    assert summary.classify(values, slower, "lower", 0.1) == "regressed"
    assert summary.classify(slower, values, "lower", 0.1) == "within"
    assert summary.classify(values, slower, "higher", 0.1) == "within"
    assert summary.classify(values, values, "lower", 0.01) == "unresolved"


def test_span_self_time_is_duration_minus_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])  # starts and ends, in order
    spans = SpanLog(clock=lambda: next(ticks))
    with spans.span("op", op="op0") as op:
        with spans.span("child-a"):
            pass
        with spans.span("child-b") as b:
            pass
    assert spans.duration(op) == 10.0
    assert spans.self_time(op) == 10.0 - 2.0 - 0.5
    assert spans.records[b]["parent"] == op and spans.records[b]["op"] == "op0"
    assert spans.self_time(b) == 0.5


def test_protocol_ledger_accounts_for_the_phases():
    def span(name, seconds, children=(), nbytes=0):
        return {
            "name": name, "duration_s": seconds, "children": list(children),
            "total": {"sent_bytes": nbytes, "recv_bytes": 0},
        }

    offline = span("offline", 5.0, [span("layer0", 5.0, [span("triplets", 4.9, nbytes=7)])])
    online = span("online", 2.0, [
        span("input-share", 0.1),
        span("layer0", 1.5, [span("matmul", 0.2), span("relu", 1.3, nbytes=9)]),
        span("layer1", 0.3, [span("matmul", 0.1), span("relu", 0.2, nbytes=9)]),
        span("logits-share", 0.1),
    ])
    ledger = protocol_ledger([offline, online])
    assert ledger["core.protocol.relu_first_s"] == 1.3
    assert ledger["core.protocol.relu_rest_s"] == 0.2
    assert ledger["core.protocol.relu_bytes"] == 18
    assert ledger["core.protocol.triplets_bytes"] == 7
    assert abs(ledger["core.protocol.unaccounted_frac"] - 0.1 / 7.0) < 1e-9


def test_correctness_gate():
    import numpy as np

    workload = Workload("t", "oneshot", "tiny_mlp", (2, 2), 1, "LAN", tolerance=10)
    reference = np.array([[100], [50], [-30]])
    assert check_prediction(workload, reference, reference + 10, [0]) == (True, 10)
    assert check_prediction(workload, reference, reference + 11, [0])[0] is False
    assert check_prediction(workload, reference, reference, [1])[0] is False
    close = np.array([[100], [95], [0]])  # margin 5: the label is not decisive
    assert check_prediction(workload, close, close, [1])[0] is True
    garbage = reference + (1 << 30)
    # a deviation that a re-issue clears is a truncation wrap, not a failure
    assert verify(workload, reference, garbage, [0], lambda: (reference, [0])) == (
        True, True, 1 << 30)
    assert verify(workload, reference, garbage, [0], lambda: (garbage, [0]))[:2] == (
        False, False)


def test_benchmark_json_is_inside_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        text = fh.read()
    spec = json.loads(text)
    assert len(text.encode()) <= 64 * 1024
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"] and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        assert w["why"] == WORKLOADS[w["name"]].why
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 <= m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128


def _run(*args):
    command = [sys.executable, os.path.join(HERE, "run.py"), *args]
    return subprocess.run(command, capture_output=True, text=True, timeout=120)


def test_smoke_walks_every_runner_path_with_the_contract_output():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    started = time.perf_counter()
    for name in SMOKE:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run("--workload", name, "--smoke", "--seed", "5",
                        "--seconds", "2", "--trace", str(trace))
            assert proc.returncode == 0, proc.stderr[-2000:]
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0
            assert isinstance(result["attempted"], int) and result["attempted"] >= 1
            units = {m["name"]: m["unit"] for m in spec[key]}
            assert set(result["metrics"]) == set(units)
            for metric, cell in result["metrics"].items():
                assert set(cell) == {"value", "unit"} and cell["unit"] == units[metric]
                assert isinstance(cell["value"], float)
    assert time.perf_counter() - started < 60.0


def test_no_result_without_the_program():
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files the runner must exit non-zero without printing a result."""
    import shutil
    import tempfile

    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "benchmarks", "e2e"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "benchmarks/e2e/run.py", "--workload", "mlp_b1_lan",
             "--seed", "1", "--seconds", "20", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode != 0 and "{" not in proc.stdout


if __name__ == "__main__":
    failures = 0
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            started = time.perf_counter()
            try:
                test()
                outcome = "ok"
            except AssertionError as exc:
                failures += 1
                outcome = f"FAILED {exc}"
            print(f"{name:60s} {outcome} ({time.perf_counter() - started:.1f} s)")
    sys.exit(1 if failures else 0)

"""The ``serve`` workload: a server process, closed-loop client sessions
over real loopback TCP, and the reduction of what they saw to metrics.

The server runs in a child process started by the benchmark's own
launcher (``serve_child.py``); this process runs the clients.  Load is a
closed loop because each caller waits for its logits: a client's next
session starts only after its previous one closed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import adapters
from summary import highest_percentile, median, percentile
from workloads import Workload, draw_input, input_rng, verify

HERE = os.path.dirname(os.path.abspath(__file__))


# --------------------------------------------------------------------- #
# the server, in this process or in a child
# --------------------------------------------------------------------- #
class ServerState:
    """A started server plus a monitor sampling the bank depth."""

    def __init__(self, qmodel, workload: Workload) -> None:
        self.server = adapters.start_server(
            qmodel, workload.batch, workload.bank_capacity
        )
        self.port = self.server.port
        self.depth_min = self.server.bank.depth
        self._stop = threading.Event()
        self._monitor = threading.Thread(target=self._watch, daemon=True)
        self._monitor.start()

    def _watch(self) -> None:
        while not self._stop.wait(0.05):
            self.depth_min = min(self.depth_min, self.server.bank.depth)

    def metrics(self) -> dict:
        doc = self.server.metrics()
        bank = doc.pop("bank")
        doc.pop("scheduler", None)
        return {
            "cpu_s": time.process_time(),
            "peak_rss_mib": adapters.peak_rss_bytes() / 2**20,
            "depth_min": self.depth_min,
            "bank": bank,
            "server": doc,
        }

    def stop(self) -> None:
        self._stop.set()
        self._monitor.join()
        self.server.stop()


class ServerProcess:
    """Parent-side handle of ``serve_child.py``: one JSON line per answer."""

    def __init__(self, workload: Workload, smoke: bool) -> None:
        command = [sys.executable, os.path.join(HERE, "serve_child.py"), workload.name]
        if smoke:
            command.append("--smoke")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            self.port = self._answer()["port"]
        except Exception:
            self.stop()
            raise
        #: fresh process -> accepting connections (imports, model build,
        #: bank fill, listener), as the parent saw it
        self.launch_s = time.perf_counter() - started

    def _answer(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server process exited with code {self.proc.wait()} before answering"
            )
        return json.loads(line)

    def metrics(self) -> dict:
        self.proc.stdin.write("metrics\n")
        self.proc.stdin.flush()
        return self._answer()

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("stop\n")
                self.proc.stdin.flush()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


# --------------------------------------------------------------------- #
# client sessions
# --------------------------------------------------------------------- #
@dataclass
class Prediction:
    wall_s: float
    online_s: float
    wire_bytes: int
    rounds: int
    ok: bool
    max_diff: int


@dataclass
class Session:
    connect_s: float = 0.0
    duration_s: float = 0.0
    predictions: list = field(default_factory=list)
    attempted: int = 0
    wraps: int = 0  # deviations a re-issue showed to be truncation wraps
    error: str | None = None
    probe: object | None = None  # client ProbeChannel (traced sessions)
    trace: dict | None = None  # client trace document (traced sessions)


def run_session(workload, qmodel, meta, port, rng, wrap=None, spans=None, op_id=None) -> Session:
    """connect -> ``predicts_per_session`` keep-alive predictions -> close."""
    session = Session()
    span = spans.span if spans is not None else (lambda *a, **k: nullcontext())
    started = time.perf_counter()
    client = None
    try:
        with span("session", op=op_id):
            session.attempted += 1
            with span("connect"):
                client = adapters.open_client(meta, workload.batch, port, wrap)
            session.connect_s = time.perf_counter() - started
            for index in range(workload.predicts_per_session):
                session.attempted += index > 0
                x = draw_input(rng, qmodel.input_dim, workload.batch)
                bytes0, rounds0 = adapters.client_counters(client)
                t0 = time.perf_counter()
                with span("predict"):
                    logits, labels = client.predict(x)
                wall = time.perf_counter() - t0
                bytes1, rounds1 = adapters.client_counters(client)
                online_s = adapters.client_online_seconds(client)

                def reissue():
                    again, again_labels = client.predict(x)
                    return qmodel.ring.to_signed(again), again_labels

                ok, wrapped, max_diff = verify(
                    workload, adapters.reference_logits(qmodel, x),
                    qmodel.ring.to_signed(logits), labels, reissue,
                )
                session.wraps += wrapped
                session.predictions.append(Prediction(
                    wall, online_s, bytes1 - bytes0, rounds1 - rounds0, ok, max_diff,
                ))
            with span("close"):
                client.close()
            if wrap is not None:
                session.probe = client.chan
                session.trace = client.tracer.to_dict()
    except Exception as exc:  # noqa: BLE001 - a failed op is a counted outcome
        session.error = f"{type(exc).__name__}: {exc}"
        print(f"[serve] session failed: {session.error}", file=sys.stderr)
        if client is not None:
            try:
                client.chan.close()
            except Exception:  # noqa: BLE001
                pass
    session.duration_s = time.perf_counter() - started
    return session


@dataclass
class Window:
    """One timed stretch of closed-loop load and what it cost."""

    sessions: list
    wall_s: float
    cpu_s: float  # harness + server process, over the window

    @property
    def attempted(self) -> int:
        return sum(s.attempted for s in self.sessions)

    @property
    def good(self) -> list:
        return [p for s in self.sessions for p in s.predictions if p.ok]

    @property
    def failed(self) -> int:
        return self.attempted - len(self.good)

    @property
    def wraps(self) -> int:
        return sum(s.wraps for s in self.sessions)


def run_window(workload, qmodel, meta, server, seed, seconds, stream=0,
               wrap=None, spans=None) -> Window:
    """``workload.clients`` closed-loop clients for about ``seconds``.

    A client starts another session while the window would, on its own
    median session time, be at most half a session over."""
    sessions: list[Session] = []
    lock = threading.Lock()
    cpu0 = time.process_time() + server.metrics()["cpu_s"]
    started = time.perf_counter()

    def client_loop(index: int) -> None:
        rng = input_rng(seed, workload, stream=stream * 64 + index)
        durations = []
        while True:
            session = run_session(
                workload, qmodel, meta, server.port, rng, wrap, spans,
                op_id=f"w{stream}c{index}s{len(durations)}",
            )
            with lock:
                sessions.append(session)
            durations.append(session.duration_s)
            elapsed = time.perf_counter() - started
            if elapsed + 0.5 * median(durations) >= seconds:
                return

    threads = [
        threading.Thread(target=client_loop, args=(i,), name=f"e2e-client-{i}")
        for i in range(workload.clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    cpu = time.process_time() + server.metrics()["cpu_s"] - cpu0
    return Window(sessions, wall, cpu)


#: Served control frames are JSON and carry decimal session and round
#: ids, so a prediction's payload varies by a digit or two between
#: sessions; the protocol bytes proper repeat exactly.
CONTROL_JITTER_BYTES = 8


def _repeats(predictions) -> bool:
    sizes = [p.wire_bytes for p in predictions]
    return (
        len({p.rounds for p in predictions}) == 1
        and max(sizes) - min(sizes) <= CONTROL_JITTER_BYTES
    )


def window_metrics(workload, window: Window) -> tuple[dict, bool]:
    """End-to-end figures of one window, and whether bytes/rounds repeated
    exactly among the cold and among the keep-alive predictions."""
    cold = [(s.connect_s, s.predictions[0]) for s in window.sessions
            if s.predictions and s.predictions[0].ok]
    warm = [p for s in window.sessions for p in s.predictions[1:] if p.ok]
    if not cold or not warm:
        raise RuntimeError("no successful cold and keep-alive predictions to report")
    consistent = _repeats(warm) and _repeats([p for _c, p in cold])
    metrics = {
        "predict_s": median(p.wall_s for p in warm),
        "cold_predict_s": median(c + p.wall_s for c, p in cold),
        "offline_s": median(p.wall_s - p.online_s for p in warm),
        "online_s": median(p.online_s for p in warm),
        "cpu_s": window.cpu_s / len(window.good),
        "wire_bytes": median(p.wire_bytes for p in warm),
        "rounds": warm[0].rounds,
        "predictions_per_s": len(window.good) * workload.batch / window.wall_s,
    }
    # the highest percentile with ten samples beyond it, once a run is long enough
    pct = highest_percentile(len(warm))
    if pct is not None:
        metrics[f"predict_s_p{pct}"] = percentile([p.wall_s for p in warm], pct)
    return metrics, consistent

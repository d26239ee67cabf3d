"""The one-shot workloads: whole ``secure_predict`` calls (offline +
online) over a shaped in-memory link, both parties in this process."""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

import adapters
from summary import median
from workloads import Workload, draw_input, input_rng, verify


@dataclass
class Tally:
    """Outcome counts of one run."""

    attempted: int = 0
    failed: int = 0
    wraps: int = 0  # deviations a re-issue showed to be truncation wraps
    consistent: bool = True  # wire_bytes / rounds repeated exactly
    notes: list = field(default_factory=list)

    def count(self, window) -> None:
        """Add the outcome counts of a window of served sessions."""
        self.attempted += window.attempted
        self.failed += window.failed
        self.wraps += window.wraps


def timed_op(workload: Workload, qmodel, x, tally: Tally, predict=adapters.predict_once):
    """One checked prediction; returns ``(op, cpu_s)`` or ``None`` if it failed."""
    tally.attempted += 1
    cpu0 = time.process_time()
    try:
        op = predict(qmodel, x, workload.profile)
    except Exception as exc:  # noqa: BLE001 - a failed op is a counted outcome
        print(f"[{workload.name}] op raised {type(exc).__name__}: {exc}", file=sys.stderr)
        tally.failed += 1
        return None
    cpu = time.process_time() - cpu0

    def reissue():
        again = adapters.predict_once(qmodel, x, workload.profile, seed=1)
        return again.logits, again.labels

    ok, wrapped, max_diff = verify(
        workload, adapters.reference_logits(qmodel, x), op.logits, op.labels, reissue
    )
    tally.wraps += wrapped
    if not ok:
        print(f"[{workload.name}] op wrong: max |delta logit| = {max_diff}", file=sys.stderr)
        tally.failed += 1
        return None
    return op, cpu


def run_ops(workload: Workload, qmodel, seed: int, seconds: float, tally: Tally) -> list:
    """Closed loop, one caller: ops back to back for about ``seconds``.

    Another op starts while the run would, on the median op time so far,
    be at most half an op over; at least one op always runs."""
    rng = input_rng(seed, workload)
    done = []
    started = time.perf_counter()
    while True:
        result = timed_op(
            workload, qmodel, draw_input(rng, qmodel.input_dim, workload.batch), tally
        )
        if result is not None:
            done.append(result)
        elapsed = time.perf_counter() - started
        per_op = median(op.wall_s for op, _ in done) if done else elapsed
        if elapsed + 0.5 * per_op >= seconds:
            return done


def end_to_end(workload: Workload, done: list, tally: Tally) -> dict:
    """End-to-end figures of the timed ops (set-up and RSS are added by the caller)."""
    ops = [op for op, _cpu in done]
    tally.consistent = len({(op.wire_bytes, op.rounds) for op in ops}) == 1
    return {
        "predict_s": median(op.wall_s for op in ops),
        "cold_predict_s": ops[0].wall_s,
        "offline_s": median(op.offline_s for op in ops),
        "online_s": median(op.online_s for op in ops),
        "cpu_s": median(cpu for _op, cpu in done),
        "wire_bytes": ops[0].wire_bytes,
        "rounds": ops[0].rounds,
        "predictions_per_s": len(ops) * workload.batch / sum(op.wall_s for op in ops),
    }

"""Worker pool and per-shard seeds for the execution engine."""

from __future__ import annotations

import queue
import threading
from typing import Callable, Sequence

import numpy as np

from repro.errors import ConfigError


def shard_entropy(seed: int | None, shards: int) -> list[int | None]:
    """Per-shard OT session seeds spawned from one master seed.

    Uses ``SeedSequence.spawn`` (the Philox-backed numpy seeding tree):
    shard ``s`` always receives child ``s`` regardless of how many
    workers execute the shards — the determinism contract of
    :mod:`repro.exec`.  With ``seed=None`` every shard gets fresh entropy
    (``None``, which the OT sessions draw from the OS).
    """
    if shards < 1:
        raise ConfigError("shards must be positive")
    if seed is None:
        return [None] * shards
    return [
        int(child.generate_state(1, np.uint64)[0])
        for child in np.random.SeedSequence(seed).spawn(shards)
    ]


def run_sharded(
    tasks: Sequence[Callable[[], object]],
    workers: int,
    on_error: Callable[[BaseException], None] | None = None,
) -> list:
    """Run ``tasks`` on at most ``workers`` threads; results in task order.

    ``workers <= 1`` degrades to a plain sequential loop on the calling
    thread — zero thread overhead, the engine's synchronous baseline.

    Failure contract: the first task exception **drains** the queue of
    not-yet-started tasks (so no worker can pick up a doomed shard after
    the failure lands, not even one that was mid-``get``), fires
    ``on_error`` once (the execution engine passes ``ChannelMux.abort``
    here, which is what makes in-flight sibling shards fail fast instead
    of waiting out their timeouts), and re-raises the original exception
    — type preserved, the shard index attached as a ``__notes__`` entry —
    after all started tasks have joined, so no worker thread outlives
    the call (the leak tests pin this).
    """
    if workers < 1:
        raise ConfigError("workers must be positive")
    tasks = list(tasks)
    if workers == 1 or len(tasks) <= 1:
        results = []
        for idx, fn in enumerate(tasks):
            try:
                results.append(fn())
            except BaseException as exc:  # noqa: BLE001 - annotated re-raise
                exc.add_note(f"[run_sharded] shard task {idx} failed (sequential)")
                if on_error is not None:
                    on_error(exc)
                raise
        return results

    results: list = [None] * len(tasks)
    errors: list[tuple[int, BaseException]] = []
    pending: queue.SimpleQueue = queue.SimpleQueue()
    for idx in range(len(tasks)):
        pending.put(idx)

    def _worker() -> None:
        while True:
            try:
                idx = pending.get_nowait()
            except queue.Empty:
                return
            if errors:
                return
            try:
                results[idx] = tasks[idx]()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                exc.add_note(
                    f"[run_sharded] shard task {idx} failed; "
                    "queued tasks cancelled"
                )
                errors.append((idx, exc))
                # Drain the queue so idle workers stop immediately rather
                # than chewing through shards whose round is already dead.
                while True:
                    try:
                        pending.get_nowait()
                    except queue.Empty:
                        break
                if on_error is not None:
                    try:
                        on_error(exc)
                    except Exception:  # noqa: BLE001 - abort hooks best-effort
                        pass
                return

    threads = [
        threading.Thread(target=_worker, name=f"abnn2-exec-{i}", daemon=True)
        for i in range(min(workers, len(tasks)))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0][1]
    return results

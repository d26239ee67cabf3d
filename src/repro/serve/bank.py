"""A bank of precomputed offline rounds, decoupled from connections.

The paper's cost split puts all correlated randomness in a
data-independent offline phase; this module makes that amortization real
for a serving process.  A :class:`TripletBank` holds ready-to-use
offline rounds (:class:`~repro.core.offline.OfflineRound`) for one
``(model, batch)`` key — the server half (per-layer ``U``) and the client
half (input mask, per-layer ``V``, ReLU shares) one prediction batch
consumes.

Rounds are dealt in closed form by :mod:`repro.serve.dealer`: the
serving process knows both halves, i.e. it acts as the *trusted dealer*
of the correlated randomness.  This is the standard dealer-assisted
deployment model (SecureML's offline third-party variant); its security
implications are documented in ``docs/PROTOCOLS.md`` §11.  The payoff is
operational: sessions start with **zero** offline OT traffic, and a
persisted bank (:mod:`repro.serve.persist`) lets a restarted server skip
generation entirely.

Concurrency contract: :meth:`take` hands out each round exactly once
under a lock (triplet material is strictly single-use — reuse leaks
input differences), blocks up to its timeout when the bank runs dry
(backpressure), and a background replenisher thread refills toward
``capacity`` whenever depth falls below the low-water mark.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import deque

from repro.core.offline import OfflineRound
from repro.crypto.group import DEFAULT_GROUP, ModpGroup
from repro.errors import ConfigError, ProtocolError
from repro.nn.quantize import QuantizedModel
from repro.serve.dealer import dealer_offline_round
from repro.serve.persist import load_bank, model_fingerprint, save_bank

#: Distinct-prime stride separating per-generation seed derivations, so a
#: deterministic bank never reissues the same masks across generations.
_GENERATION_SEED_STRIDE = 7919


class TripletBank:
    """Precomputed offline rounds for one ``(model, batch)`` key.

    ``capacity`` is the replenisher's target depth; ``low_water``
    (default ``capacity // 2``) is the depth at which it wakes up.  With
    ``auto_replenish=False`` the bank is a fixed pool: it serves exactly
    what :meth:`fill` / :meth:`load` put in, then :meth:`take` raises —
    the mode the single-use accounting tests (and a strict
    ``offline rounds=K`` deployment) rely on.

    ``generator`` names how rounds are produced; ``"dealer"`` (the
    closed-form dealer of :mod:`repro.serve.dealer`) is the only one.
    Conv-layer shares arrive as :class:`~repro.core.triplets.BlockedShare`
    on each conv spec's ``chunk_cols`` grid, so big-model material is
    never held whole during generation, persistence, or the chunked
    online phase.
    """

    def __init__(
        self,
        model: QuantizedModel,
        batch: int,
        *,
        capacity: int = 8,
        low_water: int | None = None,
        auto_replenish: bool = True,
        replenish_chunk: int = 2,
        group: ModpGroup = DEFAULT_GROUP,
        seed: int | None = None,
        generator: str = "dealer",
    ) -> None:
        if batch < 1:
            raise ConfigError("batch must be positive")
        if capacity < 1:
            raise ConfigError("capacity must be positive")
        if replenish_chunk < 1:
            raise ConfigError("replenish_chunk must be positive")
        if generator != "dealer":
            raise ConfigError(f"generator must be 'dealer', got {generator!r}")
        self.model = model
        self.batch = batch
        self.capacity = capacity
        self.low_water = capacity // 2 if low_water is None else low_water
        self.auto_replenish = auto_replenish
        self.replenish_chunk = replenish_chunk
        self.group = group
        self.fingerprint = model_fingerprint(model)
        self._seed = seed
        self.generator = generator
        self._last_generation_s: float | None = None

        self._rounds: deque[OfflineRound] = deque()
        self._cond = threading.Condition()
        self._gen_lock = threading.Lock()
        self._next_round_id = 0
        self._generations = 0
        # Rounds claimed by an in-flight generation but not yet banked.
        # Both fill() and the replenisher register their claims here so a
        # dip near the low-water mark can never trigger two generations
        # for the same deficit (guarded by self._cond).
        self._inflight = 0
        self._stopped = False
        self._thread: threading.Thread | None = None
        self._wake = threading.Event()
        self._counters = {
            "rounds_generated": 0,
            "rounds_served": 0,
            "rounds_loaded": 0,
            "exhausted_errors": 0,
            "take_waits": 0,
            "take_wait_s": 0.0,
            "replenish_runs": 0,
            "replenish_s": 0.0,
            "replenish_errors": 0,
        }
        self._last_replenish_error: str | None = None

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def depth(self) -> int:
        """Rounds currently banked and unclaimed."""
        with self._cond:
            return len(self._rounds)

    def metrics(self) -> dict:
        """Counters for observability (stamped into session traces)."""
        with self._cond:
            out = dict(self._counters)
            out["depth"] = len(self._rounds)
        out["capacity"] = self.capacity
        out["low_water"] = self.low_water
        out["generator"] = self.generator
        # Wall-clock of the most recent generation batch (None until the
        # first one lands).
        out["last_generation_s"] = self._last_generation_s
        out["last_replenish_error"] = self._last_replenish_error
        # Mean time a take() spent blocked on an empty bank: the lag the
        # replenisher failed to hide from clients.
        waits = out["take_waits"]
        out["replenish_lag_s"] = out["take_wait_s"] / waits if waits else 0.0
        return out

    # ------------------------------------------------------------------ #
    # generation (trusted dealer)
    # ------------------------------------------------------------------ #
    def _generate(self, rounds: int) -> list[OfflineRound]:
        """Deal ``rounds`` offline rounds.

        Each round's seed derives from a globally claimed *generation
        index*, so the material of round ``g`` is a pure function of
        ``(model, batch, seed, g)`` whichever of :meth:`fill` and the
        replenisher deals it.
        """
        with self._gen_lock:
            first = self._generations
            self._generations += rounds
        t0 = time.monotonic()
        dealt = [
            dealer_offline_round(
                self.model, self.batch,
                seed=None
                if self._seed is None
                else self._seed + _GENERATION_SEED_STRIDE * generation + 1,
                group=self.group,
            )
            for generation in range(first, first + rounds)
        ]
        self._last_generation_s = time.monotonic() - t0
        return [self._number(rnd) for rnd in dealt]

    def _number(self, rnd: OfflineRound) -> OfflineRound:
        with self._cond:
            round_id = self._next_round_id
            self._next_round_id += 1
        return dataclasses.replace(rnd, round_id=round_id)

    def fill(self, rounds: int) -> int:
        """Synchronously generate and bank ``rounds``; returns new depth."""
        if rounds < 1:
            raise ConfigError("rounds must be positive")
        t0 = time.monotonic()
        with self._cond:
            self._inflight += rounds
        try:
            fresh = self._generate(rounds)
        finally:
            with self._cond:
                self._inflight -= rounds
        with self._cond:
            self._rounds.extend(fresh)
            self._counters["rounds_generated"] += len(fresh)
            self._counters["replenish_runs"] += 1
            self._counters["replenish_s"] += time.monotonic() - t0
            self._cond.notify_all()
            return len(self._rounds)

    # ------------------------------------------------------------------ #
    # consumption
    # ------------------------------------------------------------------ #
    def take(self, timeout_s: float = 0.0) -> OfflineRound:
        """Claim one round; each round is handed out exactly once.

        Blocks up to ``timeout_s`` while the bank is empty (waking the
        replenisher), then raises a clean
        ``ProtocolError("offline material exhausted")`` — the serving
        layer turns that into a typed deny *before* any protocol bytes
        cross the wire, so exhaustion can never desync a stream.
        """
        deadline = time.monotonic() + timeout_s
        wait_start = None
        with self._cond:
            while not self._rounds:
                if self._stopped:
                    raise ProtocolError("triplet bank is stopped")
                self._wake.set()
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._counters["exhausted_errors"] += 1
                    raise ProtocolError("offline material exhausted")
                if wait_start is None:
                    wait_start = time.monotonic()
                self._cond.wait(timeout=min(remaining, 0.25))
            if wait_start is not None:
                self._counters["take_waits"] += 1
                self._counters["take_wait_s"] += time.monotonic() - wait_start
            rnd = self._rounds.popleft()
            self._counters["rounds_served"] += 1
            if len(self._rounds) < self.low_water:
                self._wake.set()
            return rnd

    # ------------------------------------------------------------------ #
    # background replenisher
    # ------------------------------------------------------------------ #
    def start(self) -> "TripletBank":
        """Start the background replenisher (idempotent); returns self."""
        if not self.auto_replenish:
            return self
        with self._cond:
            if self._stopped:
                raise ProtocolError("triplet bank is stopped")
            if self._thread is not None:
                return self
            self._thread = threading.Thread(
                target=self._replenish_loop, name="abnn2-bank-replenisher", daemon=True
            )
        self._wake.set()
        self._thread.start()
        return self

    def _replenish_loop(self) -> None:
        while True:
            self._wake.wait(timeout=0.2)
            self._wake.clear()
            if self._stopped:
                return
            while not self._stopped:
                with self._cond:
                    # The deficit discounts rounds an in-flight generation
                    # (a concurrent fill(), or a previous chunk this loop
                    # kicked off) has already claimed: a take() racing the
                    # threshold can wake this loop mid-generation, and
                    # without the discount that one dip would be covered
                    # twice (pinned by the over-generation regression
                    # test in tests/test_serve.py).
                    deficit = (
                        self.capacity - len(self._rounds) - self._inflight
                    )
                    if deficit <= 0:
                        break
                    chunk = min(self.replenish_chunk, deficit)
                    self._inflight += chunk
                t0 = time.monotonic()
                try:
                    fresh = self._generate(chunk)
                except Exception as exc:  # noqa: BLE001 - keep the thread alive
                    # A generation failure must not kill replenishment
                    # forever; takers still see backpressure/exhaustion,
                    # and metrics() says why.
                    with self._cond:
                        self._inflight -= chunk
                        self._counters["replenish_errors"] += 1
                        self._last_replenish_error = f"{type(exc).__name__}: {exc}"
                    time.sleep(0.1)
                    continue
                with self._cond:
                    self._inflight -= chunk
                    self._rounds.extend(fresh)
                    self._counters["rounds_generated"] += len(fresh)
                    self._counters["replenish_runs"] += 1
                    self._counters["replenish_s"] += time.monotonic() - t0
                    self._cond.notify_all()

    def stop(self) -> None:
        """Stop the replenisher and fail all blocked :meth:`take` calls."""
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        self._wake.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save(self, path) -> int:
        """Persist all unclaimed rounds; returns how many were written.

        The bundle also records the next generation index, so a bank
        that loads it never re-deals material this one already dealt.
        """
        with self._cond:
            snapshot = list(self._rounds)
        with self._gen_lock:
            next_generation = self._generations
        save_bank(
            path, fingerprint=self.fingerprint, batch=self.batch, rounds=snapshot,
            next_generation=next_generation,
        )
        return len(snapshot)

    def load(self, path) -> int:
        """Load persisted rounds (fingerprint-checked); returns the count.

        Loaded rounds involve no generation — the whole point of
        persistence: ``rounds_generated`` stays untouched, which the
        restart acceptance test pins.  Generation resumes past the
        saving bank's last index, so later fills deal fresh material
        (load before the first fill: earlier fills already used the
        low indices).
        """
        rounds, next_generation = load_bank(
            path, fingerprint=self.fingerprint, batch=self.batch
        )
        with self._gen_lock:
            self._generations = max(self._generations, next_generation)
        numbered = [self._number(rnd) for rnd in rounds]
        with self._cond:
            self._rounds.extend(numbered)
            self._counters["rounds_loaded"] += len(numbered)
            self._cond.notify_all()
        return len(numbered)

    def __enter__(self) -> "TripletBank":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


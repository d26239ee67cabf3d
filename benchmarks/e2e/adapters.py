"""The one place the benchmark touches the program under test.

Everything the harness calls in ``repro`` is imported or wrapped here, so
an API change (ROADMAP items 1 and 4) needs a few-line edit of this file
and not a rewrite of the runner.  Three groups:

* the prediction path the workloads exercise — ``secure_predict``,
  ``Abnn2Server`` / ``Abnn2Client`` ``.offline()`` / ``.online()`` driven
  through ``run_protocol``, ``shaped_channel_pair`` and the three link
  profiles, ``TripletBank``, ``PredictionServer``,
  ``PredictionClient.predict``, ``QuantizedModel.forward_int``;
* facts about the build recorded next to the numbers;
* the probe entry points and serving classes (``_LAZY_API``: names
  resolved on first use; ``probes.py`` holds the shapes and the timing).

Everything runs with library defaults: ``DEFAULT_GROUP``, ``default_ro``,
``relu_variant="oblivious"``, no pipelining or sharding knobs.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass

import numpy as np

from repro import FragmentScheme, Ring, mnist_mlp, quantize_model, secure_predict
from repro.core.protocol import Abnn2Client, Abnn2Server, ModelMeta
from repro.crypto.group import DEFAULT_GROUP
from repro.crypto.hash_ro import default_ro
from repro.net.netsim import LAN, WAN_QUOTIENT, WAN_SECUREML, shaped_channel_pair
from repro.net.runner import run_protocol
from repro.nn.model import vgg_cifar
from repro.utils.serialization import payload_nbytes  # noqa: F401 - ledger.py

#: Probe entry points and serving classes, resolved on first use
#: (``adapters.Kk13Sender`` ...) so that set-up time only pays for what a
#: one-call user imports.  ``probes.py`` holds the shapes and the timing.
_LAZY_API = {
    "PredictionClient": "repro.serve",
    "PredictionServer": "repro.serve",
    "TripletBank": "repro.serve",
    "dealer_offline_round": "repro.serve.dealer",
    "SecureMatmulServer": "repro.core.matmul",
    "relu_layer_client": "repro.core.relu",
    "relu_layer_server": "repro.core.relu",
    "TripletConfig": "repro.core.triplets",
    "generate_triplets_client": "repro.core.triplets",
    "generate_triplets_server": "repro.core.triplets",
    "OtExtReceiver": "repro.crypto.iknp",
    "OtExtSender": "repro.crypto.iknp",
    "Kk13Receiver": "repro.crypto.kk13",
    "Kk13Sender": "repro.crypto.kk13",
    "BatchPrg": "repro.crypto.prg",
    "fast_ro": "repro.crypto.fastro",
    "kernel_active": "repro.crypto.fastro",
    "ShardPlan": "repro.exec.triplets",
    "parallel_triplets_client": "repro.exec.triplets",
    "parallel_triplets_server": "repro.exec.triplets",
    "relu_template": "repro.gc.builder",
    "garble": "repro.gc.garble",
    "GcSessions": "repro.gc.protocol",
    "make_channel_pair": "repro.net.channel",
    "ChannelMux": "repro.net.mux",
    "Listener": "repro.net.tcp",
    "connect": "repro.net.tcp",
    "lower_shares": "repro.nn.lowering",
    "WinogradSpec": "repro.nn.winograd",
    "lower_tiles": "repro.nn.winograd",
    "network_offline_comm_bits": "repro.perf.costmodel",
    "winograd_reduction_ratio": "repro.perf.costmodel",
    "Tracer": "repro.perf.trace",
    "iter_spans": "repro.perf.trace",
    "peak_rss_bytes": "repro.perf.trace",
    "serialization": "repro.utils",
    "pack_ring_words": "repro.utils.bits",
    "transpose_packed": "repro.utils.bits",
}


def __getattr__(name: str):
    if name not in _LAZY_API:
        raise AttributeError(f"module 'adapters' has no attribute {name!r}")
    value = getattr(importlib.import_module(_LAZY_API[name]), name)
    globals()[name] = value
    return value


PROFILES = {"LAN": LAN, "WAN_SECUREML": WAN_SECUREML, "WAN_QUOTIENT": WAN_QUOTIENT}

RING_BITS = 32

#: Extra keyword arguments for every session-creating call.  Empty: the
#: library defaults (``DEFAULT_GROUP``) are what the benchmark measures.
#: Only ``--smoke`` fills it, see :func:`use_test_group`.
SESSION_KW: dict = {}


def use_test_group() -> None:
    """``--smoke`` only: swap in the insecure 256-bit test group so the
    code-path walk finishes in seconds.  No number taken this way is kept."""
    from repro.crypto.group import MODP_TEST

    SESSION_KW["group"] = MODP_TEST


def build_model(kind: str, bits: tuple, side: int | None = None):
    """Build and quantize one of the benchmark's fixed-seed models."""
    if kind == "fig4_mlp":
        model, input_shape = mnist_mlp(), None
    elif kind == "tiny_mlp":
        model, input_shape = mnist_mlp(hidden=8, input_dim=16, classes=4), None
    elif kind == "vgg_cifar":
        model, input_shape = vgg_cifar(base=8, side=side), (3, side, side)
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    return quantize_model(
        model, FragmentScheme.from_bits(tuple(bits)), Ring(RING_BITS),
        input_shape=input_shape,
    )


def model_meta(qmodel) -> ModelMeta:
    return ModelMeta.from_model(qmodel)


def reference_logits(qmodel, x: np.ndarray) -> np.ndarray:
    """Signed plaintext logits ``(classes, batch)`` from ``forward_int``."""
    return qmodel.ring.to_signed(qmodel.forward_int(qmodel.encoder.encode(x.T)))


def environment() -> dict:
    """Facts about the library build the numbers were taken with."""
    return {
        "group": SESSION_KW.get("group", DEFAULT_GROUP).name,
        "ro": default_ro.name,
        "relu_variant": "oblivious",
        "ring_bits": RING_BITS,
    }


# --------------------------------------------------------------------- #
# one-shot predictions
# --------------------------------------------------------------------- #
@dataclass
class Op:
    """What the harness keeps of one prediction."""

    wall_s: float
    offline_s: float
    online_s: float
    wire_bytes: int
    rounds: int
    logits: np.ndarray  # signed, (classes, batch)
    labels: np.ndarray  # (batch,)
    client_trace: dict | None = None
    probe: object | None = None  # the client's ProbeChannel (ledger ops)


def predict_once(qmodel, x: np.ndarray, profile: str, **overrides) -> Op:
    """One ``secure_predict`` call, exactly as a library user makes it.

    ``overrides`` is only used to re-issue a deviating prediction with
    fresh shares (``seed=...``); every timed call passes none."""
    started = time.perf_counter()
    report = secure_predict(
        qmodel, x, channels=shaped_channel_pair(PROFILES[profile]),
        **SESSION_KW, **overrides,
    )
    wall = time.perf_counter() - started
    return Op(
        wall_s=wall,
        offline_s=report.offline_client.seconds,
        online_s=report.online_client.seconds,
        wire_bytes=report.total_bytes,
        rounds=report.rounds,
        logits=qmodel.ring.to_signed(report.logits_int),
        labels=report.predictions,
    )


def ledger_predict(qmodel, x: np.ndarray, profile: str, spans, wrap, op_id: str) -> Op:
    """The same prediction, driven party by party so the harness can put
    its own spans around ``offline()`` / ``online()`` and its channel
    wrapper around both endpoints.  Mirrors ``secure_predict`` (same
    seeds, same call order)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    batch = x.shape[0]
    x_ring = qmodel.encoder.encode(x.T)
    meta = model_meta(qmodel)
    server_chan, client_chan = (wrap(c) for c in shaped_channel_pair(PROFILES[profile]))

    started = time.perf_counter()
    with spans.span("op", op=op_id) as root:

        def phases(chan, party, role, *online_args):
            chan.phase = "offline"
            with spans.span(f"{role}.offline", parent=root):
                party.offline()
            chan.phase = "online"
            with spans.span(f"{role}.online", parent=root):
                return party.online(*online_args)

        def server_fn(chan):
            party = Abnn2Server(chan, qmodel, batch, seed=1, **SESSION_KW)
            phases(chan, party, "server")
            return party

        def client_fn(chan):
            party = Abnn2Client(chan, meta, batch, seed=2, **SESSION_KW)
            return party, phases(chan, party, "client", x_ring)

        result = run_protocol(
            server_fn, client_fn, timeout_s=600.0, channels=(server_chan, client_chan)
        )
    wall = time.perf_counter() - started
    client, logits = result.client
    signed = qmodel.ring.to_signed(logits)
    return Op(
        wall_s=wall,
        offline_s=client.offline_stats.seconds,
        online_s=client.online_stats.seconds,
        wire_bytes=result.total_bytes,
        rounds=result.rounds,
        logits=signed,
        labels=np.argmax(signed, axis=0),
        client_trace=client.tracer.to_dict(),
        probe=client_chan,
    )


# --------------------------------------------------------------------- #
# serving
# --------------------------------------------------------------------- #
def start_server(qmodel, batch: int, capacity: int):
    """A filled dealer bank behind a started ``PredictionServer``.

    ``exhaustion_wait_s`` lets a round wait for the replenisher instead
    of being denied, so a slow dealer shows as latency
    (``serve.bank.take_wait_s``), not as failed operations.
    """
    this = sys.modules[__name__]
    bank = this.TripletBank(
        qmodel, batch, capacity=capacity, generator="dealer", **SESSION_KW
    )
    bank.fill(capacity)
    server = this.PredictionServer(
        qmodel, bank, port=0, exhaustion_wait_s=60.0, **SESSION_KW
    )
    server.start()
    return server


def open_client(meta, batch: int, port: int, wrap=None):
    return sys.modules[__name__].PredictionClient(
        meta, batch, port=port, channel_wrap=wrap, **SESSION_KW
    )


def client_counters(client) -> tuple[int, int]:
    """Cumulative ``(payload bytes, rounds)`` on this connection."""
    stats = client.chan.stats
    return stats.total_bytes, stats.rounds


def client_online_seconds(client) -> float:
    """``PhaseStats.seconds`` of the client's most recent online phase."""
    return client.session.party.online_stats.seconds

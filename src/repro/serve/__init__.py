"""Serving subsystem: amortize the offline phase across many sessions.

The paper's headline economics — cheap online predictions after an
expensive data-independent offline phase — only materialize in practice
if one server process can (a) precompute offline rounds ahead of client
connections, (b) persist them across restarts, and (c) serve many
clients, sequentially and concurrently, from that pool.  This package
provides exactly that:

* :class:`~repro.serve.bank.TripletBank` — a replenished, persisted,
  strictly single-use pool of offline rounds for one ``(model, batch)``;
* :class:`~repro.serve.server.PredictionServer` /
  :class:`~repro.serve.client.PredictionClient` — the TCP accept loop
  (thread-per-session, bounded by ``max_sessions``) and its client;
* :class:`~repro.serve.session.ServerSession` /
  :class:`~repro.serve.session.ClientSession` — the transport-agnostic
  session protocol the above are built on (and that in-memory tests
  drive directly).

Security model: banked rounds are dealt in closed form by the serving
process (:mod:`repro.serve.dealer`), which therefore acts as a trusted
dealer — see ``docs/PROTOCOLS.md`` §11.
``interactive`` mode keeps the paper's original two-party offline phase
at the cost of per-round OT traffic.
"""

from repro.core.offline import OfflineRound
from repro.serve.bank import TripletBank
from repro.serve.client import PredictionClient
from repro.serve.persist import BANK_FORMAT_VERSION, load_bank, model_fingerprint, save_bank
from repro.serve.server import PredictionServer, SessionRecord
from repro.serve.session import (
    ClientSession,
    MODES,
    SERVE_PROTOCOL,
    ServerSession,
    SessionResult,
)

__all__ = [
    "BANK_FORMAT_VERSION",
    "ClientSession",
    "MODES",
    "OfflineRound",
    "PredictionClient",
    "PredictionServer",
    "SERVE_PROTOCOL",
    "ServerSession",
    "SessionRecord",
    "SessionResult",
    "TripletBank",
    "load_bank",
    "model_fingerprint",
    "save_bank",
]

"""QUOTIENT-style ternary matrix multiplication and prediction.

QUOTIENT (CCS'19) supports only ternary weights ``{-1, 0, 1}`` and
evaluates each ternary multiplication as *two binary* multiplications
(``w = w_pos - w_neg``), each realized with a 1-out-of-2 correlated OT —
the construction this paper's Section 1.1 describes.  Batch columns share
one OT via correlation lanes, mirroring QUOTIENT's vectorized layout.

The end-to-end predictor reuses the ABNN2 online machinery (additive
linear layers + GC ReLU): what distinguishes the frameworks is the
offline triplet generation and the weight space, which is exactly what
Table 5 compares.
"""

from __future__ import annotations

import numpy as np

from repro.core.matmul import SecureMatmulClient, SecureMatmulServer
from repro.core.protocol import Abnn2Client, Abnn2Server, PredictionReport
from repro.core.triplets import TripletConfig
from repro.crypto import codes
from repro.crypto.group import DEFAULT_GROUP
from repro.crypto.iknp import OtExtReceiver, OtExtSender
from repro.errors import ConfigError
from repro.net.channel import Channel
from repro.net.runner import run_protocol
from repro.nn.quantize import QuantizedModel

_U64 = np.uint64
_QUOTIENT_DOMAIN = 57


def quotient_triplets_server(
    chan: Channel,
    w_int: np.ndarray,
    config: TripletConfig,
    seed: int | None = None,
) -> np.ndarray:
    """Server side (ternary weights, COT receiver); returns ``U`` (m, o)."""
    w = np.asarray(w_int, dtype=np.int64)
    if w.shape != (config.m, config.n):
        raise ConfigError(f"expected W of shape {(config.m, config.n)}, got {w.shape}")
    if not np.isin(w, (-1, 0, 1)).all():
        raise ConfigError("QUOTIENT supports only ternary weights")
    ring = config.ring
    receiver = OtExtReceiver(chan, group=config.group, seed=seed)

    pos = (w == 1).astype(np.uint8).reshape(-1)
    neg = (w == -1).astype(np.uint8).reshape(-1)
    got_pos = receiver.recv_correlated(pos, config.o, ring, domain=_QUOTIENT_DOMAIN)
    got_neg = receiver.recv_correlated(neg, config.o, ring, domain=_QUOTIENT_DOMAIN + 1)
    per_elem = ring.sub(got_pos, got_neg).reshape(config.m, config.n, config.o)
    return ring.reduce(per_elem.sum(axis=1, dtype=_U64))


def quotient_triplets_client(
    chan: Channel,
    r_mat: np.ndarray,
    config: TripletConfig,
    seed: int | None = None,
) -> np.ndarray:
    """Client side (COT sender with deltas R); returns ``V`` (m, o)."""
    r = config.ring.reduce(r_mat)
    if r.shape != (config.n, config.o):
        raise ConfigError(f"expected R of shape {(config.n, config.o)}, got {r.shape}")
    ring = config.ring
    sender = OtExtSender(chan, group=config.group, seed=seed)

    deltas = np.tile(r[None, :, :], (config.m, 1, 1)).reshape(-1, config.o)
    x_pos = sender.send_correlated(deltas, ring, domain=_QUOTIENT_DOMAIN)
    x_neg = sender.send_correlated(deltas, ring, domain=_QUOTIENT_DOMAIN + 1)
    per_elem = ring.sub(x_neg, x_pos).reshape(config.m, config.n, config.o)
    return ring.reduce(per_elem.sum(axis=1, dtype=_U64))


class QuotientMatmulServer(SecureMatmulServer):
    @staticmethod
    def base_ot_columns(config: TripletConfig) -> int:
        return codes.code_length(2)

    def start_offline(self):
        self._u = quotient_triplets_server(self.chan, self.w_int, self.config, seed=self._seed)
        return lambda: None


class QuotientMatmulClient(SecureMatmulClient):
    base_ot_columns = staticmethod(QuotientMatmulServer.base_ot_columns)

    def start_offline(self):
        self._v = quotient_triplets_client(self.chan, self.r, self.config, seed=self._seed)
        return lambda: None


class QuotientServer(Abnn2Server):
    """ABNN2 online pipeline with QUOTIENT's ternary offline phase."""

    matmul_server_cls = QuotientMatmulServer


class QuotientClient(Abnn2Client):
    matmul_client_cls = QuotientMatmulClient


def quotient_predict(
    model: QuantizedModel,
    x_float: np.ndarray,
    group=DEFAULT_GROUP,
    seed: int | None = 0,
    timeout_s: float = 600.0,
) -> PredictionReport:
    """End-to-end QUOTIENT prediction (model must be ternary-quantized)."""
    from repro.core.protocol import _joint_predict

    return _joint_predict(
        QuotientServer,
        QuotientClient,
        model,
        x_float,
        relu_variant="oblivious",
        group=group,
        seed=seed,
        timeout_s=timeout_s,
    )

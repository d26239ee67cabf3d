"""SecureML's OT-based offline multiplication triplets (Gilboa, per bit).

SecureML generates shares of ``w * r`` without quantization: the server's
weight is a full l-bit fixed-point value, decomposed into its l bits, and
every bit runs one correlated OT whose correlation is ``2^t * r``.  The
key cost saver SecureML applies — reproduced here — is that the OT for
bit ``t`` only transfers ``l - t`` bits: the product ``2^t * r`` has ``t``
known-zero low bits, so the parties run the COT in Z_{2^(l-t)} and shift
both shares up by ``t`` locally.

Per Table 1, for an (m x n) x (n x o) product this costs l COTs *per
scalar multiplication* — ``l * m * n * o`` OTs total, since (unlike
ABNN2's multi-batch scheme) the choice bits are not reused across the
``o`` batch columns.  That non-reuse is exactly what ABNN2's Section
4.1.2 improves on, so keeping it is essential for a fair shape
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crypto.group import DEFAULT_GROUP, ModpGroup
from repro.crypto.iknp import OtExtReceiver, OtExtSender
from repro.errors import ConfigError
from repro.net.channel import Channel
from repro.utils.bits import int_to_bits
from repro.utils.ring import Ring

_U64 = np.uint64
_SECUREML_DOMAIN = 31


@dataclass
class SecureMlConfig:
    """Public parameters of one SecureML triplet generation."""

    ring: Ring
    m: int
    n: int
    o: int
    group: ModpGroup = DEFAULT_GROUP

    def __post_init__(self) -> None:
        if min(self.m, self.n, self.o) < 1:
            raise ConfigError("matrix dimensions must be positive")

    @property
    def total_ots(self) -> int:
        """l * m * n * o — one COT per weight bit per batch column."""
        return self.ring.bits * self.m * self.n * self.o


def secureml_triplets_server(
    chan: Channel,
    w_int: np.ndarray,
    config: SecureMlConfig,
    seed: int | None = None,
) -> np.ndarray:
    """Server (weight owner, COT receiver); returns ``U`` of shape (m, o)."""
    w = np.asarray(w_int, dtype=np.int64)
    if w.shape != (config.m, config.n):
        raise ConfigError(f"expected W of shape {(config.m, config.n)}, got {w.shape}")
    ring = config.ring
    bits = ring.bits
    # (m, n, l) bit planes of the two's-complement weight pattern.
    w_bits = int_to_bits(ring.reduce(w), bits)
    receiver = OtExtReceiver(chan, group=config.group, seed=seed)

    u = ring.zeros((config.m, config.o))
    for t in range(bits):
        sub_ring = Ring(bits - t)
        # choices ordered (i, j, b): broadcast bit t of w_ij over o columns.
        choices = np.repeat(w_bits[:, :, t].reshape(-1), config.o)
        got = receiver.recv_correlated(
            choices, None, sub_ring, domain=_SECUREML_DOMAIN + t
        )
        shifted = ring.reduce(got.astype(_U64) << _U64(t))
        u = ring.add(u, shifted.reshape(config.m, config.n, config.o).sum(axis=1, dtype=_U64))
    return ring.reduce(u)


def secureml_triplets_client(
    chan: Channel,
    r_mat: np.ndarray,
    config: SecureMlConfig,
    seed: int | None = None,
) -> np.ndarray:
    """Client (random-operand owner, COT sender); returns ``V`` (m, o)."""
    r = config.ring.reduce(r_mat)
    if r.shape != (config.n, config.o):
        raise ConfigError(f"expected R of shape {(config.n, config.o)}, got {r.shape}")
    ring = config.ring
    bits = ring.bits
    sender = OtExtSender(chan, group=config.group, seed=seed)

    # deltas ordered (i, j, b): r[j, b] tiled over the m weight rows.
    r_flat = np.tile(r.reshape(-1), config.m)
    v = ring.zeros((config.m, config.o))
    for t in range(bits):
        sub_ring = Ring(bits - t)
        deltas = sub_ring.reduce(r_flat)
        x = sender.send_correlated(deltas, sub_ring, domain=_SECUREML_DOMAIN + t)
        shifted = ring.reduce(x.astype(_U64) << _U64(t))
        v = ring.sub(v, shifted.reshape(config.m, config.n, config.o).sum(axis=1, dtype=_U64))
    return ring.reduce(v)

"""MiniONN-style LHE offline triplets on Paillier with slot packing.

MiniONN (CCS'17) moves the heavy work of the linear layers into an
offline phase built on SIMD-batched leveled HE.  Our reproduction keeps
the *protocol shape* on Paillier:

* the client encrypts its random operand ``R`` column-slot-packed
  (``ceil(o / slots)`` ciphertexts per row of R) and sends it;
* the server accumulates each output row homomorphically
  (``prod_j Enc(r_j)^(w_ij mod 2^l)`` — per-slot scalar multiplication,
  which packing supports because every slot sees the same scalar), adds a
  statistically-hiding noise share, and returns ``m * ceil(o/slots)``
  ciphertexts;
* the client decrypts: its share ``V`` is the noisy slot mod ``2^l``; the
  server's share ``U`` is minus its noise mod ``2^l``.

Substitution notes (DESIGN.md): MiniONN's SEAL/YASHE ciphertexts and its
send-Enc(W)-once layout don't map onto Paillier; the *measured* traffic
of this implementation therefore undercounts MiniONN's published figures.
The Table 4 harness reports both this measured traffic and the
paper-anchored analytic model from :mod:`repro.perf.costmodel`.  The
*compute* shape — HE work growing with batch size while ABNN2's OT cost
stays lean — is what the live run demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.matmul import SecureMatmulClient, SecureMatmulServer
from repro.core.protocol import Abnn2Client, Abnn2Server, PredictionReport
from repro.crypto import paillier
from repro.crypto.group import DEFAULT_GROUP
from repro.errors import ConfigError, ProtocolError
from repro.net.channel import Channel
from repro.net.frames import checked_bytes
from repro.nn.quantize import QuantizedModel
from repro.utils.ring import Ring
from repro.utils.rng import make_rng, randbelow_from_rng

_U64 = np.uint64

#: Statistical hiding margin for the noise share.
STAT_SEC_BITS = 40


@dataclass
class MinionnConfig:
    """Public parameters of one MiniONN triplet generation."""

    ring: Ring
    m: int
    n: int
    o: int
    key_bits: int = 2048

    def __post_init__(self) -> None:
        if min(self.m, self.n, self.o) < 1:
            raise ConfigError("matrix dimensions must be positive")

    def packing(self, pk: paillier.PaillierPublicKey) -> paillier.SlotPacking:
        slot_bits = (
            self.ring.bits  # operand
            + self.ring.bits  # scalar (w mod 2^l)
            + max(1, self.n - 1).bit_length()  # accumulation head-room
            + STAT_SEC_BITS  # noise hiding margin
            + 1  # carry guard
        )
        slots = pk.plaintext_bits // slot_bits
        if slots < 1:
            raise ConfigError(
                f"key of {self.key_bits} bits cannot hold one {slot_bits}-bit slot"
            )
        return paillier.SlotPacking(slot_bits=slot_bits, slots=slots)


def _encode_big(values: list[int]) -> bytes:
    """Length-prefixed big-int list for channel transport."""
    out = bytearray()
    out += len(values).to_bytes(4, "little")
    for v in values:
        blob = v.to_bytes((v.bit_length() + 7) // 8 or 1, "little")
        out += len(blob).to_bytes(4, "little")
        out += blob
    return bytes(out)


def _recv_big(chan: Channel, count: int, what: str) -> list[int]:
    """The peer's :func:`_encode_big` frame of exactly ``count`` ints:
    anything else (another kind, count or length) raises
    :class:`ProtocolError`."""
    data = checked_bytes(chan.recv(), None, what)
    if len(data) < 4 or int.from_bytes(data[:4], "little") != count:
        raise ProtocolError(f"{what}: expected {count} big ints")
    out = []
    offset = 4
    for _ in range(count):
        size = int.from_bytes(data[offset : offset + 4], "little")
        offset += 4
        if offset + size > len(data):
            raise ProtocolError(f"{what}: truncated")
        out.append(int.from_bytes(data[offset : offset + size], "little"))
        offset += size
    if offset != len(data):
        raise ProtocolError(f"{what}: trailing bytes")
    return out


def minionn_triplets_client(
    chan: Channel,
    r_mat: np.ndarray,
    config: MinionnConfig,
    seed: int | None = None,
) -> np.ndarray:
    """Client (keypair owner): encrypt R, decrypt the noisy products."""
    r = config.ring.reduce(r_mat)
    if r.shape != (config.n, config.o):
        raise ConfigError(f"expected R of shape {(config.n, config.o)}, got {r.shape}")
    rng = make_rng(seed)
    pk, sk = paillier.keygen(config.key_bits, seed=seed)
    packing = config.packing(pk)
    chan.send(_encode_big([pk.n, pk.key_bits]))

    chunks = -(-config.o // packing.slots)
    ciphers = []
    for j in range(config.n):
        for c in range(chunks):
            block = r[j, c * packing.slots : (c + 1) * packing.slots]
            ciphers.append(paillier.encrypt(pk, packing.pack(block.tolist()), rng))
    chan.send(_encode_big(ciphers))

    noisy = _recv_big(chan, config.m * chunks, "MiniONN product ciphertexts")
    ring = config.ring
    v = ring.zeros((config.m, config.o))
    for i in range(config.m):
        for c in range(chunks):
            lo = c * packing.slots
            width = min(packing.slots, config.o - lo)
            slots = packing.unpack(paillier.decrypt(sk, noisy[i * chunks + c]), width)
            v[i, lo : lo + width] = ring.reduce(
                np.array([s % (1 << 64) for s in slots], dtype=_U64)
            )
    return ring.reduce(v)


def minionn_triplets_server(
    chan: Channel,
    w_int: np.ndarray,
    config: MinionnConfig,
    seed: int | None = None,
) -> np.ndarray:
    """Server (weight owner): homomorphic row accumulation plus noise."""
    w = np.asarray(w_int, dtype=np.int64)
    if w.shape != (config.m, config.n):
        raise ConfigError(f"expected W of shape {(config.m, config.n)}, got {w.shape}")
    ring = config.ring
    rng = make_rng(seed)
    n, key_bits = _recv_big(chan, 2, "MiniONN public key")
    pk = paillier.PaillierPublicKey(n=n, key_bits=key_bits)
    packing = config.packing(pk)

    chunks = -(-config.o // packing.slots)
    ciphers = _recv_big(chan, config.n * chunks, "MiniONN operand ciphertexts")

    # Scalars are the weights mod 2^l (signedness folds into the ring).
    w_ring = ring.reduce(w)
    noise_bound = 1 << (packing.slot_bits - 1)
    u = ring.zeros((config.m, config.o))
    replies = []
    for i in range(config.m):
        scalars = w_ring[i]
        for c in range(chunks):
            acc = paillier.encrypt(pk, 0, rng)
            for j in range(config.n):
                scalar = int(scalars[j])
                if scalar == 0:
                    continue
                acc = paillier.add(
                    pk, acc, paillier.scalar_mul(pk, ciphers[j * chunks + c], scalar)
                )
            lo = c * packing.slots
            width = min(packing.slots, config.o - lo)
            noise = [randbelow_from_rng(rng, noise_bound) for _ in range(width)]
            acc = paillier.add(pk, acc, paillier.encrypt(pk, packing.pack(noise), rng))
            replies.append(acc)
            u[i, lo : lo + width] = ring.neg(
                np.array([s % (1 << 64) for s in noise], dtype=_U64)
            )
    chan.send(_encode_big(replies))
    return ring.reduce(u)


class MinionnMatmulServer(SecureMatmulServer):
    key_bits = 2048

    @staticmethod
    def base_ot_columns(config) -> int:
        return 0  # Paillier: no OT extension offline

    def start_offline(self):
        cfg = MinionnConfig(
            ring=self.config.ring,
            m=self.config.m,
            n=self.config.n,
            o=self.config.o,
            key_bits=self.key_bits,
        )
        self._u = minionn_triplets_server(self.chan, self.w_int, cfg, seed=self._seed)
        return lambda: None


class MinionnMatmulClient(SecureMatmulClient):
    key_bits = 2048
    base_ot_columns = staticmethod(MinionnMatmulServer.base_ot_columns)

    def start_offline(self):
        cfg = MinionnConfig(
            ring=self.config.ring,
            m=self.config.m,
            n=self.config.n,
            o=self.config.o,
            key_bits=self.key_bits,
        )
        self._v = minionn_triplets_client(self.chan, self.r, cfg, seed=self._seed)
        return lambda: None


def make_minionn_parties(key_bits: int):
    """Server/client classes bound to a Paillier key size."""

    server_matmul = type(
        f"MinionnMatmulServer{key_bits}", (MinionnMatmulServer,), {"key_bits": key_bits}
    )
    client_matmul = type(
        f"MinionnMatmulClient{key_bits}", (MinionnMatmulClient,), {"key_bits": key_bits}
    )
    server = type(
        f"MinionnServer{key_bits}", (Abnn2Server,), {"matmul_server_cls": server_matmul}
    )
    client = type(
        f"MinionnClient{key_bits}", (Abnn2Client,), {"matmul_client_cls": client_matmul}
    )
    return server, client


def minionn_predict(
    model: QuantizedModel,
    x_float: np.ndarray,
    key_bits: int = 1024,
    group=DEFAULT_GROUP,
    seed: int | None = 0,
    timeout_s: float = 1200.0,
) -> PredictionReport:
    """End-to-end MiniONN-style prediction (LHE offline, GC online).

    ``key_bits`` below 2048 is insecure — offered so pure-Python runs
    finish; the benchmark harness scales reported traffic to 2048 bits.
    """
    from repro.core.protocol import _joint_predict

    server_cls, client_cls = make_minionn_parties(key_bits)
    return _joint_predict(
        server_cls,
        client_cls,
        model,
        x_float,
        relu_variant="oblivious",
        group=group,
        seed=seed,
        timeout_s=timeout_s,
    )

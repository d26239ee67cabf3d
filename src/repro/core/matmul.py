"""Secure matrix multiplication: offline triplets + the free online step.

The ABNN2 linear layer splits exactly as Section 3 describes:

* **Offline** (data independent): the parties run
  :mod:`repro.core.triplets` on the server's quantized ``W`` and the
  client's random ``R``, ending with ``U + V = W R``.  It runs in two
  passes, :meth:`SecureMatmulServer.start_offline` and the finish it
  returns, so :mod:`repro.core.protocol` runs pass 1 of every layer
  before pass 2 of any: the whole offline phase is two flights.
* **Online**: the client's real operand ``Z`` arrives additively shared
  with ``<Z>_1 = R``; the server computes ``<Y>_0 = W <Z>_0 + U`` locally
  and the client's share is simply ``<Y>_1 = V``.  No communication.

These classes are the user-facing wrapper around that flow for a single
matrix product; :mod:`repro.core.protocol` chains them per network layer.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.triplets import (
    BlockedShare,
    TripletConfig,
    start_triplets_client,
    start_triplets_server,
)
from repro.errors import ConfigError, ProtocolError
from repro.net.channel import Channel
from repro.utils.ring import Ring


def grouped_product(
    ring: Ring, w: np.ndarray, z0: np.ndarray, m: int, n: int, groups: int
) -> np.ndarray:
    """``W @ Z0`` (block-diagonal when ``groups > 1``), any column count.

    ``w`` is the stacked ``(groups * m, n)`` ring-reduced weight matrix
    and ``z0`` the stacked ``(groups * n, cols)`` operand; columns are
    independent, so this serves both the full-width online step and any
    column block of it.  Shared by the online engines and the streamed
    triplet dealer (:mod:`repro.serve.dealer`), which computes the same
    product against ``R`` blocks.
    """
    if groups == 1:
        return ring.matmul(w, z0)
    prod = ring.zeros((groups * m, z0.shape[1]))
    for g in range(groups):
        prod[g * m : (g + 1) * m] = ring.matmul(
            w[g * m : (g + 1) * m], z0[g * n : (g + 1) * n]
        )
    return prod


class SecureMatmulServer:
    """Server side (model owner) of one secure W @ Z product."""

    def __init__(self, chan: Channel, w_int: np.ndarray, config: TripletConfig, seed: int | None = None) -> None:
        self.chan = chan
        self.config = config
        self.w_int = np.asarray(w_int, dtype=np.int64)
        if self.w_int.shape != config.w_shape:
            raise ConfigError(
                f"W shape {self.w_int.shape} disagrees with config {config.w_shape}"
            )
        self._seed = seed
        self._u: np.ndarray | BlockedShare | None = None

    @staticmethod
    def base_ot_columns(config: TripletConfig) -> int:
        """Base OTs the widest session of :meth:`offline` derives: KK13
        at the product's largest code length (the offline walk reserves
        the round's maximum before its first session)."""
        return config.code_bits

    def start_offline(self) -> Callable[[], None]:
        """Pass 1 of the OT-based triplet generation (every ``U`` frame
        goes out); returns pass 2, which leaves ``U`` in :attr:`u`.

        The hook a baseline overrides: its start step may run its whole
        interactive protocol and return a finish with nothing left to do.
        """
        finish = start_triplets_server(self.chan, self.w_int, self.config, seed=self._seed)

        def done() -> None:
            self._u = finish()

        return done

    def offline(self) -> None:
        """Run the whole triplet generation (both passes)."""
        self.start_offline()()

    def preload(self, u: np.ndarray | BlockedShare) -> None:
        """Adopt a precomputed ``U`` share instead of running :meth:`offline`.

        The online phase installs each layer's ``U`` from the round's
        :class:`~repro.core.offline.ServerHalf` this way, after shape
        validation, so no OT traffic happens on this channel.  A
        :class:`BlockedShare` is kept blocked so the chunked online path
        never forces the full matrix into one allocation.
        """
        if isinstance(u, BlockedShare):
            if u.shape != self.config.out_shape:
                raise ConfigError(
                    f"expected U of shape {self.config.out_shape}, got {u.shape}"
                )
            self._u = u
            return
        u_arr = self.config.ring.reduce(u)
        if u_arr.shape != self.config.out_shape:
            raise ConfigError(
                f"expected U of shape {self.config.out_shape}, got {u_arr.shape}"
            )
        self._u = u_arr

    @property
    def u(self) -> np.ndarray:
        if self._u is None:
            raise ProtocolError("offline phase has not run yet")
        if isinstance(self._u, BlockedShare):
            return self._u.materialize()
        return self._u

    def u_columns(self, lo: int, hi: int) -> np.ndarray:
        """Columns ``[lo, hi)`` of ``U`` without materializing the rest."""
        if self._u is None:
            raise ProtocolError("offline phase has not run yet")
        if isinstance(self._u, BlockedShare):
            return self._u.columns(lo, hi)
        return self._u[:, lo:hi]

    def online(self, z0_share: np.ndarray) -> np.ndarray:
        """Local step: ``<Y>_0 = W <Z>_0 + U`` (no communication).

        With ``config.groups > 1`` the product is block-diagonal: output
        block ``g`` is ``W[g m:(g+1) m] @ <Z>_0[g n:(g+1) n]``.
        """
        config = self.config
        ring = config.ring
        z0 = ring.reduce(z0_share)
        if z0.shape != config.r_shape:
            raise ConfigError(
                f"expected share of shape {config.r_shape}, got {z0.shape}"
            )
        w = ring.reduce(self.w_int)
        prod = grouped_product(ring, w, z0, config.m, config.n, config.groups)
        return ring.add(prod, self.u)

    def online_block(self, z0_block: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Columns ``[lo, hi)`` of :meth:`online`, fed only that operand block.

        ``z0_block`` is ``(groups * n, hi - lo)`` — the lowered operand
        columns the chunked path materialized for this block.  Matmul
        columns are independent and ring arithmetic exact, so looping
        this over any column partition is byte-identical to one
        full-width :meth:`online` call.  ``U`` blocks are *not* freed as
        they are consumed: fault recovery may re-run the round against
        the same engine (the linear engines never mutate their shares).
        """
        config = self.config
        ring = config.ring
        z0 = ring.reduce(z0_block)
        if z0.ndim != 2 or z0.shape != (config.r_shape[0], hi - lo):
            raise ConfigError(
                f"expected operand block of shape ({config.r_shape[0]}, {hi - lo}), "
                f"got {z0.shape}"
            )
        if not (0 <= lo <= hi <= self.config.o):
            raise ConfigError(
                f"column block [{lo}, {hi}) outside [0, {self.config.o}) output columns"
            )
        w = ring.reduce(self.w_int)
        prod = grouped_product(ring, w, z0, config.m, config.n, config.groups)
        return ring.add(prod, self.u_columns(lo, hi))


class SecureMatmulClient:
    """Client side (data owner) of one secure W @ Z product."""

    base_ot_columns = staticmethod(SecureMatmulServer.base_ot_columns)

    def __init__(
        self,
        chan: Channel,
        config: TripletConfig,
        rng: np.random.Generator,
        r_mat: np.ndarray | None = None,
        seed: int | None = None,
    ) -> None:
        self.chan = chan
        self.config = config
        self._rng = rng
        self._seed = seed
        if r_mat is None:
            r_mat = config.ring.sample(rng, config.r_shape)
        self.r = config.ring.reduce(r_mat)
        if self.r.shape != config.r_shape:
            raise ConfigError(
                f"R shape {self.r.shape} disagrees with config {config.r_shape}"
            )
        self._v: np.ndarray | None = None

    def start_offline(self) -> Callable[[], None]:
        """Pass 1 of the OT-based triplet generation (every ``U`` frame
        is received and extended); returns pass 2, which sends every
        message frame and leaves ``V`` in :attr:`v`."""
        finish = start_triplets_client(self.chan, self.r, self.config, seed=self._seed)

        def done() -> None:
            self._v = finish()

        return done

    def offline(self) -> None:
        """Run the whole triplet generation (both passes)."""
        self.start_offline()()

    @property
    def v(self) -> np.ndarray:
        if self._v is None:
            raise ProtocolError("offline phase has not run yet")
        return self._v

    def mask_input(self, z: np.ndarray) -> np.ndarray:
        """``<Z>_0 = Z - R``: the share the client transmits to the server."""
        ring = self.config.ring
        z_arr = ring.reduce(z)
        if z_arr.shape != self.r.shape:
            raise ConfigError(f"operand shape {z_arr.shape} != R shape {self.r.shape}")
        return ring.sub(z_arr, self.r)

    def online(self) -> np.ndarray:
        """Local step: the client's product share is just ``V``."""
        return self.v

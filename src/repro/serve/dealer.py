"""Trusted-dealer generation of offline rounds, block by block.

The bank is a **trusted dealer** (PROTOCOLS.md §11: the serving process
deals both halves, so it knows ``W`` and ``R`` outright).  It therefore
generates the material the two-party OT offline phase would produce in
closed form, with no OT traffic:

    for each column block [lo, hi) of the lowered operand:
        R_blk = layer.lower(ring, operand, lo, hi)   # never whole
        V_blk = uniform sample                        # client share
        U_blk = W @ R_blk - V_blk                     # server share

``U + V = W @ R`` holds per block by construction, in the layer's ring
(:meth:`~repro.core.protocol.ModelMeta.layer_ring`), so the dealt round
drops into the unchanged online phase.  The operands chain
exactly as in :meth:`repro.core.protocol.Abnn2Client.offline` — both run
:func:`repro.core.offline.chain_operands`, and only this linear step
differs.  A conv layer is dealt on its spec's ``chunk_cols`` grid, and
its shares come out as :class:`~repro.core.triplets.BlockedShare`, so
the chunked online path (and persistence) keep them blocked end to end.
Peak working set per conv layer is one column block of ``R``.

Determinism: the dealt material is a pure function of ``(model, batch,
seed)`` *including* each conv spec's ``chunk_cols`` — the per-block
``V`` draws consume the RNG in block order, so another chunk grid deals
other (equally valid) material.
"""

from __future__ import annotations

import numpy as np

from repro.core.offline import OfflineRound, ServerHalf, chain_operands
from repro.core.protocol import ModelMeta, layer_triplet_config
from repro.core.triplets import BlockedShare
from repro.crypto.group import DEFAULT_GROUP, ModpGroup
from repro.errors import ConfigError
from repro.nn.lowering import column_blocks
from repro.nn.quantize import QuantizedModel
from repro.utils.rng import make_rng


def dealer_offline_round(
    model: QuantizedModel,
    batch: int,
    *,
    seed: int | None,
    group: ModpGroup = DEFAULT_GROUP,
) -> OfflineRound:
    """Deal one offline round without OT traffic or whole-layer buffers."""
    if batch < 1:
        raise ConfigError("batch must be positive")
    meta = ModelMeta.from_model(model)
    rng = make_rng(seed)
    us: list = []

    def deal_linear(idx, layer, ring, operand):
        config = layer_triplet_config(ring, layer, batch, group=group)
        w = ring.reduce(model.layers[idx].w_int)
        u_parts: list[np.ndarray] = []
        v_parts: list[np.ndarray] = []
        for lo, hi in column_blocks(config.o, layer.chunk_cols):
            v_blk = ring.sample(rng, (config.m, hi - lo))
            prod = ring.matmul(w, layer.lower(ring, operand, lo, hi))
            u_parts.append(ring.sub(prod, v_blk))
            v_parts.append(v_blk)
        if len(u_parts) == 1:
            us.append(u_parts[0])
            return v_parts[0]
        us.append(BlockedShare(u_parts))
        return BlockedShare(v_parts)

    client = chain_operands(meta, batch, rng, deal_linear)
    return OfflineRound(ServerHalf(us), client)

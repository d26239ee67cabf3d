"""Triplet-bank persistence: offline material that survives a restart.

The deployment story the paper (and MiniONN/SecureML before it) sells is
*amortization*: the offline phase runs ahead of time and many online
predictions draw from it.  For that to survive a server restart, banked
rounds must live on disk.  This module stores them the same way
:mod:`repro.nn.persist` stores models — an ``.npz`` of arrays plus a
JSON manifest — so bundles stay inspectable and diffable.

A bank bundle is only valid for the exact model (weights included), ring,
and batch it was generated for: reusing triplets against different
weights silently breaks correctness, and reusing them twice breaks
security.  The manifest therefore records a :func:`model_fingerprint`
and the loader refuses anything that does not match.

Layout (format 4): each round's two halves are stored in the codec of
:mod:`repro.core.offline` — the manifest's ``rounds`` list holds the
``{"server", "client"}`` JSON headers of every round, and round ``r``'s
arrays are ``r{r}_server{k}`` / ``r{r}_client{k}`` in codec order.  The
manifest's ``next_generation`` is the saving bank's next generation
index, from which a loading bank resumes, so a seeded bank never deals
the same material twice across a restart.  A bundle that is not a
readable format-4 bank raises :class:`ConfigError` naming its path.

Writes are **atomic**: the bundle is staged to a temp file in the target
directory and :func:`os.replace`'d into place, so a crash mid-save leaves
either the old bank or no bank — never a truncated ``.npz`` that poisons
the next restart.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import numpy as np

from repro.core.offline import ClientHalf, OfflineRound, ServerHalf
from repro.core.protocol import ModelMeta
from repro.errors import ConfigError, load_errors
from repro.nn.quantize import QuantizedModel

#: Bumped whenever the bank bundle layout changes.
BANK_FORMAT_VERSION = 4

_HALVES = (("server", ServerHalf), ("client", ClientHalf))


def model_fingerprint(model: QuantizedModel) -> str:
    """Hex digest binding a bank to one exact model configuration.

    Covers ring width, fixed-point scaling, every layer's ring
    (:meth:`~repro.core.protocol.ModelMeta.layer_ring`), and every
    layer's scheme, truncation, weights, and biases — anything that
    changes the triplet material or the shares' meaning, so a bank dealt
    before the per-layer rings is refused.
    """
    meta = ModelMeta.from_model(model)
    rings = ",".join(str(meta.layer_ring(idx).bits) for idx in range(len(meta.layers)))
    h = hashlib.sha256()
    h.update(f"ring={model.ring.bits};frac={model.encoder.frac_bits};rings={rings};".encode())
    for layer in model.layers:
        h.update(f"{layer.scheme.name};t={layer.truncate_bits};".encode())
        h.update(np.ascontiguousarray(layer.w_int, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(layer.bias_int, dtype=np.int64).tobytes())
    return h.hexdigest()


def save_bank(
    path, *, fingerprint: str, batch: int, rounds: list[OfflineRound],
    next_generation: int = 0,
) -> None:
    """Atomically write banked offline rounds to an ``.npz`` bundle."""
    headers = []
    arrays: dict[str, np.ndarray] = {}
    for r, rnd in enumerate(rounds):
        round_headers = {}
        for name, _ in _HALVES:
            header, parts = getattr(rnd, name).to_parts()
            round_headers[name] = header
            for k, arr in enumerate(parts):
                arrays[f"r{r}_{name}{k}"] = arr
        headers.append(round_headers)
    manifest = {
        "format_version": BANK_FORMAT_VERSION,
        "fingerprint": fingerprint,
        "batch": batch,
        "n_rounds": len(rounds),
        "rounds": headers,
        "next_generation": next_generation,
    }
    arrays["manifest"] = np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)
    # Stage next to the target so os.replace stays a same-filesystem
    # atomic rename: a crash anywhere before the replace leaves the old
    # bank (or nothing) on disk, never a truncated bundle.
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".tmp.", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def load_bank(path, *, fingerprint: str, batch: int) -> tuple[list[OfflineRound], int]:
    """Inverse of :func:`save_bank`: the rounds and the next generation
    index.  Refuses a mismatched model or batch.

    Shape validation against the model is left to the parties'
    ``load_offline_round`` — the fingerprint pins the semantic identity,
    the loader only restores structure.
    """
    with load_errors(path, "bank bundle", f"format-{BANK_FORMAT_VERSION} bank"):
        with np.load(path) as bundle:
            return _read_bundle(bundle, fingerprint, batch)


def _read_bundle(bundle, fingerprint: str, batch: int) -> tuple[list[OfflineRound], int]:
    manifest = json.loads(bytes(bundle["manifest"]).decode())
    version = manifest.get("format_version")
    if version != BANK_FORMAT_VERSION:
        raise ConfigError(
            f"bank format {version}, this build reads {BANK_FORMAT_VERSION}; "
            "regenerate the bank"
        )
    if manifest["fingerprint"] != fingerprint:
        raise ConfigError(
            "bank fingerprint mismatch: this bundle was generated for a "
            "different model (or model revision); regenerate the bank"
        )
    if manifest["batch"] != batch:
        raise ConfigError(
            f"bank was generated for batch={manifest['batch']}, "
            f"server is configured for batch={batch}"
        )
    next_generation = manifest["next_generation"]
    if type(next_generation) is not int or next_generation < 0:
        raise ConfigError(f"manifest has next_generation={next_generation!r}")
    headers = manifest["rounds"]
    if len(headers) != manifest["n_rounds"]:
        raise ConfigError(
            f"manifest claims {manifest['n_rounds']} rounds but describes {len(headers)}"
        )
    stored = set(bundle.files)
    rounds = []
    for r, round_headers in enumerate(headers):
        halves = {}
        for name, cls in _HALVES:
            parts = []
            while f"r{r}_{name}{len(parts)}" in stored:
                parts.append(bundle[f"r{r}_{name}{len(parts)}"])
            halves[name] = cls.from_parts(round_headers[name], parts)
        rounds.append(OfflineRound(**halves))
    return rounds, next_generation

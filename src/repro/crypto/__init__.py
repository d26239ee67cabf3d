"""Cryptographic substrates built from scratch for the ABNN2 reproduction.

Layers, bottom to top:

* :mod:`repro.crypto.hash_ro` — the one random oracle, ``default_ro``:
  fixed-key SipHash-2-4 through the compiled kernel of
  :mod:`repro.crypto.fastro`, with the numpy reference
  :mod:`repro.crypto.siphash` as its fallback; SHA-256 for base OT.
* :mod:`repro.crypto.prg` — seed expansion.
* :mod:`repro.crypto.group` / :mod:`repro.crypto.baseot` — public-key base
  oblivious transfers (Naor–Pinkas style over a MODP group).
* :mod:`repro.crypto.otsetup` — one base-OT set-up per channel endpoint;
  every extension session derives its seeds from it.
* :mod:`repro.crypto.codes` / :mod:`repro.crypto.kk13` — Kolesnikov–Kumaresan
  1-out-of-N OT extension over Walsh–Hadamard codes: the paper's workhorse
  and the one OT-extension engine.
* :mod:`repro.crypto.iknp` — IKNP, the engine at ``N = 2``, with the
  correlated and XOR-correlated 1-out-of-2 forms built on its pads.
* :mod:`repro.crypto.paillier` — additively homomorphic encryption for the
  MiniONN baseline.
"""

from repro.crypto.hash_ro import default_ro, hash_bytes

__all__ = ["default_ro", "hash_bytes"]

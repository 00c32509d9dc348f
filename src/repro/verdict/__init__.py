"""Verdict-style verifiable DC-nets (proactive accountability).

Two operating modes, both a :class:`~repro.core.session.DissentSession`
whose policy names the mode, on the slots of the coordinator's key
shuffle:

* ``dcnet_mode="verifiable"`` (:mod:`repro.verdict.session`) — every
  ciphertext is proven well-formed before combining; a disruptor is
  expelled in the round it misbehaves.
* ``dcnet_mode="hybrid"`` (:mod:`repro.verdict.hybrid`) — the XOR fast
  path runs untouched, and a corrupted round is replayed in verifiable
  mode to name the disruptor without the §3.9 accusation shuffle.

Both modes open a slot through one function,
:func:`~repro.verdict.session.verifiable_round`: every
:class:`~repro.verdict.session.VerdictServer` checks every client proof
and every decryption share before the product opens.  Work is counted on
the session's registry (:meth:`DissentSession.enable_telemetry`):
``verdict.*`` in verifiable mode, ``hybrid.*`` in hybrid mode.

See *Proactively Accountable Anonymous Messaging in Verdict*
(Corrigan-Gibbs, Wolinsky, Ford) in PAPERS.md.
"""

from repro.verdict.ciphertext import (
    VerdictClientCiphertext,
    VerdictServerShare,
    batch_verify_client_ciphertexts,
    batch_verify_server_shares,
    chunk_count,
    make_client_ciphertext,
    verify_client_ciphertext,
)
from repro.verdict.session import VerdictServer, verifiable_round
from repro.verdict.hybrid import HybridBlameRecord

__all__ = [
    "VerdictClientCiphertext",
    "VerdictServerShare",
    "batch_verify_client_ciphertexts",
    "batch_verify_server_shares",
    "chunk_count",
    "make_client_ciphertext",
    "verify_client_ciphertext",
    "VerdictServer",
    "verifiable_round",
    "HybridBlameRecord",
]

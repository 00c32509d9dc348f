"""Verdict-style verifiable DC-nets (proactive accountability).

Two operating modes layered on the existing crypto stack:

* :class:`~repro.verdict.session.VerdictSession` — every ciphertext is
  proven well-formed before combining; disruptors are named in-round.
* hybrid mode (:mod:`repro.verdict.hybrid`) — a
  :class:`~repro.core.session.DissentSession` whose policy says
  ``dcnet_mode="hybrid"``: the XOR fast path runs untouched, and a
  corrupted round is replayed in verifiable mode to name the disruptor
  without the §3.9 accusation shuffle.

Both modes open a slot through one function,
:func:`~repro.verdict.session.verifiable_round`: every
:class:`~repro.verdict.session.VerdictServer` checks every client proof
and every decryption share before the product opens.  Work is counted
on metrics registries: ``verdict.*`` on each node's (merged by
:meth:`VerdictSession.metrics`), ``hybrid.*`` on a hybrid session's.

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
from repro.verdict.session import (
    DisruptingVerdictClient,
    VerdictClient,
    VerdictRoundResult,
    VerdictServer,
    VerdictSession,
)
from repro.verdict.hybrid import HybridBlameRecord

__all__ = [
    "VerdictClientCiphertext",
    "VerdictServerShare",
    "batch_verify_client_ciphertexts",
    "batch_verify_server_shares",
    "chunk_count",
    "make_client_ciphertext",
    "verify_client_ciphertext",
    "DisruptingVerdictClient",
    "VerdictClient",
    "VerdictRoundResult",
    "VerdictServer",
    "VerdictSession",
    "HybridBlameRecord",
]

"""Byzantine-tolerant control plane: leader rotation and round certificates.

The paper's any-trust deployment (§2, §5) replicates the *anonymity* trust
across M servers but our reproduction historically kept one unreplicated
*liveness/ordering* trust point: the coordinator sequenced rounds and
declared outcomes on its own say-so.  This package moves that authority
into the server set:

* :mod:`repro.consensus.rotation` — a deterministic leader schedule
  seeded from the group's self-certifying id and the membership epoch, so
  every server (and any auditor) computes the same leader for every
  ``(round, view)`` pair with no extra messages.
* :mod:`repro.consensus.certificate` — quorum certificates over the round
  output.  The leader proposes a digest of the combined output, every
  server independently re-derives the output from its own envelope
  batches and votes only if the digests agree, and the round commits
  under the collected signatures.  In the any-trust setting the happy
  path collects *all* M votes; a partial certificate (majority quorum)
  is only formed when a vote is withheld past the barrier timeout, and
  the missing signatures name the withholder.
* A view-change subprotocol (run by :class:`repro.core.engine.RoundEngine`,
  the one round machine under every driver) that survives the
  three leader failure modes: crash (the barrier timer derived from the
  ``RetryPolicy`` budget fires), stall (same timer), and equivocation —
  two conflicting signed proposals for one ``(round, view)``, which
  yields a *transferable* :class:`~repro.consensus.certificate.EquivocationProof`
  conviction and expels the leader from the rotation at the next
  barrier.  The next server in rotation then re-proposes.

A deliberate simplification keeps view changes safe without a PBFT-style
new-view certificate: votes are only ever cast for a digest that matches
the voter's *own* locally assembled output, so no leader — however it
came to power — can steer the certified value.  Leadership only affects
liveness, never the output, which is why adopting a higher view on a
single validly-signed ``VIEW_CHANGE`` message (or one's own timer) is
sound here.
"""

from repro.consensus.certificate import (
    EquivocationProof,
    RoundCertificate,
    adopt_round_evidence,
    output_body_digest,
    proposal_view_digest,
    quorum_size,
)
from repro.consensus.rotation import LeaderSchedule, leader_index, rotation_base

__all__ = [
    "EquivocationProof",
    "LeaderSchedule",
    "RoundCertificate",
    "adopt_round_evidence",
    "leader_index",
    "output_body_digest",
    "proposal_view_digest",
    "quorum_size",
    "rotation_base",
]

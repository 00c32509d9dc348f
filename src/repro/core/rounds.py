"""Round records and the signed output format.

A DC-net round ends with every server signing the combined cleartext and
the round's participation count (§3.7 requires the count to be published
and §3.3 requires all-server signatures on the output).  Clients accept an
output only when all M signatures verify, which is what lets them detect
an upstream server silently dropping their ciphertexts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.crypto.hashing import sha256
from repro.crypto.schnorr import Signature
from repro.util.serialization import pack_fields


class RoundStatus(enum.Enum):
    """Terminal state of one DC-net round."""

    COMPLETED = "completed"
    FAILED = "failed"  # hard timeout / participation floor never met


def output_digest(group_id: bytes, round_number: int, cleartext: bytes, participation: int) -> bytes:
    """The exact bytes every server signs to certify a round output."""
    return pack_fields(
        "dissent.round-output.v1",
        group_id,
        round_number,
        sha256(cleartext),
        participation,
    )


@dataclass(frozen=True)
class RoundOutput:
    """A certified round output as delivered to clients.

    Attributes:
        round_number: the round index r.
        cleartext: the combined plaintext vector (all slots).
        participation: |l| — how many clients' ciphertexts were included.
        signatures: one Schnorr signature per server, in server order.
    """

    round_number: int
    cleartext: bytes
    participation: int
    signatures: tuple[Signature, ...]


@dataclass(frozen=True)
class QuietOutcome:
    """Result of running rounds until traffic drains (or a budget runs out).

    ``run_until_quiet`` used to return a bare round count, which conflated
    "drained exactly on the last allowed round" with "gave up with traffic
    still queued" — callers must check :attr:`drained` explicitly.
    """

    rounds_used: int
    drained: bool

    def __bool__(self) -> bool:
        return self.drained


@dataclass(frozen=True)
class RoundRecord:
    """Driver-level summary of a round (sessions and simulators emit these)."""

    round_number: int
    status: RoundStatus
    participation: int
    output: RoundOutput | None
    shuffle_requested: bool = False
    #: Quorum certificate from the server control plane (None for failed
    #: rounds and for verifiable ones, whose proofs and M output
    #: signatures stand in for it).
    #: Excluded from equality: two records describe the same round outcome
    #: whether or not a certificate was archived alongside it.
    certificate: object | None = field(compare=False, default=None)

    @property
    def completed(self) -> bool:
        return self.status is RoundStatus.COMPLETED

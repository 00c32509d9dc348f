"""Deterministic leader rotation.

Every server must agree on the leader for each ``(round, view)`` pair
without exchanging messages, including across crash/restart and across
the in-process and networked engines.  The schedule is therefore a pure
function of data every participant already shares:

* the group's self-certifying id (hash of the roster + policy, §3.2),
* the membership *epoch* — the number of servers convicted so far, which
  bumps whenever an equivocator is expelled from the rotation,
* the round number and the view number within the round.

The epoch hash randomizes which server starts the rotation (so a fixed
first server cannot be targeted across sessions), and the round + view
offsets walk the eligible roster from there.  Convicted servers are
excluded from leadership but — deliberately — not from the DC-net
itself: their pads are already woven into every client's ciphertext, so
ejecting them from the combine step would change (and break) the round
cleartexts.  Expulsion here means loss of proposal power, which is the
only authority a Byzantine leader was abusing.
"""

from __future__ import annotations

import hashlib
from collections.abc import Collection

from repro.errors import ProtocolError
from repro.util.serialization import pack_fields

_ROTATION_MAGIC = "dissent.leader-rotation.v1"


def rotation_base(group_id: bytes, epoch: int) -> int:
    """The epoch's rotation offset: a hash every participant can compute."""
    digest = hashlib.sha256(pack_fields(_ROTATION_MAGIC, group_id, epoch)).digest()
    return int.from_bytes(digest, "big")


def leader_index(
    group_id: bytes,
    epoch: int,
    round_number: int,
    view: int,
    num_servers: int,
    excluded: Collection[int] = (),
) -> int:
    """The leader for ``(round_number, view)`` in the given membership epoch.

    Walks the eligible (non-convicted) servers in index order starting
    from the epoch hash, advancing one slot per round and one more per
    view change, so a failed leader is never retried within the round
    that convicted or timed it out.
    """
    eligible = [j for j in range(num_servers) if j not in excluded]
    if not eligible:
        raise ProtocolError("leader rotation has no eligible servers left")
    base = rotation_base(group_id, epoch)
    return eligible[(base + round_number + view) % len(eligible)]

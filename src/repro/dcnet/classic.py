"""Classic all-pairs DC-net (Chaum [14]) — the baseline Dissent improves on.

Every member shares a coin (PRNG secret) with every other member, XORs all
N-1 streams (plus its message, if sender) into a ciphertext, and
broadcasts to everyone.  Consequences, as §3.1 lays out:

* each node computes **O(N)** pseudo-random bits per cleartext bit
  (Dissent clients: O(M));
* communication is **O(N²)** ciphertext transmissions per round
  (Dissent: O(N + M²));
* if *any* member fails to deliver, the round output is garbage and every
  remaining member must recompute and resend with that member excluded —
  the churn amplification Dissent's client/server split removes.

The implementation is fully functional (tests run real exchanges and churn
restarts) and also exposes cost counters for the ablation benchmarks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.crypto import dh, prng
from repro.crypto.keys import PrivateKey
from repro.errors import ProtocolError
from repro.util.bytesops import xor_many


@dataclass
class CostCounters:
    """Work accounting for baseline-vs-Dissent comparisons."""

    prng_bytes: int = 0
    messages_sent: int = 0
    bytes_sent: int = 0
    restarts: int = 0


class ClassicDcNetMember:
    """One member of an all-pairs DC-net."""

    def __init__(
        self,
        index: int,
        key: PrivateKey,
        peer_publics: list,
        rng: random.Random | None = None,
    ) -> None:
        self.index = index
        self.key = key
        self.rng = rng if rng is not None else random.Random()
        self.peer_publics = peer_publics
        self.secrets: dict[int, bytes] = {}
        for peer_index, public in enumerate(peer_publics):
            if peer_index == self.index:
                continue
            self.secrets[peer_index] = dh.shared_secret(key, public)
        self.counters = CostCounters()

    def ciphertext(
        self,
        round_number: int,
        length: int,
        active: set[int],
        message: bytes | None = None,
    ) -> bytes:
        """XOR the streams shared with every *active* peer (+ message).

        Args:
            active: members participating this round; streams for absent
                members are omitted (this is the recomputation a restart
                forces on everyone).
        """
        if self.index not in active:
            raise ProtocolError("inactive member asked for a ciphertext")
        streams = []
        for peer_index in sorted(active):
            if peer_index == self.index:
                continue
            streams.append(
                prng.pair_stream(self.secrets[peer_index], round_number, length)
            )
            self.counters.prng_bytes += length
        operands = list(streams)
        if message is not None:
            if len(message) != length:
                raise ProtocolError("message must match the round length")
            operands.append(message)
        ciphertext = xor_many(operands, length=length)
        # Broadcast to every other active member.
        fan_out = len(active) - 1
        self.counters.messages_sent += fan_out
        self.counters.bytes_sent += fan_out * length
        return ciphertext


@dataclass
class ClassicRoundResult:
    """Outcome of one all-pairs round (possibly after restarts)."""

    cleartext: bytes
    attempts: int
    participants: tuple[int, ...]


class ClassicDcNet:
    """Driver for a full all-pairs DC-net group."""

    def __init__(self, num_members: int, group=None, seed: int = 0) -> None:
        from repro.crypto.groups import testing_group

        self.group = group or testing_group()
        rng = random.Random(seed)
        keys = [PrivateKey.generate(self.group, rng) for _ in range(num_members)]
        publics = [key.public for key in keys]
        self.members = [
            ClassicDcNetMember(i, key, publics, random.Random(seed + 1 + i))
            for i, key in enumerate(keys)
        ]
        self.num_members = num_members
        self.restarts = 0

    def run_round(
        self,
        round_number: int,
        length: int,
        sender: int | None = None,
        message: bytes | None = None,
        drop_schedule: list[set[int]] | None = None,
    ) -> ClassicRoundResult:
        """Execute one round, restarting whenever a member drops mid-round.

        Args:
            drop_schedule: members that disconnect on each attempt (attempt
                k loses ``drop_schedule[k]``); models §3.1's adversary that
                "takes members offline one at a time to force a round to
                timeout and restart f times in succession".
        """
        active = set(range(self.num_members))
        attempts = 0
        while True:
            dropped: set[int] = set()
            if drop_schedule and attempts < len(drop_schedule):
                dropped = drop_schedule[attempts] & active
            attempts += 1
            active -= dropped
            if sender is not None and sender not in active:
                raise ProtocolError("the sender itself disconnected")
            if len(active) < 2:
                raise ProtocolError("fewer than two members remain")
            ciphertexts = []
            for i in sorted(active):
                msg = message if i == sender else None
                ciphertexts.append(
                    self.members[i].ciphertext(round_number, length, active, msg)
                )
            if dropped:
                # The drop happened mid-collection: everyone must redo the
                # round without the departed members (the O(N) restart).
                self.restarts += 1
                for i in sorted(active):
                    self.members[i].counters.restarts += 1
                continue
            cleartext = xor_many(ciphertexts, length=length)
            return ClassicRoundResult(
                cleartext=cleartext,
                attempts=attempts,
                participants=tuple(sorted(active)),
            )


def analytic_costs(num_members: int, round_bytes: int) -> CostCounters:
    """Closed-form per-round cost of the all-pairs design (for benches)."""
    counters = CostCounters()
    counters.prng_bytes = num_members * (num_members - 1) * round_bytes
    counters.messages_sent = num_members * (num_members - 1)
    counters.bytes_sent = counters.messages_sent * round_bytes
    return counters

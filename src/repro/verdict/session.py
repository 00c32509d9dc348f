"""In-process verifiable DC-net session (Verdict's base protocol).

:class:`VerdictSession` drives rounds in which **every** contribution is
proven well-formed before servers combine anything:

1. Each round serves one slot (Verdict schedules slots round-robin; the
   owner of the scheduled slot may transmit, everyone else covers).
2. All clients submit ElGamal chunk vectors with disjunctive proofs
   ("encrypts identity OR I hold the slot key" — see
   :mod:`repro.verdict.ciphertext`).
3. Every server verifies every proof.  Invalid submissions are rejected
   *and their senders named in-round* — this is the proactive
   accountability the XOR pipeline lacks: no witness bit, no accusation
   shuffle, no extra rounds.
4. Servers publish proven decryption shares; a bad share equally names the
   server.  The surviving product opens to the slot payload.

Steps 3 and 4 are :func:`verifiable_round`, written once: the hybrid
replay (:mod:`repro.verdict.hybrid`) opens each corrupted chunk through
the same function and the same :class:`VerdictServer` checks.

The slot permutation stands in for the verifiable key shuffle of
:mod:`repro.core.keyshuffle` (which the core pipeline already implements
and tests); a deployment would feed the shuffled pseudonym schedule in
here unchanged.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.rounds import QuietOutcome
from repro.crypto import elgamal
from repro.crypto.groups import Group, group_by_name, resolve_group_name
from repro.crypto.hashing import sha256
from repro.crypto.keys import PrivateKey, PublicKey
from repro.errors import ProtocolError
from repro.obs.metrics import MetricsRegistry
from repro.verdict.ciphertext import (
    VerdictClientCiphertext,
    VerdictServerShare,
    batch_verify_client_ciphertexts,
    batch_verify_server_shares,
    chunk_count,
    combine_client_ciphertexts,
    decode_round,
    make_client_ciphertext,
    make_server_share,
    open_round,
)


class VerdictClient:
    """One client of the verifiable DC-net."""

    def __init__(
        self,
        group: Group,
        index: int,
        slot: int,
        slot_private: PrivateKey,
        slot_keys: list[int],
        combined_key: PublicKey,
        session_id: bytes,
        rng: random.Random | None = None,
    ) -> None:
        self.group = group
        self.index = index
        self.slot = slot
        self.slot_private = slot_private
        self.slot_keys = slot_keys
        self.combined_key = combined_key
        self.session_id = session_id
        self.rng = rng if rng is not None else random.Random()
        self.outbox: deque[bytes] = deque()
        self.received: list[tuple[int, int, bytes]] = []
        #: Per-node ``verdict.*`` counts; :meth:`VerdictSession.metrics`
        #: merges every node's registry into one view.
        self.registry = MetricsRegistry()

    def queue_message(self, message: bytes) -> None:
        if not message:
            raise ProtocolError("cannot queue an empty message")
        self.outbox.append(message)

    @property
    def has_pending_traffic(self) -> bool:
        return bool(self.outbox)

    def submit(
        self, round_number: int, slot_index: int, width: int
    ) -> VerdictClientCiphertext:
        """Produce this round's verifiable contribution."""
        payload = None
        slot_private = None
        if slot_index == self.slot and self.outbox:
            capacity = width * self.group.message_bytes
            if len(self.outbox[0]) <= capacity:
                payload = self.outbox[0]
                slot_private = self.slot_private
        self.registry.counter("verdict.client_proofs_made").inc(width)
        return make_client_ciphertext(
            self.group,
            self.combined_key,
            self.slot_keys[slot_index],
            self.index,
            self.session_id,
            round_number,
            slot_index,
            width,
            payload=payload,
            slot_private=slot_private,
            rng=self.rng,
        )

    def handle_output(self, round_number: int, slot_index: int, payload: bytes) -> None:
        """Digest an opened round: confirm own delivery, record others'."""
        if payload and slot_index == self.slot and self.outbox:
            if payload == self.outbox[0]:
                self.outbox.popleft()
        if payload:
            self.received.append((round_number, slot_index, payload))


class DisruptingVerdictClient(VerdictClient):
    """A disruptor: submits garbage ciphertexts for a slot it does not own.

    In the XOR pipeline this attack corrupts the victim's slot and costs a
    full accusation shuffle to trace.  Here the forged contribution cannot
    carry a valid disjunctive proof (the disruptor knows neither the
    identity-encryption randomness consistent with its garbage nor the slot
    key), so servers reject it and name the sender before combining.
    """

    def __init__(self, *args, target_slot: int | None = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.target_slot = target_slot

    def submit(
        self, round_number: int, slot_index: int, width: int
    ) -> VerdictClientCiphertext:
        if self.target_slot is not None and slot_index != self.target_slot:
            return super().submit(round_number, slot_index, width)
        honest = super().submit(round_number, slot_index, width)
        # Multiply garbage into the first chunk; keep the honest proof, which
        # no longer matches — the best a proof-less disruptor can do.
        garbled = list(honest.ciphertexts)
        noise = self.group.random_element(self.rng)
        garbled[0] = elgamal.Ciphertext(
            garbled[0].a, self.group.mul(garbled[0].b, noise)
        )
        return VerdictClientCiphertext(
            self.index, tuple(garbled), honest.proofs
        )


class VerdictServer:
    """One anytrust server of the verifiable DC-net.

    Every method takes a ``chunk_start``: a hybrid replay re-opens one
    chunk of a corrupted slot at a time, and proofs stay bound to their
    absolute chunk positions.
    """

    def __init__(
        self,
        group: Group,
        index: int,
        key: PrivateKey,
        server_publics: list[PublicKey],
        slot_keys: list[int],
        combined_key: PublicKey,
        session_id: bytes,
    ) -> None:
        self.group = group
        self.index = index
        self.key = key
        self.server_publics = server_publics
        self.slot_keys = slot_keys
        self.combined_key = combined_key
        self.session_id = session_id
        self.registry = MetricsRegistry()

    def verify_submissions(
        self,
        round_number: int,
        slot_index: int,
        width: int,
        submissions: list[VerdictClientCiphertext],
        chunk_start: int = 0,
    ) -> set[int]:
        """Check every client proof; returns the rejected client indices.

        One batched multi-exponentiation per round replaces the
        per-chunk-per-client proof checks; rejections (and therefore the
        servers' bit-for-bit agreement) are identical to checking each
        submission individually — see
        :func:`repro.verdict.ciphertext.batch_verify_client_ciphertexts`.
        """
        self.registry.counter("verdict.client_proofs_checked").inc(
            sum(submission.width for submission in submissions)
        )
        rejected = batch_verify_client_ciphertexts(
            self.group,
            self.combined_key,
            self.slot_keys[slot_index],
            self.session_id,
            round_number,
            slot_index,
            width,
            submissions,
            chunk_start=chunk_start,
        )
        self.registry.counter("verdict.rejected_submissions").inc(len(rejected))
        return rejected

    def make_share(
        self,
        round_number: int,
        slot_index: int,
        a_parts: list[int],
        chunk_start: int = 0,
    ) -> VerdictServerShare:
        return make_server_share(
            self.group,
            self.key,
            self.index,
            a_parts,
            self.session_id,
            round_number,
            slot_index,
            chunk_start=chunk_start,
        )

    def verify_shares(
        self,
        round_number: int,
        slot_index: int,
        a_parts: list[int],
        shares: list[VerdictServerShare],
        chunk_start: int = 0,
    ) -> tuple[int, ...]:
        """Check every server's decryption share; returns blamed indices.

        All M shares' chunk proofs collapse into one batched
        multi-exponentiation (the blamed set matches per-share
        :func:`repro.verdict.ciphertext.verify_server_share` exactly).
        """
        self.registry.counter("verdict.share_proofs_checked").inc(
            len(a_parts) * len(shares)
        )
        return tuple(
            sorted(
                batch_verify_server_shares(
                    self.group,
                    self.server_publics,
                    a_parts,
                    self.session_id,
                    round_number,
                    slot_index,
                    shares,
                    chunk_start=chunk_start,
                )
            )
        )


def verifiable_round(
    servers: Sequence[VerdictServer],
    round_number: int,
    slot_index: int,
    width: int,
    submissions: list[VerdictClientCiphertext],
    chunk_start: int = 0,
) -> tuple[set[int], tuple[int, ...], bytes]:
    """Verify, combine, share, verify shares, open: one verifiable round.

    Every server checks every client proof and every decryption share — a
    single designated verifier could frame or shield servers — and honest
    servers agree bit for bit, so disagreement raises.  Returns the
    rejected client indices, the blamed server indices and the opened
    payload (empty when a server is blamed: its share cannot open the
    slot).
    """
    group = servers[0].group
    rejections = [
        server.verify_submissions(
            round_number, slot_index, width, submissions, chunk_start
        )
        for server in servers
    ]
    rejected = rejections[0]
    if any(other != rejected for other in rejections[1:]):
        raise ProtocolError("honest servers disagree on proof verification")
    accepted = [s for s in submissions if s.client_index not in rejected]
    a_parts, b_parts = combine_client_ciphertexts(group, accepted, width)
    shares = [
        server.make_share(round_number, slot_index, a_parts, chunk_start)
        for server in servers
    ]
    votes = [
        server.verify_shares(round_number, slot_index, a_parts, shares, chunk_start)
        for server in servers
    ]
    blamed = votes[0]
    if any(vote != blamed for vote in votes[1:]):
        raise ProtocolError("honest servers disagree on share verification")
    if blamed:
        return rejected, blamed, b""
    return rejected, blamed, decode_round(group, open_round(group, b_parts, shares))


@dataclass(frozen=True)
class VerdictRoundResult:
    """Outcome of one verifiable round."""

    round_number: int
    slot_index: int
    payload: bytes
    rejected_clients: tuple[int, ...]
    blamed_servers: tuple[int, ...]

    @property
    def completed(self) -> bool:
        return not self.blamed_servers


class VerdictSession:
    """Drives a verifiable DC-net group end to end, in process."""

    def __init__(
        self,
        group: Group,
        servers: list[VerdictServer],
        clients: list[VerdictClient],
        slot_keys: list[int],
        slot_payload: int,
        rng: random.Random,
    ) -> None:
        self.group = group
        self.servers = servers
        self.clients = clients
        self.slot_keys = slot_keys
        self.slot_payload = slot_payload
        self.width = chunk_count(group, slot_payload)
        self.rng = rng
        self.round_number = 0
        self.expelled: set[int] = set()
        self.records: list[VerdictRoundResult] = []

    @classmethod
    def build(
        cls,
        num_servers: int = 3,
        num_clients: int = 4,
        group_name: str | None = None,
        slot_payload: int = 24,
        seed: int | None = None,
        client_factories: dict[int, type] | None = None,
    ) -> "VerdictSession":
        """Fresh keys, a seeded secret slot permutation, honest nodes.

        Args:
            client_factories: optional per-index client constructors taking
                the :class:`VerdictClient` positional arguments (adversarial
                variants for tests and demos; use ``functools.partial`` to
                bind extra keywords like ``target_slot``).
        """
        group = group_by_name(resolve_group_name(group_name))
        rng = random.Random(seed) if seed is not None else random.Random()
        server_keys = [PrivateKey.generate(group, rng) for _ in range(num_servers)]
        server_publics = [key.public for key in server_keys]
        combined = elgamal.combined_key(server_publics)
        pseudonyms = [PrivateKey.generate(group, rng) for _ in range(num_clients)]
        # The secret permutation the key shuffle would output: slot s is
        # owned by client permutation[s], known only to that client.
        permutation = list(range(num_clients))
        rng.shuffle(permutation)
        slot_of_client = {c: s for s, c in enumerate(permutation)}
        slot_keys = [pseudonyms[permutation[s]].y for s in range(num_clients)]
        session_id = sha256(
            b"dissent.verdict.session.v1",
            group.element_to_bytes(combined.y),
            *[group.element_to_bytes(k) for k in slot_keys],
        )
        servers = [
            VerdictServer(
                group, j, key, server_publics, slot_keys, combined, session_id
            )
            for j, key in enumerate(server_keys)
        ]
        factories = client_factories or {}
        clients = []
        for i in range(num_clients):
            factory = factories.get(i, VerdictClient)
            clients.append(
                factory(
                    group,
                    i,
                    slot_of_client[i],
                    pseudonyms[i],
                    slot_keys,
                    combined,
                    session_id,
                    random.Random(rng.getrandbits(64)),
                )
            )
        return cls(group, servers, clients, slot_keys, slot_payload, rng)

    @property
    def slot_capacity(self) -> int:
        """Wire capacity of one round: width chunks of message_bytes each."""
        return self.width * self.group.message_bytes

    def post(self, client_index: int, message: bytes) -> None:
        """Queue an anonymous message from one client."""
        if len(message) > self.slot_capacity:
            raise ProtocolError(
                f"message of {len(message)} bytes exceeds the round capacity "
                f"of {self.slot_capacity}; verifiable slots do not fragment"
            )
        self.clients[client_index].queue_message(message)

    def run_round(self, slot_index: int | None = None) -> VerdictRoundResult:
        """Execute one verifiable round for one slot.

        Args:
            slot_index: the scheduled slot; None rotates round-robin.
        """
        r = self.round_number
        if slot_index is None:
            slot_index = r % len(self.slot_keys)
        if slot_index not in range(len(self.slot_keys)):
            raise ProtocolError(
                f"slot {slot_index} is not one of the {len(self.slot_keys)} slots"
            )
        self.round_number += 1

        submissions = [
            client.submit(r, slot_index, self.width)
            for i, client in enumerate(self.clients)
            if i not in self.expelled
        ]
        rejected, blamed_servers, payload = verifiable_round(
            self.servers, r, slot_index, self.width, submissions
        )
        self.expelled |= rejected
        if not blamed_servers:
            for i, client in enumerate(self.clients):
                if i not in self.expelled:
                    client.handle_output(r, slot_index, payload)
        record = VerdictRoundResult(
            round_number=r,
            slot_index=slot_index,
            payload=payload,
            rejected_clients=tuple(sorted(rejected)),
            blamed_servers=blamed_servers,
        )
        self.records.append(record)
        return record

    def run_until_quiet(self, max_rounds: int = 32) -> QuietOutcome:
        """Rotate slots until no client has pending traffic.

        Returns a :class:`~repro.core.rounds.QuietOutcome`: draining
        exactly on the final allowed round reports ``drained=True``, while
        exhausting the budget with traffic still queued reports
        ``drained=False`` (the old bare-count return conflated the two).
        """
        def quiet() -> bool:
            return not any(
                c.has_pending_traffic
                for i, c in enumerate(self.clients)
                if i not in self.expelled
            )

        for used in range(max_rounds):
            if quiet():
                return QuietOutcome(used, True)
            self.run_round()
        return QuietOutcome(max_rounds, quiet())

    def delivered_messages(self, client_index: int = 0) -> list[tuple[int, int, bytes]]:
        return list(self.clients[client_index].received)

    def metrics(self) -> dict:
        """Merged ``verdict.*`` registry snapshot across every node."""
        merged = MetricsRegistry()
        for node in (*self.clients, *self.servers):
            merged.merge_snapshot(node.registry.snapshot())
        return merged.snapshot()

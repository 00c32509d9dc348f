"""The Dissent server protocol (paper Algorithm 2).

Per round, a server moves through six phases:

1. **Submission** — collect signed client ciphertexts until its window
   policy closes (window policies live in :mod:`repro.core.policy`; in
   real-mode sessions the driver decides when to stop feeding ciphertexts).
2. **Inventory** — broadcast the list of client identities heard from.
3. **Commitment** — given all inventories, deterministically deduplicate
   clients who submitted to several servers, form the composite list l,
   check the participation floor, XOR pair streams for every client in l
   with the directly-received ciphertexts, and broadcast a commitment to
   ``sha256(s_j)`` (:func:`repro.crypto.hashing.commit`).
4. **Combining** — after all commitments arrive, reveal ``s_j``.
5. **Certification** — verify every reveal against its commitment, XOR all
   server ciphertexts into the cleartext, and sign it.
6. **Output** — assemble all signatures and push the certified output to
   attached clients.

The server keeps a bounded archive of past rounds (signed client
submissions, inventories, server ciphertexts, layout geometry) so the
accusation process can reopen any recent round.
"""

from __future__ import annotations

import enum
import itertools
import random
from dataclasses import dataclass, field

from repro.core.accusation import RoundEvidence, TraceDisclosure
from repro.core.config import GroupDefinition
from repro.core.rounds import RoundOutput, output_digest
from repro.core.schedule import RoundLayout, Scheduler, SlotContent
from repro.crypto import dh, prng
from repro.crypto.groups import hot_bases_within_budget
from repro.crypto.hashing import commit as hash_commit, verify_commit
from repro.crypto.keys import PrivateKey
from repro.crypto import schnorr
from repro.crypto.schnorr import Signature, sign as schnorr_sign
from repro.errors import CommitmentMismatch, ProtocolError
from repro.net.message import (
    CLIENT_CIPHERTEXT,
    LEADER_PROPOSE,
    ROUND_OUTPUT,
    SERVER_COMMIT,
    SERVER_INVENTORY,
    SERVER_REVEAL,
    SERVER_SIGNATURE,
    SERVER_VOTE,
    VIEW_CHANGE,
    SignedEnvelope,
    batch_verify_envelopes,
    body_digest,
    make_envelope,
    require_envelopes_valid,
)
from repro.util.bytesops import xor_many
from repro.util.serialization import pack_fields, unpack_fields


class Phase(enum.Enum):
    """Where a server stands within the current round."""

    IDLE = "idle"
    COLLECTING = "collecting"
    INVENTORY = "inventory"
    COMMITTED = "committed"
    REVEALED = "revealed"
    CERTIFIED = "certified"


@dataclass
class RoundArchive:
    """Everything retained for accusation tracing of one past round."""

    round_number: int
    layout: RoundLayout
    final_list: tuple[int, ...]
    assignment: dict[int, int]
    received_envelopes: dict[int, SignedEnvelope]
    server_ciphertexts: list[bytes]
    cleartext: bytes
    participation: int

    def to_evidence(self) -> RoundEvidence:
        """Repackage for the accusation module's verifier interface."""
        slot_ranges: dict[int, tuple[int, int]] = {}
        for slot in range(self.layout.num_slots):
            if self.layout.is_open(slot):
                slot_ranges[slot] = self.layout.slot_bit_range(slot)
        return RoundEvidence(
            round_number=self.round_number,
            final_list=self.final_list,
            assignment=dict(self.assignment),
            server_ciphertexts=list(self.server_ciphertexts),
            cleartext=self.cleartext,
            total_bytes=self.layout.total_bytes,
            slot_bit_ranges=slot_ranges,
        )


@dataclass
class _RoundState:
    """Mutable state of one in-progress round (internal).

    The pipelined engine keeps several of these alive at once, so the
    phase machine lives here rather than on the server: each in-flight
    round advances through the six phases independently.
    """

    round_number: int
    layout: RoundLayout
    phase: Phase = Phase.COLLECTING
    received: dict[int, SignedEnvelope] = field(default_factory=dict)
    inventories: dict[int, tuple[int, ...]] = field(default_factory=dict)
    final_list: tuple[int, ...] = ()
    assignment: dict[int, int] = field(default_factory=dict)
    own_ciphertext: bytes = b""
    #: ``sha256(own_ciphertext)``: committed to, and signed in the reveal.
    own_digest: bytes = b""
    commitments: dict[int, bytes] = field(default_factory=dict)
    reveals: dict[int, bytes] = field(default_factory=dict)
    cleartext: bytes = b""
    #: What this server signed to certify the output (``output_digest``).
    output_digest: bytes = b""
    signatures: dict[int, Signature] = field(default_factory=dict)
    participation: int = 0


class DissentServer:
    """One anytrust server node (Algorithm 2)."""

    def __init__(
        self,
        definition: GroupDefinition,
        index: int,
        key: PrivateKey,
        rng: random.Random | None = None,
    ) -> None:
        if key.y != definition.server_keys[index].y:
            raise ProtocolError("server key does not match the group definition")
        self.definition = definition
        self.index = index
        self.key = key
        self.rng = rng if rng is not None else random.Random()
        self.name = definition.server_name(index)
        self.group = definition.group
        self.group_id = definition.group_id()
        self.policy = definition.policy
        self.secrets = {
            i: dh.shared_secret(key, client_key)
            for i, client_key in enumerate(definition.client_keys)
        }
        self.scheduler = Scheduler(definition.num_clients, definition.policy)
        self.slot_keys: list[int] = []
        self.expelled: set[int] = set()
        self.archive: dict[int, RoundArchive] = {}
        self.last_participation: int | None = None
        #: In-flight rounds in ascending round order (dict preserves
        #: insertion order; rounds are always opened oldest-first).  The
        #: lockstep driver keeps exactly one entry; the pipelined engine
        #: holds up to ``max_rounds_in_flight``.
        self._rounds: dict[int, _RoundState] = {}
        self.max_rounds_in_flight = 1

    def snapshot_state(self) -> dict:
        """Capture mutable barrier state (checkpointing / rollback).

        Taken between rounds only: in-flight ``_rounds`` are deliberately
        excluded — durable checkpoints happen at round barriers where no
        round is open, and a restore re-opens rounds from scratch.
        Archive entries are shared, not copied; they are never mutated in
        place, only inserted and evicted.
        """
        return {
            "scheduler": self.scheduler.clone(),
            "slot_keys": list(self.slot_keys),
            "expelled": set(self.expelled),
            "archive": dict(self.archive),
            "last_participation": self.last_participation,
            "rng_state": self.rng.getstate(),
        }

    def restore_state(self, snapshot: dict) -> None:
        """Adopt a snapshot taken by :meth:`snapshot_state`."""
        self.scheduler = snapshot["scheduler"]
        self.slot_keys = list(snapshot["slot_keys"])
        self.expelled = set(snapshot["expelled"])
        self.archive = dict(snapshot["archive"])
        self.last_participation = snapshot["last_participation"]
        self.rng.setstate(snapshot["rng_state"])
        self._rounds = {}

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def learn_schedule(self, shuffled_elements: list[int]) -> None:
        """Record the slot → pseudonym key mapping from the key shuffle."""
        if len(shuffled_elements) != self.definition.num_clients:
            raise ProtocolError("schedule length does not match client count")
        self.slot_keys = list(shuffled_elements)

    # ------------------------------------------------------------------
    # Phase 1: submission collection
    # ------------------------------------------------------------------

    def open_round(self, round_number: int) -> None:
        """Begin collecting ciphertexts for a new round.

        Several rounds may collect concurrently (the pipelined engine
        opens rounds ``r+1 .. r+W-1`` while round ``r`` is still in its
        commit/reveal exchanges), bounded by :attr:`max_rounds_in_flight`.
        Rounds must be opened in ascending order; each new round's layout
        is the scheduler's current one — the pipeline driver validates
        that assumption when earlier rounds complete and drains if the
        schedule actually changed.
        """
        if round_number in self._rounds:
            raise ProtocolError(f"round {round_number} is already open")
        if self._rounds and round_number < max(self._rounds):
            raise ProtocolError("rounds must be opened in ascending order")
        if len(self._rounds) >= self.max_rounds_in_flight:
            raise ProtocolError(
                f"{len(self._rounds)} rounds already in flight "
                f"(window is {self.max_rounds_in_flight})"
            )
        self._rounds[round_number] = _RoundState(
            round_number=round_number, layout=self.scheduler.current_layout()
        )

    @property
    def phase(self) -> Phase:
        """Phase of the oldest in-flight round (IDLE when none)."""
        if not self._rounds:
            return Phase.IDLE
        return next(iter(self._rounds.values())).phase

    @property
    def rounds_in_flight(self) -> tuple[int, ...]:
        return tuple(self._rounds)

    @property
    def state(self) -> _RoundState:
        """The single in-flight round (lockstep callers and tests)."""
        return self._resolve(None)

    def _resolve(self, round_number: int | None) -> _RoundState:
        """Look up a round's state; ``None`` means the oldest in flight.

        Phase work always targets the oldest round (completion is
        in-order), so lockstep callers never pass an explicit number.
        """
        if round_number is None:
            if not self._rounds:
                raise ProtocolError("no round in progress")
            return next(iter(self._rounds.values()))
        state = self._rounds.get(round_number)
        if state is None:
            raise ProtocolError(f"round {round_number} is not in progress")
        return state

    def discard_round(self, round_number: int) -> None:
        """Drop a speculatively-opened round (pipeline drain).

        Unlike :meth:`abandon_round` this publishes nothing: the round
        never ran, so it must leave no trace in the participation basis.
        """
        if round_number not in self._rounds:
            raise ProtocolError(f"round {round_number} is not in progress")
        del self._rounds[round_number]

    def accept_ciphertext(self, envelope: SignedEnvelope) -> bool:
        """Validate and store one client submission; False if rejected."""
        return self.accept_ciphertexts([envelope])[0]

    def accept_ciphertexts(self, envelopes: list[SignedEnvelope]) -> list[bool]:
        """Validate and store a batch of client submissions.

        Structural screening (phase, type, round, group id, sender, body
        length) is per envelope and costs no crypto; the surviving
        signatures are then checked with **one** multi-exponentiation
        (:func:`repro.net.message.batch_verify_envelopes`), with the
        clients' long-term keys as hot fixed-base tables.  A failing batch
        bisects to the exact forged envelopes, so the accept/reject vector
        is bit-identical to verifying each submission individually.

        Envelopes route to the in-flight round they name: a mixed batch
        carrying rounds ``r`` and ``r+1`` lands in both states, which is
        how the pipelined engine verifies future rounds' submissions while
        round ``r`` is still mid-exchange.  Envelopes for rounds that are
        not currently collecting are rejected structurally.
        """
        verdicts = [False] * len(envelopes)
        # (envelope position, client, target round state)
        candidates: list[tuple[int, int, _RoundState]] = []
        for position, envelope in enumerate(envelopes):
            if envelope.msg_type != CLIENT_CIPHERTEXT:
                continue
            state = self._rounds.get(envelope.round_number)
            if state is None or state.phase is not Phase.COLLECTING:
                continue
            if envelope.group_id != self.group_id:
                continue
            client_index = self._client_index(envelope.sender)
            if client_index is None or client_index in self.expelled:
                continue
            if len(envelope.body) != state.layout.total_bytes:
                continue
            candidates.append((position, client_index, state))
        items = [
            (envelopes[position], self.definition.client_keys[client_index])
            for position, client_index, _ in candidates
        ]
        invalid = set(
            batch_verify_envelopes(
                items,
                hot_bases=hot_bases_within_budget(key.y for _, key in items),
            )
        )
        for slot, (position, client_index, state) in enumerate(candidates):
            if slot in invalid:
                continue
            state.received[client_index] = envelopes[position]
            verdicts[position] = True
        return verdicts

    def _client_index(self, sender: str) -> int | None:
        if not sender.startswith("client-"):
            return None
        try:
            index = int(sender.split("-", 1)[1])
        except ValueError:
            return None
        if not 0 <= index < self.definition.num_clients:
            return None
        return index

    # ------------------------------------------------------------------
    # Phase 2: inventory
    # ------------------------------------------------------------------

    def make_inventory(self, round_number: int | None = None) -> SignedEnvelope:
        """Broadcast the sorted list of clients heard from."""
        state = self._resolve(round_number)
        if state.phase is not Phase.COLLECTING:
            raise ProtocolError(f"inventory out of order in phase {state.phase}")
        state.phase = Phase.INVENTORY
        client_list = sorted(state.received)
        body = pack_fields(*[int(i) for i in client_list]) if client_list else b""
        return make_envelope(
            self.key,
            SERVER_INVENTORY,
            self.name,
            self.group_id,
            state.round_number,
            body,
        )

    def receive_inventories(self, envelopes: list[SignedEnvelope]) -> int:
        """Digest all inventories; returns the composite participation |l|.

        Deduplication rule (deterministic on every server): a client that
        submitted to several servers is assigned to the lowest-indexed
        server that heard from it; only that server XORs the client's
        ciphertext into its own.
        """
        state = self._resolve(None)
        if state.phase is not Phase.INVENTORY:
            raise ProtocolError(f"inventories out of order in phase {state.phase}")
        if len(envelopes) != self.definition.num_servers:
            raise ProtocolError("need exactly one inventory per server")
        indices = []
        for envelope in envelopes:
            if envelope.msg_type != SERVER_INVENTORY:
                raise ProtocolError("non-inventory envelope in inventory phase")
            if envelope.round_number != state.round_number:
                raise ProtocolError("inventory for a different round")
            indices.append(self._server_index(envelope.sender))
        self._verify_peer_batch(envelopes, indices)
        for envelope, server_index in zip(envelopes, indices):
            listed = (
                tuple(int(x) for x in unpack_fields(envelope.body))
                if envelope.body
                else ()
            )
            state.inventories[server_index] = listed
        assignment: dict[int, int] = {}
        for server_index in sorted(state.inventories):
            for client_index in state.inventories[server_index]:
                if client_index in self.expelled:
                    continue
                assignment.setdefault(client_index, server_index)
        state.assignment = assignment
        state.final_list = tuple(sorted(assignment))
        state.participation = len(state.final_list)
        return state.participation

    def _server_index(self, sender: str) -> int:
        return self.definition.server_index_of(sender)

    def _verify_peer_batch(
        self, envelopes: list[SignedEnvelope], indices: list[int]
    ) -> None:
        """Check all peer-server signatures in one batch.

        Peer long-term keys recur every round, so they ride the cached
        fixed-base tables.  A failing batch bisects to the forging peers
        and raises naming them — identical verdicts to per-envelope checks.
        """
        require_envelopes_valid(
            [
                (envelope, self.definition.server_keys[j])
                for envelope, j in zip(envelopes, indices)
            ],
            hot_bases=hot_bases_within_budget(
                key.y for key in self.definition.server_keys
            ),
        )

    def participation_ok(self, round_number: int | None = None) -> bool:
        """§3.7 floor: |l| >= alpha * (previous round's participation)."""
        if self.last_participation is None:
            return True
        floor = self.policy.alpha * self.last_participation
        return self._resolve(round_number).participation >= floor

    # ------------------------------------------------------------------
    # Phase 3: commitment
    # ------------------------------------------------------------------

    def compute_ciphertext(self, round_number: int | None = None) -> SignedEnvelope:
        """Form s_j and broadcast its commitment."""
        state = self._resolve(round_number)
        if state.phase is not Phase.INVENTORY:
            raise ProtocolError(f"commitment out of order in phase {state.phase}")
        length = state.layout.total_bytes
        # A generator: one pad alive at a time, not all N (N x 500 KiB on
        # a bulk round), as ``DissentClient.produce_ciphertext`` does.
        streams = (
            prng.pair_stream(self.secrets[i], state.round_number, length)
            for i in state.final_list
        )
        own_blobs = (
            state.received[i].body
            for i in state.final_list
            if state.assignment[i] == self.index and i in state.received
        )
        state.own_ciphertext = xor_many(
            itertools.chain(streams, own_blobs), length=length
        )
        state.phase = Phase.COMMITTED
        return self._commit_envelope(state)

    def _commit_envelope(self, state: _RoundState) -> SignedEnvelope:
        """Hash ``s_j`` — the one pass this server makes over it — and sign
        the commitment to that digest; the reveal signs the same digest."""
        state.own_digest = body_digest(state.own_ciphertext)
        return make_envelope(
            self.key,
            SERVER_COMMIT,
            self.name,
            self.group_id,
            state.round_number,
            hash_commit(state.own_digest),
        )

    def receive_commitments(self, envelopes: list[SignedEnvelope]) -> None:
        """Store every server's commitment (must precede any reveal)."""
        state = self._resolve(None)
        if state.phase is not Phase.COMMITTED:
            raise ProtocolError(f"commitments out of order in phase {state.phase}")
        if len(envelopes) != self.definition.num_servers:
            raise ProtocolError("need exactly one commitment per server")
        indices = []
        for envelope in envelopes:
            if envelope.msg_type != SERVER_COMMIT:
                raise ProtocolError("non-commit envelope in commitment phase")
            if envelope.round_number != state.round_number:
                raise ProtocolError("commitment for a different round")
            indices.append(self._server_index(envelope.sender))
        self._verify_peer_batch(envelopes, indices)
        for envelope, server_index in zip(envelopes, indices):
            state.commitments[server_index] = envelope.body

    # ------------------------------------------------------------------
    # Phase 4: combining
    # ------------------------------------------------------------------

    def reveal_ciphertext(self, round_number: int | None = None) -> SignedEnvelope:
        """Share s_j once every commitment is in hand."""
        state = self._resolve(round_number)
        if state.phase is not Phase.COMMITTED:
            raise ProtocolError(f"reveal out of order in phase {state.phase}")
        if len(state.commitments) != self.definition.num_servers:
            raise ProtocolError("cannot reveal before all commitments arrive")
        state.phase = Phase.REVEALED
        return make_envelope(
            self.key,
            SERVER_REVEAL,
            self.name,
            self.group_id,
            state.round_number,
            state.own_ciphertext,
            digest=state.own_digest,
        )

    def receive_reveals(self, envelopes: list[SignedEnvelope]) -> bytes:
        """Verify reveals against commitments and combine the cleartext."""
        state = self._resolve(None)
        if state.phase is not Phase.REVEALED:
            raise ProtocolError(f"reveals out of order in phase {state.phase}")
        if len(envelopes) != self.definition.num_servers:
            raise ProtocolError("need exactly one reveal per server")
        blobs: list[bytes] = [b""] * self.definition.num_servers
        indices = []
        # Metadata first, as in ``accept_ciphertexts``: a mistyped, stale,
        # unattributable or wrong-length reveal is rejected before any
        # signature or hash work is spent on its body.
        for envelope in envelopes:
            if envelope.msg_type != SERVER_REVEAL:
                raise ProtocolError("non-reveal envelope in combining phase")
            if envelope.round_number != state.round_number:
                raise ProtocolError("reveal for a different round")
            indices.append(self._server_index(envelope.sender))
            if len(envelope.body) != state.layout.total_bytes:
                raise ProtocolError("revealed ciphertext has the wrong length")
        self._verify_peer_batch(envelopes, indices)
        for envelope, server_index in zip(envelopes, indices):
            # The digest the signature check just computed opens the
            # commitment: each reveal is hashed once.
            if not verify_commit(
                state.commitments[server_index], envelope.body_digest()
            ):
                raise CommitmentMismatch(
                    f"server {server_index} revealed a ciphertext that does not "
                    "match its commitment"
                )
            blobs[server_index] = envelope.body
        state.reveals = {j: blob for j, blob in enumerate(blobs)}
        state.cleartext = xor_many(blobs, length=state.layout.total_bytes)
        return state.cleartext

    # ------------------------------------------------------------------
    # Phase 5/6: certification and output
    # ------------------------------------------------------------------

    def sign_output(self, round_number: int | None = None) -> Signature:
        """Certify the combined cleartext and participation count."""
        state = self._resolve(round_number)
        if state.phase is not Phase.REVEALED:
            raise ProtocolError(f"signing out of order in phase {state.phase}")
        if not state.cleartext and state.layout.total_bytes:
            raise ProtocolError("cannot sign before combining")
        state.phase = Phase.CERTIFIED
        state.output_digest = output_digest(
            self.group_id, state.round_number, state.cleartext, state.participation
        )
        return schnorr_sign(self.key, state.output_digest)

    def signature_envelope(self, round_number: int | None = None) -> SignedEnvelope:
        """Envelope entry point for the certification phase.

        Networked peers exchange output signatures as ``server-signature``
        envelopes; the body is the bare :meth:`sign_output` signature, so
        the certified digest check in :meth:`assemble_output` is unchanged.
        """
        from repro.net.wire import encode_signature_body

        state = self._resolve(round_number)
        signature = self.sign_output(state.round_number)
        return make_envelope(
            self.key,
            SERVER_SIGNATURE,
            self.name,
            self.group_id,
            state.round_number,
            encode_signature_body(self.group, signature),
        )

    def receive_signature_envelopes(
        self, envelopes: list[SignedEnvelope]
    ) -> RoundOutput:
        """Assemble the round output from peer ``server-signature`` envelopes.

        Envelopes are screened structurally (type, round, one per server),
        then their embedded signatures feed :meth:`assemble_output`, whose
        batched digest verification is the real authenticity check — so the
        output is bit-identical to the in-process signature exchange.
        """
        from repro.net.wire import decode_signature_body

        state = self._resolve(None)
        if len(envelopes) != self.definition.num_servers:
            raise ProtocolError("need exactly one signature envelope per server")
        signatures: list[Signature | None] = [None] * self.definition.num_servers
        for envelope in envelopes:
            if envelope.msg_type != SERVER_SIGNATURE:
                raise ProtocolError("non-signature envelope in certification phase")
            if envelope.round_number != state.round_number:
                raise ProtocolError("signature envelope for a different round")
            server_index = self._server_index(envelope.sender)
            if signatures[server_index] is not None:
                raise ProtocolError(
                    f"duplicate signature envelope from server {server_index}"
                )
            signatures[server_index] = decode_signature_body(
                self.group, envelope.body
            )
        return self.assemble_output([sig for sig in signatures if sig is not None])

    def output_envelope(self, output: RoundOutput) -> SignedEnvelope:
        """Wrap a certified round output for broadcast to attached clients.

        The envelope signs the certified digest: it is ``sha256`` of this
        very body, already computed when the round entered consensus.
        """
        from repro.consensus.certificate import output_body_digest
        from repro.net.wire import encode_round_output_body

        return make_envelope(
            self.key,
            ROUND_OUTPUT,
            self.name,
            self.group_id,
            output.round_number,
            encode_round_output_body(self.group, output),
            digest=output_body_digest(self.group, output),
        )

    def propose_round(self, output: RoundOutput, view: int = 0) -> list[SignedEnvelope]:
        """Leader entry point: signed proposal(s) for the assembled output.

        Returns a list so Byzantine subclasses can equivocate (two
        conflicting proposals) or stall (an empty list); the honest
        implementation proposes exactly once.  Signing is deterministic,
        so proposing consumes no randomness and cannot perturb the
        session's RNG streams.
        """
        from repro.consensus.certificate import output_body_digest
        from repro.net.wire import encode_consensus_body

        return [
            make_envelope(
                self.key,
                LEADER_PROPOSE,
                self.name,
                self.group_id,
                output.round_number,
                encode_consensus_body(view, output_body_digest(self.group, output)),
            )
        ]

    def vote_on_proposal(
        self, proposal: SignedEnvelope, output: RoundOutput, view: int = 0
    ) -> SignedEnvelope | None:
        """Counter-sign a leader proposal that matches our own output.

        A vote is only issued when the proposed digest equals the hash of
        the output *this* server assembled from its own envelope batches —
        the leader coordinates the commit, it cannot steer the value.
        Returns ``None`` for a proposal from another round/view or one
        that conflicts with the local output; the engine counts the
        rejection and lets the barrier timer drive a view change.
        Byzantine subclasses return ``None`` to withhold.
        """
        from repro.consensus.certificate import (
            output_body_digest,
            proposal_view_digest,
        )
        from repro.net.wire import encode_consensus_body

        if proposal.msg_type != LEADER_PROPOSE:
            raise ProtocolError("vote requested on a non-proposal envelope")
        if proposal.round_number != output.round_number:
            return None
        proposal_view, digest = proposal_view_digest(proposal)
        if proposal_view != view:
            return None
        if digest != output_body_digest(self.group, output):
            return None
        return make_envelope(
            self.key,
            SERVER_VOTE,
            self.name,
            self.group_id,
            output.round_number,
            encode_consensus_body(view, digest),
        )

    def view_change_envelope(
        self, round_number: int, new_view: int, reason: str = ""
    ) -> SignedEnvelope:
        """Announce adoption of ``new_view`` for a stuck round."""
        from repro.net.wire import encode_view_change_body

        return make_envelope(
            self.key,
            VIEW_CHANGE,
            self.name,
            self.group_id,
            round_number,
            encode_view_change_body(new_view, reason),
        )

    def assemble_output(self, signatures: list[Signature]) -> RoundOutput:
        """Collect all server signatures into a certified round output."""
        state = self._resolve(None)
        if state.phase is not Phase.CERTIFIED:
            raise ProtocolError(f"assembly out of order in phase {state.phase}")
        if len(signatures) != self.definition.num_servers:
            raise ProtocolError("need exactly one signature per server")
        # All M output signatures cover the digest we signed: one multi-exp.
        if not schnorr.batch_verify(
            [
                (server_key, state.output_digest, signature)
                for server_key, signature in zip(
                    self.definition.server_keys, signatures
                )
            ],
            hot_bases=hot_bases_within_budget(
                key.y for key in self.definition.server_keys
            ),
        ):
            raise ProtocolError("peer server signature on output invalid")
        return RoundOutput(
            round_number=state.round_number,
            cleartext=state.cleartext,
            participation=state.participation,
            signatures=tuple(signatures),
        )

    def finish_round(self, output: RoundOutput) -> list[SlotContent]:
        """Archive the round, advance scheduling, return decoded slots.

        Rounds finish strictly in order — the scheduler advances once per
        round output, oldest first — so the finished round must be the
        oldest in flight even when younger rounds are already collecting.
        """
        state = self._resolve(output.round_number)
        if state is not next(iter(self._rounds.values())):
            raise ProtocolError(
                f"round {output.round_number} cannot finish before older rounds"
            )
        if state.phase is not Phase.CERTIFIED:
            raise ProtocolError(f"finish out of order in phase {state.phase}")
        self.archive[state.round_number] = RoundArchive(
            round_number=state.round_number,
            layout=state.layout,
            final_list=state.final_list,
            assignment=dict(state.assignment),
            received_envelopes=dict(state.received),
            server_ciphertexts=[
                state.reveals[j] for j in range(self.definition.num_servers)
            ],
            cleartext=state.cleartext,
            participation=state.participation,
        )
        self._trim_archive()
        self.last_participation = state.participation
        contents = self.scheduler.advance(state.cleartext)
        del self._rounds[state.round_number]
        return contents

    def abandon_round(self, round_number: int | None = None) -> None:
        """§3.7 hard timeout: discard everything, publish a fresh basis."""
        state = self._resolve(round_number)
        self.last_participation = state.participation
        del self._rounds[state.round_number]

    def _trim_archive(self) -> None:
        # Rounds finish in ascending order, so insertion order *is* round
        # order: evicting the first key is O(1) per eviction, where the
        # old ``min(self.archive)`` scanned every key each time.
        while len(self.archive) > self.policy.archive_rounds:
            del self.archive[next(iter(self.archive))]

    # ------------------------------------------------------------------
    # Accusation support (§3.9)
    # ------------------------------------------------------------------

    def expel_client(self, client_index: int) -> None:
        """Remove a convicted disruptor from all future rounds."""
        if not 0 <= client_index < self.definition.num_clients:
            raise ProtocolError(f"client index {client_index} out of range")
        self.expelled.add(client_index)

    def trace_disclosure(self, round_number: int, bit_index: int) -> TraceDisclosure:
        """Reveal our pair-stream bits and held evidence for a witness bit.

        An honest server computes the true PRNG bits; adversarial
        subclasses override this to model equivocation.
        """
        archive = self.archive.get(round_number)
        if archive is None:
            raise ProtocolError(f"round {round_number} not in archive")
        pair_bits = {
            i: prng.pair_stream_bit(self.secrets[i], round_number, bit_index)
            for i in archive.final_list
        }
        own_envelopes = {
            i: archive.received_envelopes[i]
            for i in archive.final_list
            if archive.assignment[i] == self.index and i in archive.received_envelopes
        }
        return TraceDisclosure(
            server_index=self.index,
            client_envelopes=own_envelopes,
            pair_bits=pair_bits,
        )

    def disclosure_envelope(self, round_number: int, bit_index: int) -> SignedEnvelope:
        """Signed ``accusation-reveal`` envelope for the networked trace.

        Signing the disclosure makes trace equivocation attributable on the
        wire: the server's own signature pins the pair bits it claimed for
        this witness position.
        """
        from repro.net.message import ACCUSATION_REVEAL
        from repro.net.wire import encode_accusation_reveal_body

        disclosure = self.trace_disclosure(round_number, bit_index)
        return make_envelope(
            self.key,
            ACCUSATION_REVEAL,
            self.name,
            self.group_id,
            round_number,
            encode_accusation_reveal_body(self.group, bit_index, disclosure),
        )

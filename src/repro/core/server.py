"""The Dissent server protocol (paper Algorithm 2).

Per round, a server takes six steps:

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

A server holds no in-flight round.  :meth:`DissentServer.open_round`
returns a :class:`RoundState` and every later step takes it as its first
argument; the caller — :class:`repro.core.engine.RoundEngine` — keeps it,
and the order of the steps is the engine's script.  The steps still
check everything a peer sends (type, round, one per server, length,
signature, commitment); they do not check that the caller ran them in
order.  What a server keeps is long-lived: the scheduler, the roster, the
RNG and a bounded archive of the last ``archive_rounds`` rounds (signed
client submissions, server ciphertexts, layout geometry; no cleartext,
which those ciphertexts determine) so the accusation process can reopen
any recent round.
"""

from __future__ import annotations

import itertools
import random
import weakref
from dataclasses import dataclass, field

from repro.core.accusation import RoundEvidence, TraceDisclosure
from repro.core.config import GroupDefinition
from repro.core.rounds import RoundOutput, output_digest
from repro.core.schedule import RoundLayout, Scheduler, SlotContent
from repro.crypto import dh, prng
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


@dataclass
class RoundArchive:
    """Everything retained for accusation tracing of one past round.

    It holds what cannot be derived — the signed client submissions and
    the M server ciphertexts — and no cleartext: the round's cleartext is
    the XOR of the server ciphertexts, recomputed by :attr:`cleartext`
    for the rare reader (blame evidence, hybrid replay).
    """

    round_number: int
    layout: RoundLayout
    final_list: tuple[int, ...]
    assignment: dict[int, int]
    received_envelopes: dict[int, SignedEnvelope]
    server_ciphertexts: list[bytes]
    participation: int

    @property
    def cleartext(self) -> bytes:
        """The round's combined cleartext, as :meth:`DissentServer.receive_reveals`
        formed it from the same ciphertexts."""
        return xor_many(self.server_ciphertexts, length=self.layout.total_bytes)

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
class RoundState:
    """What one server holds of one in-flight round.

    Made by :meth:`DissentServer.open_round` and handed back to every
    later step; the server itself keeps none of these.
    """

    round_number: int
    layout: RoundLayout
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
        # What this server walks every round: its upstream clients' keys
        # (their ciphertexts) and every server's (peer envelopes, output
        # signatures).  The DH secrets, derived at set-up, walk them too.
        self._pin = self.group.pin(
            [key.y for key in definition.server_keys]
            + [
                key.y
                for i, key in enumerate(definition.client_keys)
                if definition.upstream_server(i) == index
            ]
        )
        # K_ij with each client, in client order: derived on first use
        # (set-up's learn_schedule) or installed by a restore.  Filled in
        # place, so the finalizer drops whatever this server ends up
        # holding: the pin dies with the server, its pad states with it.
        self._secrets: list[bytes] = []
        weakref.finalize(self, prng.forget_pair_states, self._secrets)
        self.scheduler = Scheduler(definition.num_clients, definition.policy)
        self.slot_keys: list[int] = []
        self.expelled: set[int] = set()
        self.archive: dict[int, RoundArchive] = {}
        self.last_participation: int | None = None

    @property
    def secrets(self) -> list[bytes]:
        """The N pair secrets K_ij, in client order, derived on first use."""
        if not self._secrets:
            self._secrets[:] = [
                dh.shared_secret(self.key, client_key)
                for client_key in self.definition.client_keys
            ]
        return self._secrets

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def learn_schedule(self, shuffled_elements: list[int]) -> None:
        """Record the slot → pseudonym key mapping from the key shuffle.

        Set-up's last step for a server, so it derives the pair secrets
        here: a restore installs them instead and does no key agreement.
        """
        if len(shuffled_elements) != self.definition.num_clients:
            raise ProtocolError("schedule length does not match client count")
        self.slot_keys = list(shuffled_elements)
        self.secrets  # derived here, inside set-up

    # ------------------------------------------------------------------
    # Phase 1: submission collection
    # ------------------------------------------------------------------

    def open_round(self, round_number: int) -> RoundState:
        """Begin collecting ciphertexts for a new round; returns its state.

        The round's layout is the scheduler's current one.  The windowed
        ``DissentSession`` opens rounds ``r+1 .. r+W-1`` before round ``r``
        finishes, so it validates that assumption when earlier rounds
        complete and drains if the schedule actually changed.
        """
        return RoundState(
            round_number=round_number, layout=self.scheduler.current_layout()
        )

    def accept_ciphertexts(
        self, state: RoundState, envelopes: list[SignedEnvelope]
    ) -> list[bool]:
        """Validate and store a batch of client submissions for ``state``.

        Structural screening (type, round, group id, sender, body length)
        is per envelope and costs no crypto; the surviving
        signatures are then checked with **one** multi-exponentiation
        (:func:`repro.net.message.batch_verify_envelopes`), walking the
        tables this server pinned for its clients' long-term keys.  A
        failing batch bisects to the exact forged envelopes, so the
        accept/reject vector is bit-identical to verifying each submission
        individually.
        """
        verdicts = [False] * len(envelopes)
        # (envelope position, client)
        candidates: list[tuple[int, int]] = []
        for position, envelope in enumerate(envelopes):
            if envelope.msg_type != CLIENT_CIPHERTEXT:
                continue
            if envelope.round_number != state.round_number:
                continue
            if envelope.group_id != self.group_id:
                continue
            client_index = self._client_index(envelope.sender)
            if client_index is None or client_index in self.expelled:
                continue
            if len(envelope.body) != state.layout.total_bytes:
                continue
            candidates.append((position, client_index))
        items = [
            (envelopes[position], self.definition.client_keys[client_index])
            for position, client_index in candidates
        ]
        invalid = set(batch_verify_envelopes(items))
        for slot, (position, client_index) in enumerate(candidates):
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

    def make_inventory(self, state: RoundState) -> SignedEnvelope:
        """Broadcast the sorted list of clients heard from."""
        from repro.net.wire import encode_int_list

        body = encode_int_list(sorted(state.received))
        return make_envelope(
            self.key,
            SERVER_INVENTORY,
            self.name,
            self.group_id,
            state.round_number,
            body,
        )

    def receive_inventories(
        self, state: RoundState, envelopes: list[SignedEnvelope]
    ) -> int:
        """Digest all inventories; returns the composite participation |l|.

        Deduplication rule (deterministic on every server): a client that
        submitted to several servers is assigned to the lowest-indexed
        server that heard from it; only that server XORs the client's
        ciphertext into its own.  An inventory lists client indices once
        each, in ascending order, as :meth:`make_inventory` writes them.
        """
        from repro.net.wire import decode_int_list

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
            listed = decode_int_list(envelope.body)
            if list(listed) != sorted(set(listed)) or (
                listed and listed[-1] >= self.definition.num_clients
            ):
                raise ProtocolError(
                    f"inventory of server {server_index} lists clients "
                    f"{list(listed)}: not once each, in order, in range"
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

        Peer long-term keys recur every round, so they walk the tables
        pinned at construction.  A failing batch bisects to the forging
        peers and raises naming them — identical verdicts to per-envelope
        checks.
        """
        require_envelopes_valid(
            [
                (envelope, self.definition.server_keys[j])
                for envelope, j in zip(envelopes, indices)
            ]
        )

    def participation_ok(self, state: RoundState) -> bool:
        """§3.7 floor: |l| >= alpha * (previous round's participation)."""
        if self.last_participation is None:
            return True
        return state.participation >= self.policy.alpha * self.last_participation

    # ------------------------------------------------------------------
    # Phase 3: commitment
    # ------------------------------------------------------------------

    def compute_ciphertext(self, state: RoundState) -> SignedEnvelope:
        """Form s_j and broadcast its commitment."""
        length = state.layout.total_bytes
        # A generator: one pad alive at a time, not all N (N x 500 KiB on
        # a bulk round), as ``DissentClient.produce_ciphertext`` does.
        secrets = self.secrets
        streams = (
            prng.pair_stream(secrets[i], state.round_number, length)
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
        return self._commit_envelope(state)

    def _commit_envelope(self, state: RoundState) -> SignedEnvelope:
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

    def receive_commitments(
        self, state: RoundState, envelopes: list[SignedEnvelope]
    ) -> None:
        """Store every server's commitment (must precede any reveal)."""
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

    def reveal_ciphertext(self, state: RoundState) -> SignedEnvelope:
        """Share s_j once every commitment is in hand."""
        return make_envelope(
            self.key,
            SERVER_REVEAL,
            self.name,
            self.group_id,
            state.round_number,
            state.own_ciphertext,
            digest=state.own_digest,
        )

    def receive_reveals(
        self, state: RoundState, envelopes: list[SignedEnvelope]
    ) -> bytes:
        """Verify reveals against commitments and combine the cleartext."""
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

    def sign_output(self, state: RoundState) -> Signature:
        """Certify the combined cleartext and participation count."""
        state.output_digest = output_digest(
            self.group_id, state.round_number, state.cleartext, state.participation
        )
        return schnorr_sign(self.key, state.output_digest)

    def signature_envelope(self, state: RoundState) -> SignedEnvelope:
        """Envelope entry point for the certification phase.

        Networked peers exchange output signatures as ``server-signature``
        envelopes; the body is the bare :meth:`sign_output` signature, so
        the certified digest check in :meth:`assemble_output` is unchanged.
        """
        from repro.net.wire import encode_signature_body

        signature = self.sign_output(state)
        return make_envelope(
            self.key,
            SERVER_SIGNATURE,
            self.name,
            self.group_id,
            state.round_number,
            encode_signature_body(self.group, signature),
        )

    def receive_signature_envelopes(
        self, state: RoundState, envelopes: list[SignedEnvelope]
    ) -> RoundOutput:
        """Assemble the round output from peer ``server-signature`` envelopes.

        Envelopes are screened structurally (type, round, one per server),
        then their embedded signatures feed :meth:`assemble_output`, whose
        batched digest verification is the real authenticity check — so the
        output is bit-identical to the in-process signature exchange.
        """
        from repro.net.wire import decode_signature_body

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
        return self.assemble_output(
            state, [sig for sig in signatures if sig is not None]
        )

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

    def assemble_output(
        self, state: RoundState, signatures: list[Signature]
    ) -> RoundOutput:
        """Collect all server signatures into a certified round output."""
        if len(signatures) != self.definition.num_servers:
            raise ProtocolError("need exactly one signature per server")
        # All M output signatures cover the digest we signed: one multi-exp.
        if not schnorr.batch_verify(
            [
                (server_key, state.output_digest, signature)
                for server_key, signature in zip(
                    self.definition.server_keys, signatures
                )
            ]
        ):
            raise ProtocolError("peer server signature on output invalid")
        return RoundOutput(
            round_number=state.round_number,
            cleartext=state.cleartext,
            participation=state.participation,
            signatures=tuple(signatures),
        )

    def finish_round(
        self, state: RoundState, output: RoundOutput
    ) -> list[SlotContent]:
        """Archive the certified round, advance scheduling, return decoded
        slots.  The scheduler advances once per round output, so the caller
        finishes rounds oldest first."""
        self.archive[state.round_number] = RoundArchive(
            round_number=state.round_number,
            layout=state.layout,
            final_list=state.final_list,
            assignment=dict(state.assignment),
            received_envelopes=dict(state.received),
            server_ciphertexts=[
                state.reveals[j] for j in range(self.definition.num_servers)
            ],
            participation=output.participation,
        )
        self._trim_archive()
        self.last_participation = output.participation
        return self.scheduler.advance(output.cleartext)

    def abandon_round(self, state: RoundState) -> None:
        """§3.7 hard timeout: discard the round, publish a fresh basis."""
        self.last_participation = state.participation

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
        self._pin.release(self.definition.client_keys[client_index].y)

    def trace_disclosure(self, round_number: int, bit_index: int) -> TraceDisclosure:
        """Reveal our pair-stream bits and held evidence for a witness bit.

        An honest server computes the true PRNG bits; adversarial
        subclasses override this to model equivocation.
        """
        archive = self.archive.get(round_number)
        if archive is None:
            raise ProtocolError(f"round {round_number} not in archive")
        secrets = self.secrets
        pair_bits = {
            i: prng.pair_stream_bit(secrets[i], round_number, bit_index)
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

"""The Dissent client protocol (paper Algorithm 1).

A client's life cycle:

1. **Scheduling** — create a fresh pseudonym key pair, submit the public
   element through the verifiable key shuffle, and locate its own key in
   the shuffled output to learn its secret slot index pi(i).
2. **Submission** — each round, place its own request bit and slot
   content in the cleartext vector ``m_i`` (zeros elsewhere), XOR the M
   pair streams ``PRNG(K_ij)`` over it, sign the result, and hand it to an
   upstream server.
3. **Output** — verify all M server signatures on the round output, decode
   every open slot, detect disruption of its own slot, and evolve the slot
   schedule exactly as every other node does.

A client keeps no delivery history.  Every client applies every certified
output, so what was delivered is a function of the certified records: the
session keeps that log once
(:attr:`repro.core.coordinator.Coordinator.delivered`), and a client keeps
only the state its next round needs — its slot schedule, its outbox and
its own sent records.

The client also implements the two anti-DoS behaviours of §3.8-3.9:
randomized request-bit retry when an adversary cancels its slot-open
request, and the shuffle-request trigger plus signed accusation once a
witness bit proves disruption.
"""

from __future__ import annotations

import itertools
import random
import weakref
from collections import deque
from dataclasses import dataclass

from repro.core.accusation import Accusation, make_accusation
from repro.core.config import GroupDefinition
from repro.core.rounds import RoundOutput, output_digest
from repro.core.schedule import (
    LENGTH_FIELD_BYTES,
    Scheduler,
    SlotContent,
    encode_slot,
)
from repro.crypto import dh, prng, shuffle
from repro.crypto.keys import PrivateKey, PublicKey
from repro.crypto import schnorr
from repro.crypto.shuffle import CipherVector
from repro.errors import InvalidSignature, ProtocolError
from repro.net.message import (
    CLIENT_CIPHERTEXT,
    ROUND_OUTPUT,
    SignedEnvelope,
    make_envelope,
)
from repro.util.bytesops import Placed, xor_many

#: In-slot message framing: 2-byte length prefix per message, zero sentinel.
_FRAME_LEN_BYTES = 2

#: Largest capacity a slot header's length field can request for next round.
_MAX_REQUESTABLE_CAPACITY = (1 << (8 * LENGTH_FIELD_BYTES)) - 1


def frame_messages(messages: list[bytes], capacity: int) -> tuple[bytes, list[bytes]]:
    """Pack as many queued messages as fit into one slot payload.

    Returns (payload, leftovers).  Each message is framed as a 2-byte
    length followed by its bytes; a zero length (or the zero fill) ends
    the sequence on the read side.
    """
    packed = bytearray()
    leftovers: list[bytes] = []
    for index, message in enumerate(messages):
        needed = _FRAME_LEN_BYTES + len(message)
        if len(packed) + needed > capacity or not message:
            leftovers.extend(messages[index:])
            break
        packed += len(message).to_bytes(_FRAME_LEN_BYTES, "big")
        packed += message
    return bytes(packed), leftovers


def unframe_messages(payload: bytes) -> list[bytes]:
    """Invert :func:`frame_messages` on a decoded slot payload."""
    messages: list[bytes] = []
    offset = 0
    while offset + _FRAME_LEN_BYTES <= len(payload):
        length = int.from_bytes(payload[offset : offset + _FRAME_LEN_BYTES], "big")
        if length == 0:
            break
        start = offset + _FRAME_LEN_BYTES
        if start + length > len(payload):
            break  # truncated frame: treat as end of stream
        messages.append(payload[start : start + length])
        offset = start + length
    return messages


@dataclass
class _SentRecord:
    """What this client transmitted in its own slot for one round."""

    slot_bytes: bytes
    slot_bit_start: int
    payload_messages: list[bytes]

    def observed(self, cleartext: bytes) -> bytes:
        """Our slot's bytes as they came out in a round's cleartext."""
        start = self.slot_bit_start // 8
        return cleartext[start : start + len(self.slot_bytes)]

    def arrived(self, output: RoundOutput) -> bool:
        """Whether a round's output carries our slot bytes intact."""
        return self.observed(output.cleartext) == self.slot_bytes


class DissentClient:
    """One client node (Algorithm 1).

    Args:
        definition: the static group definition.
        index: this client's position in the definition's client list.
        key: the client's long-term private key (matches the definition).
        rng: deterministic randomness source for tests; production uses a
            fresh :class:`random.SystemRandom`-equivalent via ``None``.
        min_participation: optional "strength in numbers" floor (§3.7) —
            while the last published participation count is below this, the
            client sends only null messages.
    """

    def __init__(
        self,
        definition: GroupDefinition,
        index: int,
        key: PrivateKey,
        rng: random.Random | None = None,
        min_participation: int = 0,
    ) -> None:
        if key.y != definition.client_keys[index].y:
            raise ProtocolError("client key does not match the group definition")
        self.definition = definition
        self.index = index
        self.key = key
        self.rng = rng if rng is not None else random.Random()
        self.min_participation = min_participation
        self.name = definition.client_name(index)
        self.group = definition.group
        self.group_id = definition.group_id()
        self.policy = definition.policy
        # A client walks the M server keys every round (output signatures)
        # and once each for its DH secrets at set-up, under the pin.
        self._pin = self.group.pin(key.y for key in definition.server_keys)
        # K_ij with each server, in server order: derived on first use
        # (set-up's learn_schedule) or installed by a restore.  Filled in
        # place, so the finalizer drops whatever this client ends up
        # holding: the pin dies with the client, its pad states with it.
        self._secrets: list[bytes] = []
        weakref.finalize(self, prng.forget_pair_states, self._secrets)
        self.scheduler = Scheduler(definition.num_clients, definition.policy)
        self.pseudonym: PrivateKey | None = None
        self.slot: int | None = None
        self.slot_keys: list[int] = []
        self.outbox: deque[bytes] = deque()
        self.last_participation: int | None = None
        # request-bit retry state (§3.8)
        self._request_attempted = False
        # disruption state (§3.9)
        self._sent: dict[int, _SentRecord] = {}
        #: Hybrid mode only: round -> what we put in our slot (None: nothing),
        #: kept for every archived round so a corrupted one can be replayed.
        self.sent_history: dict[int, _SentRecord | None] = {}
        self.pending_accusation: Accusation | None = None
        self._accusation_submitted = False
        self.disruption_detected = False

    @property
    def secrets(self) -> list[bytes]:
        """The M pair secrets K_ij, in server order, derived on first use."""
        if not self._secrets:
            self._secrets[:] = [
                dh.shared_secret(self.key, server_key)
                for server_key in self.definition.server_keys
            ]
        return self._secrets

    def snapshot_state(self) -> dict:
        """Capture the mutable round state (pipeline checkpointing).

        The windowed :class:`~repro.core.session.DissentSession` rolls a
        client back to a pre-build checkpoint when a drain invalidates
        speculative rounds.  Containers are
        copied shallowly — their elements (bytes, tuples,
        :class:`_SentRecord` instances) are never mutated in place, only
        replaced — and the RNG state is captured so a replayed build draws
        the exact values the discarded speculative build consumed.
        Long-lived identity (keys, slot, definition) is deliberately
        excluded.
        """
        return {
            "scheduler": self.scheduler.clone(),
            "outbox": tuple(self.outbox),
            "last_participation": self.last_participation,
            "_request_attempted": self._request_attempted,
            "_sent": dict(self._sent),
            "sent_history": dict(self.sent_history),
            "pending_accusation": self.pending_accusation,
            "_accusation_submitted": self._accusation_submitted,
            "disruption_detected": self.disruption_detected,
            "rng_state": self.rng.getstate(),
        }

    def restore_state(self, snapshot: dict) -> None:
        """Adopt a snapshot taken by :meth:`snapshot_state` (consumed:
        a snapshot must not be restored twice)."""
        self.scheduler = snapshot["scheduler"]
        self.outbox = deque(snapshot["outbox"])
        self.last_participation = snapshot["last_participation"]
        self._request_attempted = snapshot["_request_attempted"]
        self._sent = snapshot["_sent"]
        self.sent_history = snapshot["sent_history"]
        self.pending_accusation = snapshot["pending_accusation"]
        self._accusation_submitted = snapshot["_accusation_submitted"]
        self.disruption_detected = snapshot["disruption_detected"]
        self.rng.setstate(snapshot["rng_state"])

    # ------------------------------------------------------------------
    # Scheduling phase
    # ------------------------------------------------------------------

    def make_scheduling_submission(
        self, shuffle_server_publics: list
    ) -> CipherVector:
        """Create a fresh pseudonym and wrap its public element for the mix."""
        self.pseudonym = PrivateKey.generate(self.group, self.rng)
        return shuffle.prepare_element_input(
            shuffle_server_publics, self.pseudonym.y, self.rng
        )

    def signed_scheduling_submission(
        self, shuffle_server_publics: list, purpose: bytes
    ) -> SignedEnvelope:
        """Our shuffle input wrapped in a signed envelope.

        Signing makes a malformed submission attributable before the
        cascade runs; servers batch-verify all N submission signatures
        with one multi-exponentiation
        (:func:`repro.core.keyshuffle.open_shuffle_submissions`).  The
        signed body embeds the run id derived from the servers' ephemeral
        mix keys, so the envelope cannot be replayed into a later session.
        """
        from repro.core.keyshuffle import shuffle_run_id, sign_shuffle_submission

        vector = self.make_scheduling_submission(shuffle_server_publics)
        return sign_shuffle_submission(
            self.key,
            self.name,
            self.group_id,
            self.group,
            vector,
            shuffle_run_id(purpose, shuffle_server_publics),
        )

    def learn_schedule(self, shuffled_elements: list[int]) -> int:
        """Locate our pseudonym in the shuffled output; returns slot index.

        Set-up's last step for a client, so it derives the pair secrets
        here: a restore installs them instead and does no key agreement.
        """
        if self.pseudonym is None:
            raise ProtocolError("learn_schedule before make_scheduling_submission")
        if len(shuffled_elements) != self.definition.num_clients:
            raise ProtocolError("schedule length does not match client count")
        try:
            self.slot = shuffled_elements.index(self.pseudonym.y)
        except ValueError:
            raise ProtocolError(
                "our pseudonym key is missing from the shuffled schedule"
            ) from None
        self.slot_keys = list(shuffled_elements)
        self.secrets  # derived here, inside set-up
        return self.slot

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------

    def queue_message(self, message: bytes) -> None:
        """Queue an anonymous message for transmission in our slot."""
        if not message:
            raise ProtocolError("cannot queue an empty message")
        if self.policy.dcnet_mode == "verifiable":
            from repro.verdict.session import slot_width

            # A verifiable round carries one message, unframed.
            limit = slot_width(self.definition) * self.group.message_bytes
            why = "a verifiable slot's chunks"
        else:
            # A message travels in one slot, so the slot must be
            # requestable: admitting more would wedge the outbox (every
            # later round fails to encode the capacity wish and the
            # message never leaves).
            limit = (
                min(self.policy.max_slot_payload, _MAX_REQUESTABLE_CAPACITY)
                - _FRAME_LEN_BYTES
            )
            why = (
                f"slot payload cap {self.policy.max_slot_payload}, "
                f"{LENGTH_FIELD_BYTES}-byte slot length field"
            )
        if len(message) > limit:
            raise ProtocolError(
                f"message of {len(message)} bytes exceeds the largest "
                f"encodable message ({limit} bytes: {why})"
            )
        self.outbox.append(message)

    @property
    def has_pending_traffic(self) -> bool:
        return bool(self.outbox)

    # ------------------------------------------------------------------
    # Submission phase (Algorithm 1, step 2)
    # ------------------------------------------------------------------

    def _passive_only(self) -> bool:
        """§3.7: stay silent while participation is below our threshold."""
        if self.min_participation <= 0 or self.last_participation is None:
            return False
        return self.last_participation < self.min_participation

    def _wants_slot_open(self) -> bool:
        return bool(self.outbox) and not self._passive_only()

    def _request_bit_value(self) -> int:
        """Deterministic 1 on first attempt, then random retry (§3.8)."""
        if not self._request_attempted:
            self._request_attempted = True
            return 1
        return self.rng.getrandbits(1)

    def build_cleartext(self, round_number: int) -> bytes:
        """Our message vector m_i: zeros except request bit + slot content.

        The materialised view of :meth:`message_pieces`, which is what
        :meth:`produce_ciphertext` masks.
        """
        length, pieces = self.message_pieces(round_number)
        return xor_many(pieces, length=length)

    def message_pieces(self, round_number: int) -> tuple[int, list[Placed]]:
        """Our message vector m_i in sparse form: its length, and the
        ``(offset, bytes)`` pieces placed in it — the request bit's byte or
        the slot content, if either is set.  Everything else is zero.

        Draws this round's randomness and records what was sent, so it is
        called once per round.
        """
        layout = self.scheduler.current_layout()
        length = layout.total_bytes
        if self.slot is None:
            return length, []

        slot_open = layout.is_open(self.slot)
        if not slot_open:
            self._sent.pop(round_number, None)
            if self._wants_slot_open() and self._request_bit_value():
                bit = layout.request_bit_index(self.slot)
                return length, [(bit // 8, bytes((0x80 >> (bit % 8),)))]
            return length, []

        self._request_attempted = False
        capacity = layout.capacities[self.slot]
        queued = list(self.outbox) if not self._passive_only() else []
        payload, leftovers = frame_messages(queued, capacity)
        sent_messages = queued[: len(queued) - len(leftovers)]

        requested = self._next_capacity_wish(leftovers, capacity)
        shuffle_request = 0
        if self.pending_accusation is not None and not self._accusation_submitted:
            mask = (1 << self.policy.shuffle_request_bits) - 1
            shuffle_request = 0
            while shuffle_request == 0:
                shuffle_request = self.rng.getrandbits(
                    self.policy.shuffle_request_bits
                ) & mask

        if not payload and shuffle_request == 0 and requested == capacity:
            # Nothing to say: a null (all-zero) slot costs nothing to build
            # and is how silent participation looks on the wire.
            self._sent.pop(round_number, None)
            return length, []

        slot_bytes = encode_slot(
            layout,
            self.policy,
            self.slot,
            payload,
            requested_length=requested,
            shuffle_request=shuffle_request,
            pad_seed=self.rng.randbytes(16),
        )
        start, _ = layout.slot_byte_range(self.slot)
        self._sent[round_number] = _SentRecord(
            slot_bytes=slot_bytes,
            slot_bit_start=8 * start,
            payload_messages=sent_messages,
        )
        return length, [(start, slot_bytes)]

    def _next_capacity_wish(self, leftovers: list[bytes], capacity: int) -> int:
        """Length-field value: grow for queued traffic, shrink when idle."""
        if leftovers:
            needed = _FRAME_LEN_BYTES + len(leftovers[0])
            wish = max(capacity, needed)
        elif self.outbox:
            wish = capacity
        else:
            wish = min(capacity, self.policy.initial_slot_payload)
        return min(wish, self.policy.max_slot_payload)

    def produce_ciphertext(self, round_number: int) -> SignedEnvelope:
        """Algorithm 1 step 2: mask our cleartext with all M pair streams.

        Only the placed pieces of the cleartext are XORed in, so the
        mostly-zero round-length vector is never built or converted; the
        M pads are the only round-length operands.
        """
        length, pieces = self.message_pieces(round_number)
        if self.policy.dcnet_mode == "hybrid":
            # _sent is popped when the output arrives; blame needs it later.
            self.sent_history[round_number] = self._sent.get(round_number)
        streams = (
            prng.pair_stream(secret, round_number, length) for secret in self.secrets
        )
        ciphertext = xor_many(itertools.chain(pieces, streams), length=length)
        return make_envelope(
            self.key,
            CLIENT_CIPHERTEXT,
            self.name,
            self.group_id,
            round_number,
            ciphertext,
        )

    # ------------------------------------------------------------------
    # Output phase (Algorithm 1, step 3)
    # ------------------------------------------------------------------

    def verify_output(self, output: RoundOutput) -> None:
        """Check all M server signatures before trusting a round output.

        Algorithm 1 step 3, once per client.  The server keys are this
        client's hottest recurring bases, pinned at construction, so the
        set goes through :func:`repro.crypto.schnorr.batch_verify` on their
        fixed-base tables: M equations one at a time up to the backend's
        ``hot_batch_max`` servers (3 on modp, any number on ec25519), one
        multi-exponentiation above.  The first client a process hosts
        pays for that; the clients beside it submit the same M signatures
        and are answered by the accepted-signature memo.  Verdicts are
        identical to checking each signature individually.
        """
        if len(output.signatures) != self.definition.num_servers:
            raise InvalidSignature("round output must carry one signature per server")
        digest = output_digest(
            self.group_id, output.round_number, output.cleartext, output.participation
        )
        if not schnorr.batch_verify(
            [
                (server_key, digest, signature)
                for server_key, signature in zip(
                    self.definition.server_keys, output.signatures
                )
            ]
        ):
            raise InvalidSignature("server signature on round output invalid")

    def handle_output(self, output: RoundOutput) -> list[SlotContent]:
        """Digest a certified round output; returns decoded slot contents.

        The contents are returned, not kept: the messages in them are the
        session's delivery log, which every client would hold identically.
        """
        self.verify_output(output)
        self.last_participation = output.participation
        self._check_own_slot(output)
        return self.scheduler.advance(output.cleartext)

    def handle_output_envelope(self, envelope: SignedEnvelope) -> list[SlotContent]:
        """Envelope entry point for the output phase (networked mode).

        The upstream server broadcasts the certified output as a signed
        ``round-output`` envelope; we authenticate the carrier before
        decoding, then :meth:`handle_output` re-verifies all M output
        signatures — behaviour from here on is bit-identical to receiving
        the :class:`RoundOutput` object directly.  Clients attached to the
        same server receive the same carrier; co-hosted, the first one's
        check of it is remembered (:mod:`repro.crypto.schnorr`) and the
        rest hash the body they decoded and find it accepted.
        """
        from repro.net.wire import decode_round_output_body

        if envelope.msg_type != ROUND_OUTPUT:
            raise ProtocolError("not a round-output envelope")
        if envelope.group_id != self.group_id:
            raise ProtocolError("round output for a different group")
        sender_index = self.definition.server_index_of(envelope.sender)
        envelope.verify(self.definition.server_keys[sender_index])
        output = decode_round_output_body(self.group, envelope.body)
        if output.round_number != envelope.round_number:
            raise ProtocolError("round-output envelope round number mismatch")
        return self.handle_output(output)

    def speculate_delivery(self, round_number: int) -> _SentRecord | None:
        """Confirm an in-flight round's own-slot delivery ahead of its output.

        The round loop builds round ``r+1`` before round ``r``'s output
        exists, so it takes the confirmed-delivery branch of
        :meth:`_check_own_slot` early and returns the sent record; the
        loop checks it against the real output (:meth:`_SentRecord.arrived`)
        and, on a mismatch, restores the snapshot it took before this
        call.  A later :meth:`handle_output` for the round finds no sent
        record and confirms nothing twice.
        """
        record = self._sent.pop(round_number, None)
        if record is not None:
            self._confirm_delivery(record)
        return record

    def handle_round_failure(self, round_number: int, participation: int) -> None:
        """A round was abandoned (§3.7 hard timeout): fresh basis.  Its
        messages are resent, as they leave the outbox only once delivered."""
        self._sent.pop(round_number, None)
        self.last_participation = participation

    def _check_own_slot(self, output: RoundOutput) -> None:
        """Disruption detection + delivery confirmation for our own slot."""
        record = self._sent.pop(output.round_number, None)
        if record is None:
            return
        if record.arrived(output):
            self._confirm_delivery(record)
            return
        # Slot corrupted: always retransmit the affected messages.
        self.disruption_detected = True
        witness = self._find_witness_bit(record, record.observed(output.cleartext))
        if witness is not None and self.pending_accusation is None:
            assert self.pseudonym is not None and self.slot is not None
            self.pending_accusation = make_accusation(
                self.pseudonym,
                self.group,
                round_number=output.round_number,
                slot_index=self.slot,
                bit_index=witness,
            )

    def _confirm_delivery(self, record: _SentRecord) -> None:
        """Our slot arrived intact: drop the confirmed messages from the
        queue; an accusation request it carried went through."""
        for message in record.payload_messages:
            if self.outbox and self.outbox[0] == message:
                self.outbox.popleft()
        if self._accusation_submitted:
            self.pending_accusation = None
            self._accusation_submitted = False

    @staticmethod
    def _find_witness_bit(record: _SentRecord, observed: bytes) -> int | None:
        """First bit we sent as 0 that came out 1 (§3.9 witness bit).

        One integer pass, as :func:`repro.util.bytesops.first_difference`
        does: the witnesses are the bits set in ``observed`` and clear in
        what we sent, and the first of them (MSB-first) is the highest.
        """
        sent = record.slot_bytes
        if len(observed) != len(sent):
            return None
        witnesses = int.from_bytes(observed, "big") & ~int.from_bytes(sent, "big")
        if not witnesses:
            return None
        return record.slot_bit_start + 8 * len(sent) - witnesses.bit_length()

    # ------------------------------------------------------------------
    # Accusation shuffle participation (§3.9)
    # ------------------------------------------------------------------

    def accusation_submission(
        self, shuffle_server_publics: list, width: int
    ) -> CipherVector:
        """Our entry for an accusation shuffle: real accusation or cover.

        Every client submits so the accuser hides among all N clients; the
        empty message is the cover.
        """
        if self.pending_accusation is not None:
            body = self.pending_accusation.to_bytes(self.group)
            self._accusation_submitted = True
        else:
            body = b""
        return shuffle.prepare_message_input(
            shuffle_server_publics, body, width, self.rng
        )

    def accusation_outcome(self, handled: bool) -> None:
        """Server-side tracing finished; clear or retry our accusation."""
        if handled:
            self.pending_accusation = None
        self._accusation_submitted = False

    def reset_accusation(self) -> None:
        """Drop any pending accusation and its submission state.

        Public entry point for blame paths that supersede the §3.9
        accusation shuffle (hybrid mode's verifiable replay): once the
        disruptor is named by other means, no shuffle request should ride
        the next round's cleartext.
        """
        self.pending_accusation = None
        self._accusation_submitted = False

    def verifiable_submission(
        self,
        round_number: int,
        slot_index: int,
        slot_key_element: int,
        width: int,
        session_id: bytes,
        combined_key: PublicKey,
    ):
        """Our proven contribution to a verifiable round serving
        ``slot_index`` (:mod:`repro.verdict.session`): the outbox head in
        our own slot, which :meth:`queue_message` keeps within ``width``
        chunks, and cover in every other."""
        payload = None
        if slot_index == self.slot and self.outbox:
            payload = self.outbox[0]
        return self._proven_contribution(
            round_number,
            slot_index,
            slot_key_element,
            width,
            session_id,
            combined_key,
            payload,
        )

    def verifiable_delivery(self, slot_index: int, output: RoundOutput) -> None:
        """A verifiable round's signed output opened ``slot_index``: if that
        is our slot and it carries our outbox head, it was delivered."""
        self.verify_output(output)
        own = slot_index == self.slot and self.outbox
        if own and output.cleartext == self.outbox[0]:
            self.outbox.popleft()

    def replay_submission(
        self,
        round_number: int,
        slot_index: int,
        slot_key_element: int,
        width: int,
        session_id: bytes,
        combined_key: PublicKey,
        chunk_start: int = 0,
    ):
        """Verifiably re-assert part of this client's slot contribution.

        Hybrid mode's blame path (:mod:`repro.verdict.hybrid`): the
        contribution is the one recorded in :attr:`sent_history`, or
        nothing for another client's slot.  ``chunk_start``/``width``
        select the chunk span being replayed; the blame path opens a
        corrupted slot chunk by chunk and stops at the first witness, so
        most replays never cover the whole slot.
        """
        payload = None
        record = self.sent_history.get(round_number)
        if slot_index == self.slot and record is not None:
            size = self.group.message_bytes
            payload = record.slot_bytes[
                chunk_start * size : (chunk_start + width) * size
            ]
        return self._proven_contribution(
            round_number,
            slot_index,
            slot_key_element,
            width,
            session_id,
            combined_key,
            payload,
            chunk_start,
        )

    def _proven_contribution(
        self,
        round_number: int,
        slot_index: int,
        slot_key_element: int,
        width: int,
        session_id: bytes,
        combined_key: PublicKey,
        payload: bytes | None,
        chunk_start: int = 0,
    ):
        """ElGamal chunks of ``payload``, proven under our pseudonym, or of
        cover (``payload`` None), proven as encrypting the identity."""
        from repro.verdict.ciphertext import make_client_ciphertext

        return make_client_ciphertext(
            self.group,
            combined_key,
            slot_key_element,
            self.index,
            session_id,
            round_number,
            slot_index,
            width,
            payload=payload,
            slot_private=None if payload is None else self.pseudonym,
            rng=self.rng,
            chunk_start=chunk_start,
        )

    # ------------------------------------------------------------------
    # Rebuttal (§3.9, trace case c)
    # ------------------------------------------------------------------

    def rebut(
        self, round_number: int, bit_index: int, claimed: dict[int, int]
    ):
        """Answer a trace mismatch by exposing the server that lied.

        An honest client recomputes its true pair-stream bits; any server
        whose claim differs is the equivocator, and revealing the shared DH
        element (with a DLEQ proof) convicts it.  Returns None when every
        claim is true — which, for an honest client, cannot happen at a bit
        it did not send.
        """
        from repro.core.accusation import make_rebuttal

        for server_index, claimed_bit in sorted(claimed.items()):
            true_bit = prng.pair_stream_bit(
                self.secrets[server_index], round_number, bit_index
            )
            if true_bit != (claimed_bit & 1):
                return make_rebuttal(
                    self.key,
                    self.definition.server_keys[server_index],
                    server_index,
                )
        return None

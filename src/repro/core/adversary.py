"""Adversarial node implementations for testing and the accusation demo.

The accusation mechanism only earns its keep against real misbehaviour, so
the test suite runs these byzantine variants inside otherwise-honest
sessions and asserts that tracing convicts exactly the guilty party:

* :class:`DisruptorClient` — XORs extra bits into a victim's slot
  (the classic anonymous jamming attack DC-nets are vulnerable to).
* :class:`RequestJammerClient` — sets a victim's request bit to cancel
  slot-open requests (§3.8's attack).
* :class:`DisruptingServer` — flips bits of its server ciphertext after
  committing (caught by trace case (b)).
* :class:`EquivocatingServer` — lies about a client's pair-stream bit
  during tracing (exposed by the client's DLEQ rebuttal).
* :class:`WithholdingServer` — refuses to produce the signed client
  evidence it owes during tracing (caught by trace case (a)).

Consensus-layer (control-plane) adversaries, driven through the same
chaos harness in all three transport modes:

* :class:`EquivocatingLeader` — signs two conflicting proposals when it
  holds the leadership (convicted by a transferable equivocation proof
  and expelled from the rotation).
* :class:`StallingLeader` — proposes nothing when it leads (the view
  timer rotates leadership past it).
* :class:`VoteWithholdingServer` — never votes (the barrier timer falls
  back to a majority certificate whose absent signature names it).
* :class:`VoteForgingServer` — votes with a signature that does not
  verify (the coordinator strips it; the honest quorum still commits).

All adversaries are module-level classes taking keyword knobs on top of
the honest constructor, so the subprocess transport can respawn them
from a ``"module:Class"`` spec.
"""

from __future__ import annotations

import dataclasses

from repro.core.accusation import TraceDisclosure
from repro.core.client import DissentClient
from repro.core.server import DissentServer
from repro.crypto.schnorr import Signature
from repro.errors import ProtocolError
from repro.net.message import CLIENT_CIPHERTEXT, SignedEnvelope, make_envelope
from repro.util.bytesops import flip_bit


class DisruptorClient(DissentClient):
    """A client that jams another slot by flipping ciphertext bits.

    Flipping bit k of its own *ciphertext* flips bit k of the round output
    (XOR is linear), corrupting whoever owns that position — anonymously,
    until the accusation process runs.

    Attributes:
        target_slot: slot index to disrupt; None disables disruption.
        flips_per_round: how many bits to flip inside the target slot.
    """

    def __init__(self, *args, target_slot: int | None = None, flips_per_round: int = 1, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.target_slot = target_slot
        self.flips_per_round = flips_per_round
        self.flipped_bits: dict[int, list[int]] = {}

    def produce_ciphertext(self, round_number: int) -> SignedEnvelope:
        envelope = super().produce_ciphertext(round_number)
        layout = self.scheduler.current_layout()
        if self.target_slot is None or not layout.is_open(self.target_slot):
            return envelope
        start, end = layout.slot_bit_range(self.target_slot)
        body = envelope.body
        flipped: list[int] = []
        for n in range(self.flips_per_round):
            bit = self.rng.randrange(start, end)
            body = flip_bit(body, bit)
            flipped.append(bit)
        self.flipped_bits[round_number] = flipped
        # Re-sign: the disruptor is a legitimate member, so its tampered
        # ciphertext still carries a valid signature.
        return make_envelope(
            self.key,
            CLIENT_CIPHERTEXT,
            self.name,
            self.group_id,
            round_number,
            body,
        )


class RequestJammerClient(DissentClient):
    """A client that XORs a 1 into a victim's request bit (§3.8 attack)."""

    def __init__(self, *args, victim_slot: int | None = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.victim_slot = victim_slot

    def produce_ciphertext(self, round_number: int) -> SignedEnvelope:
        envelope = super().produce_ciphertext(round_number)
        layout = self.scheduler.current_layout()
        if self.victim_slot is None or layout.is_open(self.victim_slot):
            return envelope
        body = flip_bit(envelope.body, layout.request_bit_index(self.victim_slot))
        return make_envelope(
            self.key,
            CLIENT_CIPHERTEXT,
            self.name,
            self.group_id,
            round_number,
            body,
        )


class DisruptingServer(DissentServer):
    """A server that corrupts the round by tampering with its own s_j.

    It commits to the tampered ciphertext (so commitment verification
    passes) but its disclosed trace bits cannot explain the flipped
    position — trace case (b) convicts it.
    """

    def __init__(self, *args, target_slot: int | None = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.target_slot = target_slot
        self.flipped_bits: dict[int, int] = {}

    def compute_ciphertext(self, round_number: int | None = None) -> SignedEnvelope:
        state = self._resolve(round_number)
        layout = state.layout
        envelope = super().compute_ciphertext(round_number)
        if self.target_slot is None or not layout.is_open(self.target_slot):
            return envelope
        start, end = layout.slot_bit_range(self.target_slot)
        bit = self.rng.randrange(start, end)
        state.own_ciphertext = flip_bit(state.own_ciphertext, bit)
        self.flipped_bits[state.round_number] = bit
        return self._commit_envelope(state)


class EquivocatingServer(DissentServer):
    """A server that lies about one client's pair bit during tracing.

    Framing an honest client this way fails: the client's rebuttal reveals
    the true DH secret with a proof, convicting this server instead.
    """

    def __init__(self, *args, frame_client: int | None = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.frame_client = frame_client

    def trace_disclosure(self, round_number: int, bit_index: int) -> TraceDisclosure:
        disclosure = super().trace_disclosure(round_number, bit_index)
        if self.frame_client is None or self.frame_client not in disclosure.pair_bits:
            return disclosure
        lied = dict(disclosure.pair_bits)
        lied[self.frame_client] ^= 1
        return TraceDisclosure(
            server_index=disclosure.server_index,
            client_envelopes=disclosure.client_envelopes,
            pair_bits=lied,
        )


class WithholdingServer(DissentServer):
    """A server that withholds client evidence during tracing (case (a))."""

    def __init__(self, *args, withhold: bool = True, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.withhold = withhold

    def trace_disclosure(self, round_number: int, bit_index: int) -> TraceDisclosure:
        disclosure = super().trace_disclosure(round_number, bit_index)
        if not self.withhold:
            return disclosure
        return TraceDisclosure(
            server_index=disclosure.server_index,
            client_envelopes={},
            pair_bits=disclosure.pair_bits,
        )


class EquivocatingLeader(DissentServer):
    """A leader that signs two conflicting proposals for one round.

    The second proposal carries a digest for an output no honest server
    computed, so honest peers never vote for it — but both proposals are
    validly signed, which is exactly the transferable evidence that
    convicts this server and expels it from the rotation.  Equivocates
    once by default (``equivocate_once=True``); after conviction it is
    never asked to lead again, so the flag only matters for tests that
    re-run leadership manually.
    """

    def __init__(self, *args, equivocate_once: bool = True, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.equivocate_once = equivocate_once
        self.equivocated = False

    def propose_round(self, output, view: int = 0):
        from repro.consensus.certificate import output_body_digest
        from repro.net.message import LEADER_PROPOSE, make_envelope
        from repro.net.wire import encode_consensus_body

        proposals = super().propose_round(output, view=view)
        if self.equivocate_once and self.equivocated:
            return proposals
        self.equivocated = True
        import hashlib

        honest_digest = output_body_digest(self.group, output)
        forged_digest = hashlib.sha256(b"equivocation|" + honest_digest).digest()
        proposals.append(
            make_envelope(
                self.key,
                LEADER_PROPOSE,
                self.name,
                self.group_id,
                output.round_number,
                encode_consensus_body(view, forged_digest),
            )
        )
        return proposals


class StallingLeader(DissentServer):
    """A leader that goes silent at proposal time.

    Indistinguishable, to its peers, from a leader that crashed between
    assembling the output and proposing it — both are recovered by the
    same view change.  ``stall_once=True`` stalls only the first
    leadership (the deterministic trigger the consensus demo uses);
    ``False`` stalls every time this server leads.
    """

    def __init__(self, *args, stall_once: bool = False, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.stall_once = stall_once
        self.stalled = False

    def propose_round(self, output, view: int = 0):
        if self.stall_once and self.stalled:
            return super().propose_round(output, view=view)
        self.stalled = True
        return []


class VoteWithholdingServer(DissentServer):
    """A server that never votes on proposals.

    Cannot halt the session: past the barrier timer the leader commits a
    majority certificate, and the certificate's missing signature is
    attributable evidence of who sat out.
    """

    def __init__(self, *args, withhold_votes: bool = True, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.withhold_votes = withhold_votes

    def vote_on_proposal(self, proposal, output, view: int = 0):
        if self.withhold_votes:
            return None
        return super().vote_on_proposal(proposal, output, view=view)


class VoteForgingServer(DissentServer):
    """A server whose votes carry a corrupted signature.

    Engines record vote signatures unverified, so the forgery reaches
    every certificate; the coordinator's one authentication pass strips
    it, and the round commits on the honest quorum underneath — forging
    a vote buys exactly what withholding it does.
    """

    def vote_on_proposal(self, proposal, output, view: int = 0):
        vote = super().vote_on_proposal(proposal, output, view=view)
        if vote is None:
            return None
        forged = Signature(vote.signature.t, (vote.signature.s + 1) % self.group.q)
        return dataclasses.replace(vote, signature=forged)

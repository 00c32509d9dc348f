"""Verdict's hybrid mode: fast XOR rounds, verifiable retroactive blame.

Fully verifiable rounds (:mod:`repro.verdict.session`) pay public-key
crypto per chunk per member; the XOR pipeline pays hash-speed PRNG per
byte.  Verdict's hybrid mode keeps the cheap path hot and reserves the
expensive machinery for the (rare) disrupted round:

* **Fast path** — rounds are the *unmodified* XOR round of
  :class:`repro.core.session.DissentSession`, driven in lockstep or by
  :class:`repro.core.pipeline.PipelinedSession`: no extra message and no
  extra pad.  Nothing is committed beside a submission; a pair pad is
  one both its endpoints derive from their shared secret, and the
  witness-bit trace below, with its DLEQ rebuttals, is what holds a
  client (or a server) to it.

* **Disruption detection** — corruption is *publicly* visible: the
  randomized padding check (§3.9) fails for everyone decoding the slot,
  so no anonymous accusation is needed to establish *that* a round broke.

* **Verifiable replay** — the session replays the corrupted slot in
  verifiable mode against the archived round.  Every client that was in
  the round's final list re-submits its claimed slot-region contribution
  as ElGamal chunks with the disjunctive proof ("encrypts identity OR I
  hold the slot key").  A client that cannot prove its replay is named on
  the spot.  The surviving product opens to the slot's *true* bytes —
  publishing only what the owner already intended to broadcast.

* **Naming without the shuffle** — with the true bytes public, witness
  positions (sent 0, flipped to 1) are computable by anyone, so the
  existing trace machinery (:func:`repro.core.accusation.run_trace` with
  its signed-envelope evidence and DLEQ rebuttals) runs *directly* —
  skipping the §3.9 detour entirely: no shuffle-request field gamble, no
  accusation shuffle cascade, no pseudonym-signed accusation.  Owner
  anonymity is preserved exactly as in the paper's trace: at a witness
  position every honest client's cleartext bit is 0, owner included.

Time-to-blame therefore drops from

    detect → request (2^-k gamble) → accusation shuffle → trace

to

    detect → replay (N·W proven chunks) → trace

``tests/test_verdict.py`` asserts the second path runs no accusation
shuffle, and the end-to-end benchmark's ``blame-recover-inproc-12``
workload times the first (``benchmarks/e2e/README.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.accusation import TraceVerdict
from repro.core.adversary import DisruptorClient
from repro.core.client import DissentClient
from repro.core.rounds import RoundOutput, RoundRecord
from repro.core.schedule import RoundLayout, decode_slot
from repro.core.session import DissentSession
from repro.crypto import elgamal
from repro.crypto.hashing import sha256
from repro.crypto.keys import PublicKey
from repro.errors import CheckpointError, ProtocolError
from repro.persist.codec import decode_sent_records, encode_sent_records
from repro.util.bytesops import get_bit
from repro.verdict.ciphertext import chunk_count, make_client_ciphertext
from repro.verdict.session import VerdictServer, verifiable_round

_REPLAY_DOMAIN = b"dissent.verdict.hybrid-replay.v1"


class HybridClient(DissentClient):
    """A Dissent client that keeps the evidence hybrid blame needs.

    Behaviourally identical to :class:`DissentClient` on the wire (same
    randomness consumption, same ciphertexts — clean hybrid rounds are
    bit-for-bit the XOR fast path); additionally retains its sent slot
    records past output handling and can replay a round verifiably.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.sent_history: dict[int, object] = {}

    def snapshot_state(self) -> dict:
        snapshot = super().snapshot_state()
        snapshot["sent_history"] = dict(self.sent_history)
        return snapshot

    def restore_state(self, snapshot: dict) -> None:
        super().restore_state(snapshot)
        self.sent_history = snapshot["sent_history"]

    def message_pieces(self, round_number: int):
        placed = super().message_pieces(round_number)
        # _sent is popped when the output arrives; blame needs it later.
        self.sent_history[round_number] = self._sent.get(round_number)
        return placed

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

        ``chunk_start``/``width`` select the chunk span being replayed;
        the blame path opens a corrupted slot chunk by chunk and stops at
        the first witness, so most replays never cover the whole slot.
        """
        payload = None
        slot_private = None
        record = self.sent_history.get(round_number)
        if slot_index == self.slot and record is not None:
            size = self.group.message_bytes
            payload = record.slot_bytes[
                chunk_start * size : (chunk_start + width) * size
            ]
            slot_private = self.pseudonym
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
            slot_private=slot_private,
            rng=self.rng,
            chunk_start=chunk_start,
        )


class HybridDisruptorClient(DisruptorClient, HybridClient):
    """A hybrid-mode member that jams another slot (the §3.9 attack).

    :class:`repro.core.adversary.DisruptorClient` keeping hybrid evidence;
    during the verifiable replay it claims an all-zero contribution (an
    honestly proven identity encryption — lying about the *content* is the
    only move left), which the witness-bit trace then contradicts with its
    own signed ciphertext.
    """


@dataclass(frozen=True)
class HybridBlameRecord:
    """Outcome of one verifiable replay of a corrupted round.

    ``chunks_replayed`` of ``total_chunks`` were opened: the replay walks
    the corrupted slot chunk by chunk and stops at the first chunk
    containing a witness bit, so a disruption near the slot's start costs
    one chunk of proofs, not the whole slot.  ``true_slot_bytes`` holds
    the verified bytes of exactly the replayed prefix.
    """

    round_number: int
    slot_index: int
    status: str  # "blamed" | "no-witness" | "inconclusive"
    rejected_replays: tuple[int, ...]
    verdicts: tuple[TraceVerdict, ...]
    witness_bit: int | None
    true_slot_bytes: bytes
    chunks_replayed: int = 0
    total_chunks: int = 0

    @property
    def client_culprits(self) -> tuple[int, ...]:
        named = list(self.rejected_replays)
        named.extend(
            v.culprit_index for v in self.verdicts if v.culprit_kind == "client"
        )
        return tuple(sorted(set(named)))


class HybridSession(DissentSession):
    """A Dissent session in Verdict hybrid mode.

    Rounds are exactly the XOR fast path (same bytes, same signatures),
    driven by either in-process driver.  A corrupted round triggers a
    verifiable replay in :meth:`after_output` instead of the §3.9
    accusation shuffle; no record asks for :meth:`run_accusation_phase`.

    Blame-path work is counted on the session registry (call
    :meth:`enable_telemetry`): ``hybrid.{fast_rounds,corrupted_rounds}`` per
    round; per replay, ``hybrid.replay_proofs_checked`` (one per replayed
    chunk proof) and ``hybrid.replay_chunks_opened``.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.blames: list[HybridBlameRecord] = []

    def snapshot_state(self) -> dict:
        """The XOR session's durable state plus hybrid mode's blame evidence:
        each client's sent history."""
        snapshot = super().snapshot_state()
        snapshot["hybrid"] = {
            "sent_history": {
                str(i): encode_sent_records(client.sent_history)
                for i, client in enumerate(self.clients)
                if isinstance(client, HybridClient)
            },
        }
        return snapshot

    def restore_state(self, snapshot: dict) -> None:
        super().restore_state(snapshot)
        try:
            for i, records in snapshot["hybrid"]["sent_history"].items():
                self.clients[int(i)].sent_history = decode_sent_records(records)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint lacks hybrid blame evidence: {exc!r}"
            ) from exc

    @classmethod
    def build(
        cls,
        group_name: str | None = None,
        num_servers: int = 3,
        num_clients: int = 8,
        policy=None,
        seed: int | None = None,
        client_factory=HybridClient,
        server_factory=None,
    ) -> "HybridSession":
        from repro.core.server import DissentServer

        return super().build(
            group_name,
            num_servers,
            num_clients,
            policy,
            seed,
            client_factory=client_factory,
            server_factory=server_factory or DissentServer,
        )

    # ------------------------------------------------------------------
    # Detection: the step after each round's output
    # ------------------------------------------------------------------

    def replayed_slots(self, output: RoundOutput, layout: RoundLayout) -> list[int]:
        """The open slots whose padding check fails: everyone decoding the
        output sees the corruption, so no accusation is needed to say so."""
        policy = self.definition.policy
        return [
            slot
            for slot in range(layout.num_slots)
            if layout.is_open(slot)
            and decode_slot(layout, policy, slot, output.cleartext).is_corrupted
        ]

    def certified_round(self, r: int, dones) -> RoundRecord:
        """The XOR record, never asking for the accusation shuffle.

        A corrupted slot's shuffle-request field is noise, and blame here
        is the replay in :meth:`after_output`; a record that asked would
        send every driver into :meth:`run_accusation_phase`, which refuses.
        """
        return super().certified_round(
            r,
            {
                j: replace(done, shuffle_requested=False)
                for j, done in dones.items()
            },
        )

    def after_output(self, record: RoundRecord) -> None:
        """Replay each corrupted slot of a certified round, then drop sent
        records no replay can reach."""
        r = record.round_number
        if record.completed:
            self.registry.counter("hybrid.fast_rounds").inc()
            layout = self.servers[0].archive[r].layout
            slots = self.replayed_slots(record.output, layout)
            for slot in slots:
                self.registry.counter("hybrid.corrupted_rounds").inc()
                blame = self.replay_blame(r, slot)
                self.blames.append(blame)
                rejected = [
                    TraceVerdict("client", i, "invalid replay proof")
                    for i in blame.rejected_replays
                ]
                self.apply_verdicts(rejected + list(blame.verdicts))
            if slots:
                # The replay replaces the accusation path: clear any pending
                # pseudonym accusations so no shuffle request goes on the wire.
                for client in self.clients:
                    client.reset_accusation()
        # Blame can only reach archived rounds; drop evidence older than
        # that.  By round number, not count: a pipeline's clients already
        # hold the speculative rounds after r.
        oldest = next(iter(self.servers[0].archive), r + 1)
        for client in self.clients:
            if isinstance(client, HybridClient):
                history = client.sent_history
                while history and next(iter(history)) < oldest:
                    del history[next(iter(history))]

    # ------------------------------------------------------------------
    # Verifiable replay (the blame path)
    # ------------------------------------------------------------------

    def replay_blame(self, round_number: int, slot_index: int) -> HybridBlameRecord:
        """Replay one corrupted slot in verifiable mode and name the culprit.

        The replay is lazy: the slot is re-opened one ElGamal chunk at a
        time, each chunk one :func:`~repro.verdict.session.verifiable_round`
        in which every server checks every replay proof and every share.
        The walk stops at the first chunk whose verified bytes expose a
        witness position, so only the corrupted chunk (plus any clean
        prefix before it) ever pays for proofs.
        """
        group = self.definition.group
        registry = self.registry
        archive = self.servers[0].archive.get(round_number)
        if archive is None:
            raise ProtocolError(f"round {round_number} is no longer archived")
        start, end = archive.layout.slot_byte_range(slot_index)
        slot_len = end - start
        total_chunks = chunk_count(group, slot_len)
        server_publics = list(self.definition.server_keys)
        combined = elgamal.combined_key(server_publics)
        session_id = sha256(_REPLAY_DOMAIN, self.definition.group_id())
        verifiers = [
            VerdictServer(
                group,
                j,
                server.key,
                server_publics,
                server.slot_keys,
                combined,
                session_id,
            )
            for j, server in enumerate(self.servers)
        ]
        slot_key_element = verifiers[0].slot_keys[slot_index]

        participants = [
            i for i in archive.final_list if i not in self.expelled
        ]
        rejected: list[int] = []
        corrupted = archive.cleartext[start:end]
        chunk_bytes = group.message_bytes
        true_parts: list[bytes] = []
        witness: int | None = None
        chunks_replayed = 0
        for k in range(total_chunks):
            lo = k * chunk_bytes
            hi = min(slot_len, lo + chunk_bytes)
            replays = [
                self.clients[i].replay_submission(
                    round_number,
                    slot_index,
                    slot_key_element,
                    1,
                    session_id,
                    combined,
                    chunk_start=k,
                )
                for i in participants
            ]
            registry.counter("hybrid.replay_proofs_checked").inc(len(replays))
            bad_replays, bad_share_servers, chunk_payload = verifiable_round(
                verifiers, round_number, slot_index, 1, replays, chunk_start=k
            )
            for i in sorted(bad_replays):
                rejected.append(i)
                participants.remove(i)
            if bad_share_servers:
                bad_servers = [
                    TraceVerdict("server", j, "invalid replay share")
                    for j in sorted(bad_share_servers)
                ]
                return HybridBlameRecord(
                    round_number,
                    slot_index,
                    "blamed",
                    tuple(rejected),
                    tuple(bad_servers),
                    None,
                    b"".join(true_parts),
                    chunks_replayed=chunks_replayed,
                    total_chunks=total_chunks,
                )

            registry.counter("hybrid.replay_chunks_opened").inc()
            chunks_replayed += 1
            if not chunk_payload:
                chunk_payload = bytes(hi - lo)  # silent chunk: all zeros
            if len(chunk_payload) != hi - lo:
                return HybridBlameRecord(
                    round_number,
                    slot_index,
                    "inconclusive",
                    tuple(rejected),
                    (),
                    None,
                    b"".join([*true_parts, chunk_payload]),
                    chunks_replayed=chunks_replayed,
                    total_chunks=total_chunks,
                )
            true_parts.append(chunk_payload)
            for offset in range(8 * (hi - lo)):
                if (
                    get_bit(chunk_payload, offset) == 0
                    and get_bit(corrupted[lo:hi], offset) == 1
                ):
                    witness = 8 * (start + lo) + offset
                    break
            if witness is not None:
                break  # the corrupted chunk is found; later chunks never replay

        true_bytes = b"".join(true_parts)
        if witness is None:
            status = "blamed" if rejected else "no-witness"
            return HybridBlameRecord(
                round_number,
                slot_index,
                status,
                tuple(rejected),
                (),
                None,
                true_bytes,
                chunks_replayed=chunks_replayed,
                total_chunks=total_chunks,
            )

        verdicts = self.trace_witness(round_number, witness)
        status = "blamed" if (rejected or verdicts) else "no-witness"
        return HybridBlameRecord(
            round_number,
            slot_index,
            status,
            tuple(rejected),
            tuple(verdicts),
            witness,
            true_bytes,
            chunks_replayed=chunks_replayed,
            total_chunks=total_chunks,
        )

    # ------------------------------------------------------------------
    # The accusation shuffle must never fire in hybrid mode
    # ------------------------------------------------------------------

    def run_accusation_phase(self):
        """Hybrid mode replaces the accusation shuffle with the replay."""
        raise ProtocolError(
            "hybrid mode handles disruption by verifiable replay; "
            "the accusation shuffle should never be invoked"
        )


def build_hybrid_with_disruptor(
    num_servers: int = 3,
    num_clients: int = 6,
    disruptor_index: int = 4,
    victim_index: int = 1,
    seed: int = 33,
    policy=None,
    flips_per_round: int = 1,
) -> tuple[HybridSession, int]:
    """A scheduled hybrid session with one disruptor aimed at one victim.

    Shared by tests, benchmarks, and the demo.  Returns the session and
    the victim's slot index; the disruptor starts jamming as soon as that
    slot opens.
    """

    def client_factory(definition, index, key, rng):
        cls = HybridDisruptorClient if index == disruptor_index else HybridClient
        return cls(definition, index, key, rng)

    session = HybridSession.build(
        "test-256",
        num_servers,
        num_clients,
        policy,
        seed,
        client_factory=client_factory,
    )
    session.setup()
    victim_slot = session.clients[victim_index].slot
    disruptor = session.clients[disruptor_index]
    disruptor.target_slot = victim_slot
    disruptor.flips_per_round = flips_per_round
    return session, victim_slot

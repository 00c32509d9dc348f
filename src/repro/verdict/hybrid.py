"""Verdict's hybrid mode: fast XOR rounds, verifiable retroactive blame.

Verifiable mode's rounds (:mod:`repro.verdict.session`) pay public-key
crypto per chunk per member; the XOR pipeline pays hash-speed PRNG per
byte.  Verdict's hybrid mode keeps the cheap path hot and reserves the
expensive machinery for the (rare) disrupted round:

* **Fast path** — a hybrid group is a
  :class:`repro.core.session.DissentSession` whose policy says
  ``dcnet_mode="hybrid"``: its rounds are the *unmodified* XOR round,
  driven by its round loop at any window,
  with any client and server classes — no extra message and no extra
  pad.  Nothing is committed beside a submission; a pair pad is
  one both its endpoints derive from their shared secret, and the
  witness-bit trace below, with its DLEQ rebuttals, is what holds a
  client (or a server) to it.

* **Disruption detection** — corruption is *publicly* visible: the
  randomized padding check (§3.9) fails for everyone decoding the slot,
  so no anonymous accusation is needed to establish *that* a round broke.

* **Verifiable replay** — :func:`replay_corrupted_slots`, the session's
  ``after_output`` step in hybrid mode, replays the corrupted slot in
  verifiable mode against the archived round.  Every client that was in
  the round's final list re-submits its claimed slot-region contribution
  (:meth:`~repro.core.client.DissentClient.replay_submission`, from the
  sent history a client keeps in hybrid mode) as ElGamal chunks with the
  disjunctive proof ("encrypts identity OR I
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
from repro.core.config import Policy
from repro.core.rounds import RoundRecord
from repro.core.session import DissentSession
from repro.crypto.hashing import sha256
from repro.errors import ProtocolError
from repro.util.bytesops import get_bit
from repro.verdict.ciphertext import chunk_count
from repro.verdict.session import verdict_servers, verifiable_round

_REPLAY_DOMAIN = b"dissent.verdict.hybrid-replay.v1"


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


def replay_corrupted_slots(session: DissentSession, record: RoundRecord) -> None:
    """Hybrid mode's step after a round's output: replay each corrupted
    slot of a certified round, then drop sent records no replay can reach.

    :meth:`DissentSession.after_output` calls it when the policy says
    ``dcnet_mode="hybrid"``.  Blame-path work is counted on the session
    registry (call :meth:`~DissentSession.enable_telemetry`):
    ``hybrid.{fast_rounds,corrupted_rounds}`` per round; per replay,
    ``hybrid.replay_proofs_checked`` (one per replayed chunk proof) and
    ``hybrid.replay_chunks_opened``.
    """
    r = record.round_number
    if record.completed:
        session.registry.counter("hybrid.fast_rounds").inc()
        slots = session.replayed_slots(record.output)
        for slot in slots:
            session.registry.counter("hybrid.corrupted_rounds").inc()
            blame = replay_blame(session, r, slot)
            session.blames.append(blame)
            rejected = [
                TraceVerdict("client", i, "invalid replay proof")
                for i in blame.rejected_replays
            ]
            session.apply_verdicts(rejected + list(blame.verdicts))
        if slots:
            # The replay replaces the accusation path: clear any pending
            # pseudonym accusations so no shuffle request goes on the wire.
            for client in session.clients:
                client.reset_accusation()
    # Blame can only reach archived rounds; drop evidence older than
    # that.  By round number, not count: a pipeline's clients already
    # hold the speculative rounds after r.
    oldest = next(iter(session.servers[0].archive), r + 1)
    for client in session.clients:
        history = client.sent_history
        while history and next(iter(history)) < oldest:
            del history[next(iter(history))]


def replay_blame(
    session: DissentSession, round_number: int, slot_index: int
) -> HybridBlameRecord:
    """Replay one corrupted slot in verifiable mode and name the culprit.

    The replay is lazy: the slot is re-opened one ElGamal chunk at a
    time, each chunk one :func:`~repro.verdict.session.verifiable_round`
    in which every server checks every replay proof and every share.
    The walk stops at the first chunk whose verified bytes expose a
    witness position, so only the corrupted chunk (plus any clean
    prefix before it) ever pays for proofs.
    """
    group = session.definition.group
    registry = session.registry
    archive = session.servers[0].archive.get(round_number)
    if archive is None:
        raise ProtocolError(f"round {round_number} is no longer archived")
    start, end = archive.layout.slot_byte_range(slot_index)
    slot_len = end - start
    total_chunks = chunk_count(group, slot_len)
    session_id = sha256(_REPLAY_DOMAIN, session.definition.group_id())
    verifiers = verdict_servers(session, session_id)
    combined = verifiers[0].combined_key
    slot_key_element = verifiers[0].slot_keys[slot_index]

    participants = [
        i for i in archive.final_list if i not in session.expelled
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
            session.clients[i].replay_submission(
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

    verdicts = session.trace_witness(round_number, witness)
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


def build_hybrid_with_disruptor(
    num_servers: int = 3,
    num_clients: int = 6,
    disruptor_index: int = 4,
    victim_index: int = 1,
    seed: int = 33,
    policy=None,
    flips_per_round: int = 1,
    group: str = "test-256",
) -> tuple[DissentSession, int]:
    """A scheduled hybrid session with one disruptor aimed at one victim.

    Shared by tests, benchmarks, and the demo.  ``policy`` (default
    :class:`Policy`) is run in hybrid mode whatever its ``dcnet_mode``, on
    the backend ``group`` names.
    Returns the session and the victim's slot index; the disruptor starts
    jamming as soon as that slot opens.
    """

    def client_factory(definition, index, key, rng):
        cls = DisruptorClient if index == disruptor_index else DissentClient
        return cls(definition, index, key, rng)

    session = DissentSession.build(
        group,
        num_servers,
        num_clients,
        replace(policy or Policy(), dcnet_mode="hybrid"),
        seed,
        client_factory=client_factory,
    )
    session.setup()
    victim_slot = session.clients[victim_index].slot
    disruptor = session.clients[disruptor_index]
    disruptor.target_slot = victim_slot
    disruptor.flips_per_round = flips_per_round
    return session, victim_slot

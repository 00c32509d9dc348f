"""Verdict's hybrid mode: fast XOR rounds, verifiable retroactive blame.

Fully verifiable rounds (:mod:`repro.verdict.session`) pay public-key
crypto per chunk per member; the XOR pipeline pays hash-speed PRNG per
byte.  Verdict's hybrid mode keeps the cheap path hot and reserves the
expensive machinery for the (rare) disrupted round:

* **Fast path** — rounds run on the *unmodified* core pipeline
  (:class:`repro.core.session.DissentSession`).  The only addition rides
  alongside each submission: a commitment to the PRNG pads the client
  XORed in (one digest per server, each verifiable for free by the server
  that shares the pad's seed, since it derives the same pad when combining).
  Miscommitting is caught at submission time.

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

import random
from dataclasses import dataclass, field

from repro.core.accusation import TraceVerdict
from repro.core.client import DissentClient
from repro.core.session import DissentSession
from repro.crypto import elgamal, prng
from repro.crypto.hashing import merkle_root, sha256
from repro.crypto.keys import PublicKey
from repro.errors import CheckpointError, ProtocolError
from repro.persist.codec import decode_sent_records, encode_sent_records
from repro.util.bytesops import get_bit
from repro.util.serialization import pack_fields
from repro.verdict.ciphertext import (
    batch_verify_client_ciphertexts,
    batch_verify_server_shares,
    chunk_count,
    combine_client_ciphertexts,
    decode_round,
    make_client_ciphertext,
    make_server_share,
    open_round,
)

_PAD_COMMIT_DOMAIN = "dissent.verdict.pad-commit.v2"
_REPLAY_DOMAIN = b"dissent.verdict.hybrid-replay.v1"

#: Pad bytes per Merkle leaf.  A corrupted round's replay re-derives and
#: re-verifies only the leaves overlapping the corrupted slot instead of
#: the whole round-length pad; 128 bytes keeps leaf counts small for
#: paper-size rounds while still splitting multi-slot rounds finely.
PAD_CHUNK_BYTES = 128


def pad_chunk_leaves(
    group_id: bytes,
    round_number: int,
    client_index: int,
    server_index: int,
    pad: bytes,
) -> tuple[bytes, ...]:
    """Per-chunk leaf digests of one client's pair pad for one round.

    Leaf ``k`` binds the pad bytes ``[k*PAD_CHUNK_BYTES, (k+1)*...)``
    together with their absolute position, so a replay can check any
    chunk subset against the archived leaves without re-deriving the
    rest of the pad.
    """
    leaves = []
    for k in range(0, max(1, -(-len(pad) // PAD_CHUNK_BYTES))):
        chunk = pad[k * PAD_CHUNK_BYTES : (k + 1) * PAD_CHUNK_BYTES]
        leaves.append(
            sha256(
                pack_fields(
                    _PAD_COMMIT_DOMAIN,
                    group_id,
                    round_number,
                    client_index,
                    server_index,
                    k,
                ),
                chunk,
            )
        )
    return tuple(leaves)


def pad_commitment_digest(
    group_id: bytes,
    round_number: int,
    client_index: int,
    server_index: int,
    pad: bytes,
) -> bytes:
    """Merkle root binding one client's pair pad for one round and server.

    The commitment a client ships with its submission: the root over
    :func:`pad_chunk_leaves`.  The upstream server re-derives the same
    pad when combining, so checking it costs only hashing — and archiving
    the *leaves* beside the root means a later replay re-verifies only
    the corrupted chunk span.
    """
    return merkle_root(
        list(
            pad_chunk_leaves(
                group_id, round_number, client_index, server_index, pad
            )
        )
    )


@dataclass(frozen=True)
class HybridPadCommitment:
    """One archived pad commitment: the root plus its verified leaves."""

    root: bytes
    leaves: tuple[bytes, ...]


class HybridClient(DissentClient):
    """A Dissent client that keeps the evidence hybrid blame needs.

    Behaviourally identical to :class:`DissentClient` on the wire (same
    randomness consumption, same ciphertexts — clean hybrid rounds are
    bit-for-bit the XOR fast path); additionally retains its sent slot
    records past output handling and can commit to its pads and replay a
    round verifiably.
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

    def pad_commitment(self, round_number: int, length: int) -> bytes:
        """Commit to the pair pad shared with this client's upstream server.

        One Merkle root over the pad's chunk digests: the upstream server
        re-derives the same pad when combining, so the check costs it only
        hashing — the fast path stays fast.  (Committing to all M pads
        would double the client's per-round PRNG work for digests no
        server could check.)
        """
        upstream = self.definition.upstream_server(self.index)
        return pad_commitment_digest(
            self.group_id,
            round_number,
            self.index,
            upstream,
            prng.pair_stream(self.secrets[upstream], round_number, length),
        )

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


class HybridDisruptorClient(HybridClient):
    """A hybrid-mode member that jams another slot (the §3.9 attack).

    Identical on the wire to :class:`repro.core.adversary.DisruptorClient`
    but retains hybrid evidence; during the verifiable replay it claims an
    all-zero contribution (an honestly proven identity encryption — lying
    about the *content* is the only move left), which the witness-bit trace
    then contradicts with its own signed ciphertext.
    """

    def __init__(
        self, *args, target_slot: int | None = None, flips_per_round: int = 1, **kwargs
    ) -> None:
        super().__init__(*args, **kwargs)
        self.target_slot = target_slot
        self.flips_per_round = flips_per_round

    def produce_ciphertext(self, round_number: int):
        from repro.net.message import CLIENT_CIPHERTEXT, make_envelope
        from repro.util.bytesops import flip_bit

        envelope = super().produce_ciphertext(round_number)
        layout = self.scheduler.current_layout()
        if self.target_slot is None or not layout.is_open(self.target_slot):
            return envelope
        start, end = layout.slot_bit_range(self.target_slot)
        body = envelope.body
        for _ in range(self.flips_per_round):
            body = flip_bit(body, self.rng.randrange(start, end))
        return make_envelope(
            self.key,
            CLIENT_CIPHERTEXT,
            self.name,
            self.group_id,
            round_number,
            body,
        )


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

    @property
    def server_culprits(self) -> tuple[int, ...]:
        return tuple(
            sorted(
                {v.culprit_index for v in self.verdicts if v.culprit_kind == "server"}
            )
        )


@dataclass
class HybridCostCounters:
    """Blame-path accounting (compared against accusation shuffles)."""

    fast_rounds: int = 0
    corrupted_rounds: int = 0
    replay_proofs_checked: int = 0
    accusation_shuffles: int = 0  # stays zero: the point of hybrid mode
    #: Merkle-scoped pad re-verification: leaves actually re-checked and
    #: pad bytes actually re-derived during replays (vs. the pre-Merkle
    #: cost of one full round-length pad per participant per replay).
    pad_chunks_reverified: int = 0
    pad_bytes_rederived: int = 0
    #: Slot chunks opened across all replays (lazy replay stops at the
    #: first witness chunk).
    replay_chunks_opened: int = 0


class HybridSession(DissentSession):
    """A Dissent session in Verdict hybrid mode.

    Clean rounds are exactly the XOR fast path (same bytes, same
    signatures).  Corrupted rounds trigger a verifiable replay instead of
    the §3.9 accusation shuffle; :meth:`run_accusation_phase` is never
    invoked by this class.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.blames: list[HybridBlameRecord] = []
        self.pad_archive: dict[int, dict[int, HybridPadCommitment]] = {}
        self.hybrid_counters = HybridCostCounters()

    def snapshot_state(self) -> dict:
        """The XOR session's durable state plus hybrid mode's blame evidence:
        the archived pad commitments and each client's sent history."""
        snapshot = super().snapshot_state()
        snapshot["hybrid"] = {
            "pad_archive": {
                str(r): {
                    str(i): [c.root.hex(), [leaf.hex() for leaf in c.leaves]]
                    for i, c in commitments.items()
                }
                for r, commitments in self.pad_archive.items()
            },
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
            evidence = snapshot["hybrid"]
            self.pad_archive = {
                int(r): {
                    int(i): HybridPadCommitment(
                        bytes.fromhex(root), tuple(bytes.fromhex(x) for x in leaves)
                    )
                    for i, (root, leaves) in commitments.items()
                }
                for r, commitments in evidence["pad_archive"].items()
            }
            for i, records in evidence["sent_history"].items():
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
    # Fast path + detection
    # ------------------------------------------------------------------

    def run_round(self, online: set[int] | None = None):
        r = self.round_number
        # Every server's scheduler holds the round's layout (and is in every
        # checkpoint); a copy decodes the output's slots as the servers will.
        monitor = self.servers[0].scheduler.clone()
        self._collect_pad_commitments(
            r, monitor.current_layout().total_bytes, online
        )
        record = super().run_round(online)
        if record.completed:
            self.hybrid_counters.fast_rounds += 1
            for content in monitor.advance(record.output.cleartext):
                if content.is_corrupted:
                    self.hybrid_counters.corrupted_rounds += 1
                    self._handle_disruption(r, content.slot_index)
        self._trim_hybrid_archives()
        return record

    def _collect_pad_commitments(
        self, round_number: int, length: int, online: set[int] | None
    ) -> None:
        """Each client commits to its upstream pad; the server spot-checks.

        In a deployment the commitment rides the submission envelope; the
        upstream server verifies it against the pad it derives anyway when
        combining, so the check is one extra hash.  The digests are
        archived alongside the round and re-checked by the verifiable
        replay, binding the replayed round to the pads actually used.
        """
        if online is None:
            online = set(range(self.definition.num_clients))
        archive: dict[int, HybridPadCommitment] = {}
        for i in sorted(online - self.expelled):
            client = self.clients[i]
            if not isinstance(client, HybridClient):
                continue
            digest = client.pad_commitment(round_number, length)
            upstream = self.definition.upstream_server(i)
            leaves = pad_chunk_leaves(
                self.servers[upstream].group_id,
                round_number,
                i,
                upstream,
                prng.pair_stream(
                    self.servers[upstream].secrets[i], round_number, length
                ),
            )
            if digest != merkle_root(list(leaves)):
                # Proactive rejection: a miscommitting client is named
                # before the round even runs.
                self.expel(i)
                continue
            # Archive the verified *leaves* beside the root: a replay can
            # then re-check any chunk span against 32-byte digests instead
            # of re-deriving whole round-length pads.
            archive[i] = HybridPadCommitment(root=digest, leaves=leaves)
        self.pad_archive[round_number] = archive

    def _trim_hybrid_archives(self) -> None:
        """Blame can only reach archived rounds; drop evidence past that."""
        keep = self.definition.policy.archive_rounds
        # Rounds insert in ascending order, so first-key eviction is both
        # oldest-first and O(1) (same fix as DissentServer._trim_archive).
        while len(self.pad_archive) > keep:
            del self.pad_archive[next(iter(self.pad_archive))]
        for client in self.clients:
            if isinstance(client, HybridClient):
                history = client.sent_history
                while len(history) > keep:
                    del history[next(iter(history))]

    def _handle_disruption(self, round_number: int, slot_index: int) -> None:
        blame = self.replay_blame(round_number, slot_index)
        self.blames.append(blame)
        for culprit in blame.client_culprits:
            self.expel(culprit)
        for culprit in blame.server_culprits:
            self.convicted_servers.add(culprit)
        # The replay replaces the accusation path: clear any pending
        # pseudonym accusations so no shuffle request goes on the wire.
        for client in self.clients:
            client.reset_accusation()

    # ------------------------------------------------------------------
    # Verifiable replay (the blame path)
    # ------------------------------------------------------------------

    def replay_blame(self, round_number: int, slot_index: int) -> HybridBlameRecord:
        """Replay one corrupted slot in verifiable mode and name the culprit.

        Two amortizations keep the blame path narrow:

        * **Merkle-scoped pad re-verification** — the archived pad
          commitments are re-checked only over the pad chunks overlapping
          the corrupted slot (derive the SHAKE prefix up to the slot's
          last chunk, hash those chunks, compare against the archived
          leaves and re-fold the leaves into the root), instead of
          re-deriving every participant's full round-length pad.
        * **Lazy chunk replay** — the slot is re-opened one ElGamal chunk
          at a time, each chunk one batched multi-exponentiation; the walk
          stops at the first chunk whose verified bytes expose a witness
          position, so only the corrupted chunk (plus any clean prefix
          before it) ever pays for proofs.
        """
        group = self.definition.group
        counters = self.hybrid_counters
        verifier = self.servers[0]
        archive = verifier.archive.get(round_number)
        if archive is None:
            raise ProtocolError(f"round {round_number} is no longer archived")
        start, end = archive.layout.slot_byte_range(slot_index)
        slot_len = end - start
        total_chunks = chunk_count(group, slot_len)
        slot_key_element = verifier.slot_keys[slot_index]
        combined = elgamal.combined_key(list(self.definition.server_keys))
        session_id = sha256(_REPLAY_DOMAIN, self.definition.group_id())

        participants = [
            i for i in archive.final_list if i not in self.expelled
        ]
        # Re-check the archived pad commitments for the corrupted round —
        # the replay is only meaningful against the pads the trace will
        # disclose, and the commitment is what binds the two — scoped to
        # the chunk span the corrupted slot occupies.
        committed = self.pad_archive.get(round_number, {})
        length = archive.layout.total_bytes
        first_leaf = start // PAD_CHUNK_BYTES
        last_leaf = max(first_leaf, (end - 1) // PAD_CHUNK_BYTES)
        derive_len = min(length, (last_leaf + 1) * PAD_CHUNK_BYTES)
        rejected: list[int] = []
        for i in list(participants):
            commitment = committed.get(i)
            if commitment is None:
                continue  # non-hybrid client or pre-archive round
            upstream = self.definition.upstream_server(i)
            pad_prefix = prng.pair_stream(
                self.servers[upstream].secrets[i], round_number, derive_len
            )
            counters.pad_bytes_rederived += derive_len
            ok = len(commitment.leaves) > last_leaf and merkle_root(
                list(commitment.leaves)
            ) == commitment.root
            if ok:
                expected = pad_chunk_leaves(
                    self.definition.group_id(), round_number, i, upstream, pad_prefix
                )
                for k in range(first_leaf, last_leaf + 1):
                    counters.pad_chunks_reverified += 1
                    if expected[k] != commitment.leaves[k]:
                        ok = False
                        break
            if not ok:
                rejected.append(i)
                participants.remove(i)

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
            counters.replay_proofs_checked += len(replays)
            # One multi-exponentiation checks the chunk's replay; a
            # failing batch falls back to bisection so the named set
            # matches per-proof checks.
            bad_replays = batch_verify_client_ciphertexts(
                group,
                combined,
                slot_key_element,
                session_id,
                round_number,
                slot_index,
                1,
                replays,
                chunk_start=k,
            )
            for i in sorted(bad_replays):
                rejected.append(i)
                participants.remove(i)
            submissions = [
                s for s in replays if s.client_index not in bad_replays
            ]

            a_parts, b_parts = combine_client_ciphertexts(group, submissions, 1)
            shares = [
                make_server_share(
                    group,
                    server.key,
                    server.index,
                    a_parts,
                    session_id,
                    round_number,
                    slot_index,
                    chunk_start=k,
                )
                for server in self.servers
            ]
            bad_share_servers = batch_verify_server_shares(
                group,
                list(self.definition.server_keys),
                a_parts,
                session_id,
                round_number,
                slot_index,
                shares,
                chunk_start=k,
            )
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

            chunk_payload = decode_round(group, open_round(group, b_parts, shares))
            counters.replay_chunks_opened += 1
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
        self.hybrid_counters.accusation_shuffles += 1
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
    from repro.core.server import DissentServer
    from repro.core.session import build_keys

    rng = random.Random(seed)
    built = build_keys("test-256", num_servers, num_clients, policy, rng)
    servers = [
        DissentServer(built.definition, j, key, random.Random(rng.getrandbits(64)))
        for j, key in enumerate(built.server_keys)
    ]
    clients = []
    for i, key in enumerate(built.client_keys):
        factory = HybridDisruptorClient if i == disruptor_index else HybridClient
        clients.append(
            factory(built.definition, i, key, random.Random(rng.getrandbits(64)))
        )
    session = HybridSession(built.definition, servers, clients, rng)
    session.setup()
    victim_slot = session.clients[victim_index].slot
    disruptor = session.clients[disruptor_index]
    disruptor.target_slot = victim_slot
    disruptor.flips_per_round = flips_per_round
    return session, victim_slot

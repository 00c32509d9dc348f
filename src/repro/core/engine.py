"""The per-server round machine (paper Algorithm 2), with no I/O.

A :class:`RoundEngine` wraps one :class:`~repro.core.server.DissentServer`
and runs its rounds from **inputs only**: signed envelopes
(:meth:`~RoundEngine.deliver`), the coordinator's round-begin and
commit-go (:meth:`~RoundEngine.begin_round`, :meth:`~RoundEngine.commit_go`)
and "the view timer for view v expired"
(:meth:`~RoundEngine.view_timer_expired`).  Every input returns a list of
**effects** for the caller to carry out — an envelope to broadcast to
the peer servers, the inventory status for the coordinator, a view timer
to arm, a phase boundary for telemetry, a conviction, the
finished round — and nothing else leaves the engine: it opens no socket,
reads no clock and knows no event loop, so the same object runs under a
synchronous router (:class:`~repro.core.session.DissentSession`), a
windowed one that holds up to W rounds per engine
(:class:`~repro.core.pipeline.PipelinedSession`) and a message-driven
daemon (:class:`repro.net.node.ServerNode`, one round at a time), and
behaves identically under all three.

The engine's per-round record is the only record of an in-flight round:
it holds the :class:`~repro.core.server.RoundState` the server's
``open_round`` returned and hands it to each of the server's steps, and
its script is the only place that fixes their order.  It also checks the
three things about rounds as a whole that no single step can: a round is
begun once, rounds are begun in ascending order, and the oldest round
finishes first.  How many rounds are in flight is the driver's choice.

Per round the engine gates the server's steps on message arrival
(collect → inventory → commit → reveal → sign), then runs the
leader-rotation certificate exchange of :mod:`repro.consensus`: the
rotation leader proposes the digest of its assembled output, every
server votes only for the digest of the output *it* assembled, and the
round commits under all M votes — or under a majority when the view
timer expires with votes withheld.  A silent leader is rotated past by
the same timer; a leader that signs two proposals for one view is
convicted on the spot with a transferable proof and loses its place in
the rotation for the rest of the session.  Vote signatures are recorded
unverified (a voter needs no signature to know the output it computed
itself); the coordinator authenticates the one certificate it adopts
(:func:`repro.consensus.adopt_round_evidence`).
"""

from __future__ import annotations

import functools
from collections.abc import Generator
from dataclasses import dataclass, field

from repro.consensus import (
    EquivocationProof,
    RoundCertificate,
    leader_index,
    output_body_digest,
    proposal_view_digest,
    quorum_size,
)
from repro.core.rounds import RoundOutput
from repro.core.server import DissentServer, RoundState
from repro.crypto.schnorr import Signature
from repro.errors import DissentError, ProtocolError, ViewChangeTimeout
from repro.net.message import (
    CLIENT_CIPHERTEXT,
    LEADER_PROPOSE,
    SERVER_COMMIT,
    SERVER_INVENTORY,
    SERVER_REVEAL,
    SERVER_SIGNATURE,
    SERVER_VOTE,
    VIEW_CHANGE,
    SignedEnvelope,
)
from repro.obs.metrics import NULL_REGISTRY

# ---------------------------------------------------------------------------
# Effects: everything an engine asks its driver to do
# ---------------------------------------------------------------------------


class Effect:
    """Base of everything an engine asks its driver to do."""


@dataclass(frozen=True)
class Broadcast(Effect):
    """Send ``envelope`` to every peer server."""

    envelope: SignedEnvelope


@dataclass(frozen=True)
class InventoryStatus(Effect):
    """Tell the coordinator the composite participation and the §3.7 floor."""

    round_number: int
    participation: int
    ok: bool


@dataclass(frozen=True)
class ArmTimer(Effect):
    """Start the view timer for ``view``, replacing the round's earlier one
    (:class:`RoundDone` ends the last)."""

    round_number: int
    view: int


@dataclass(frozen=True)
class PhaseBoundary(Effect):
    """``phase`` just ended on this server (telemetry only)."""

    round_number: int
    phase: str


@dataclass(frozen=True)
class Conviction(Effect):
    """``leader`` equivocated at ``view`` and left this server's rotation."""

    round_number: int
    view: int
    leader: int


@dataclass(frozen=True)
class RoundDone(Effect):
    """The round is certified and archived on this server."""

    round_number: int
    output: RoundOutput
    certificate: RoundCertificate
    #: First equivocation this server proved during the round, if any.
    proof: EquivocationProof | None
    shuffle_requested: bool


@dataclass(frozen=True)
class Fault(Effect):
    """An input was rejected; the engine's state is still consistent."""

    error: DissentError


# ---------------------------------------------------------------------------
# Per-round state
# ---------------------------------------------------------------------------


_EXCHANGES = (SERVER_INVENTORY, SERVER_COMMIT, SERVER_REVEAL, SERVER_SIGNATURE)


@dataclass
class _Round:
    """One in-flight round: the server's state of it, the messages
    collected for it and its consensus state."""

    round_number: int
    #: What the server's steps read and write (``DissentServer.open_round``).
    held: RoundState
    #: Clients whose ciphertexts this server waits for (its attached submitters).
    expected: tuple[int, ...]
    #: The data plane, suspended at whatever input it is waiting for.
    script: Generator | None = None
    commit_go: bool = False
    done: bool = False
    ciphertexts: dict[int, SignedEnvelope] = field(default_factory=dict)
    #: envelope type -> sending server -> envelope, for the four exchanges.
    exchanged: dict[str, dict[int, SignedEnvelope]] = field(
        default_factory=lambda: {kind: {} for kind in _EXCHANGES}
    )
    #: Consensus envelopes that raced our own signature exchange; replayed
    #: in arrival order once our output (and so our digest) is known.
    pending: list[SignedEnvelope] = field(default_factory=list)
    #: Our assembled output; set on entering the certificate exchange.
    output: RoundOutput | None = None
    digest: bytes = b""
    #: Rotation inputs sampled at consensus entry; ``excluded`` grows
    #: mid-round when an equivocation conviction lands.
    epoch: int = 0
    excluded: set[int] = field(default_factory=set)
    view: int = 0
    entered_views: set[int] = field(default_factory=set)
    #: view -> sender -> digest -> proposal (two digests from one sender
    #: at one view is the equivocation evidence).
    proposals: dict[int, dict[int, dict[bytes, SignedEnvelope]]] = field(
        default_factory=dict
    )
    #: view -> sender -> vote signature, only for our own digest.
    votes: dict[int, dict[int, Signature]] = field(default_factory=dict)
    voted_views: set[int] = field(default_factory=set)
    view_changes_sent: set[int] = field(default_factory=set)
    convicted_now: set[int] = field(default_factory=set)
    #: Views where equivocation was proven are never certified, even if
    #: their vote set fills afterwards.
    poisoned_views: set[int] = field(default_factory=set)
    proof: EquivocationProof | None = None


def _input(step):
    """Make ``step`` an engine input: it returns the effects it caused,
    with a rejected input reported as a trailing :class:`Fault`."""

    @functools.wraps(step)
    def run(self, *args) -> list[Effect]:
        self._out = out = []
        try:
            step(self, *args)
        except DissentError as exc:
            out.append(Fault(exc))
        return out

    return run


class RoundEngine:
    """One server's rounds as a pure state machine (see the module docstring).

    Args:
        server: the phase machine to drive (honest or adversarial subclass).
        registry: sink for the ``consensus.*`` counters.
    """

    def __init__(self, server: DissentServer, registry=NULL_REGISTRY) -> None:
        self.server = server
        self.index = server.index
        self.definition = server.definition
        self.registry = registry
        #: Rounds begun and not yet done, abandoned or discarded, oldest
        #: first (they are begun in ascending order).
        self.rounds: dict[int, _Round] = {}
        #: Servers this one has convicted of equivocation: out of its
        #: leader rotation for good (they keep contributing DC-net pads,
        #: so round outputs are unaffected).
        self.convicted: set[int] = set()
        self._out: list[Effect] = []

    # -- inputs ----------------------------------------------------------

    @_input
    def begin_round(self, round_number: int, submitters) -> None:
        """Open ``round_number``; ``submitters`` are the clients sending."""
        if round_number in self.rounds:
            raise ProtocolError(
                f"{self.server.name}: round {round_number} is already open"
            )
        if self.rounds and round_number < max(self.rounds):
            raise ProtocolError(
                f"{self.server.name}: rounds must be opened in ascending order"
            )
        expected = tuple(
            i
            for i in sorted(submitters)
            if self.definition.upstream_server(i) == self.index
        )
        state = self.rounds[round_number] = _Round(
            round_number, self.server.open_round(round_number), expected
        )
        state.script = self._data_plane(state)
        next(state.script, None)

    @_input
    def commit_go(self, round_number: int) -> None:
        """The coordinator saw every inventory status pass the floor."""
        state = self._require(round_number)
        state.commit_go = True
        next(state.script, None)

    @_input
    def deliver(self, envelope: SignedEnvelope) -> None:
        """Take one signed envelope addressed to an in-flight round."""
        state = self._require(envelope.round_number)
        kind = envelope.msg_type
        if kind in (LEADER_PROPOSE, SERVER_VOTE, VIEW_CHANGE):
            if state.output is None:
                state.pending.append(envelope)
            else:
                self._consensus(state, envelope)
            return
        if kind == CLIENT_CIPHERTEXT:
            client_index = self.server._client_index(envelope.sender)
            if client_index is None or client_index not in state.expected:
                raise ProtocolError(
                    f"{self.server.name}: unexpected ciphertext from "
                    f"{envelope.sender} in round {state.round_number}"
                )
            state.ciphertexts.setdefault(client_index, envelope)
        elif kind in state.exchanged:
            sender = self.definition.server_index_of(envelope.sender)
            state.exchanged[kind].setdefault(sender, envelope)
        else:
            raise ProtocolError(f"{self.server.name}: unexpected envelope {kind!r}")
        next(state.script, None)

    def abandon(self, round_number: int) -> None:
        """§3.7: give the round up, publishing its participation count."""
        self.server.abandon_round(self._require(round_number).held)
        del self.rounds[round_number]

    def discard(self, round_number: int) -> None:
        """Forget a speculatively begun round as if it never ran."""
        del self.rounds[round_number]

    def _require(self, round_number: int) -> _Round:
        state = self.rounds.get(round_number)
        if state is None:
            raise ProtocolError(
                f"{self.server.name}: round {round_number} is not in progress"
            )
        return state

    # -- data plane: collect -> inventory -> commit -> reveal -> sign ----

    def _data_plane(self, state: _Round) -> Generator:
        """Algorithm 2 up to the signed output, as straight-line code.

        Each ``yield`` waits for more input; the inputs above resume the
        script, which runs every phase whose messages have all arrived.
        """
        server, r, held = self.server, state.round_number, state.held
        while len(state.ciphertexts) < len(state.expected):
            yield
        if state.expected:
            # One batched multi-exp checks every attached client.
            server.accept_ciphertexts(
                held, [state.ciphertexts[i] for i in state.expected]
            )
        self._share(state, server.make_inventory(held))
        self._out.append(PhaseBoundary(r, "submit"))
        inventories = yield from self._collect(state, SERVER_INVENTORY)
        participation = server.receive_inventories(held, inventories)
        self._out.append(PhaseBoundary(r, "inventory"))
        self._out.append(
            InventoryStatus(r, participation, server.participation_ok(held))
        )
        while not state.commit_go:
            yield
        self._share(state, server.compute_ciphertext(held))
        commitments = yield from self._collect(state, SERVER_COMMIT)
        server.receive_commitments(held, commitments)
        self._out.append(PhaseBoundary(r, "commit"))
        self._share(state, server.reveal_ciphertext(held))
        server.receive_reveals(held, (yield from self._collect(state, SERVER_REVEAL)))
        self._out.append(PhaseBoundary(r, "reveal"))
        self._share(state, server.signature_envelope(held))
        signatures = yield from self._collect(state, SERVER_SIGNATURE)
        output = server.receive_signature_envelopes(held, signatures)
        self._out.append(PhaseBoundary(r, "verify"))
        self._enter_consensus(state, output)

    def _share(self, state: _Round, envelope: SignedEnvelope) -> None:
        """Count our own envelope toward its exchange and broadcast it."""
        state.exchanged[envelope.msg_type][self.index] = envelope
        self._out.append(Broadcast(envelope))

    def _collect(self, state: _Round, kind: str) -> Generator:
        """Wait for one ``kind`` envelope per server; return them in order."""
        have = state.exchanged[kind]
        while len(have) < self.definition.num_servers:
            yield
        return [have[j] for j in range(self.definition.num_servers)]

    # -- control plane: propose -> vote -> certify, with view changes ----

    def _enter_consensus(self, state: _Round, output: RoundOutput) -> None:
        state.output = output
        state.digest = output_body_digest(self.definition.group, output)
        state.epoch = len(self.convicted)
        state.excluded = set(self.convicted)
        self._enter_view(state, 0)
        pending, state.pending = state.pending, []
        for envelope in pending:
            if state.done:
                break
            try:
                self._consensus(state, envelope)
            except DissentError as exc:
                # One bad buffered envelope must not abort the round.
                self._out.append(Fault(exc))

    def _consensus(self, state: _Round, envelope: SignedEnvelope) -> None:
        if envelope.msg_type == LEADER_PROPOSE:
            self._on_propose(state, envelope)
        elif envelope.msg_type == SERVER_VOTE:
            self._on_vote(state, envelope)
        else:
            self._on_view_change(state, envelope)

    def _leader(self, state: _Round, view: int) -> int:
        """Rotation leader for ``view`` — recomputed, never cached, so a
        mid-round conviction immediately redirects pending views."""
        return leader_index(
            self.definition.group_id(),
            state.epoch,
            state.round_number,
            view,
            self.definition.num_servers,
            state.excluded,
        )

    def _enter_view(self, state: _Round, view: int) -> None:
        """Adopt ``view``: start its timer, propose if we lead, vote."""
        if state.done or view in state.entered_views:
            return
        state.entered_views.add(view)
        state.view = max(state.view, view)
        if view > 0:
            self.registry.counter("consensus.views_changed").inc()
        leader = self._leader(state, view)
        self._out.append(ArmTimer(state.round_number, view))
        if leader == self.index:
            proposals = self.server.propose_round(state.output, view=view) or []
            self._out.extend(Broadcast(envelope) for envelope in proposals)
            for envelope in proposals:
                self._on_propose(state, envelope)
        self._maybe_vote(state, view)

    def _on_propose(self, state: _Round, envelope: SignedEnvelope) -> None:
        if state.done:
            return
        sender = self.definition.server_index_of(envelope.sender)
        if sender != self.index:
            envelope.verify(self.definition.server_keys[sender])
        view, digest = proposal_view_digest(envelope)
        bucket = state.proposals.setdefault(view, {}).setdefault(sender, {})
        if digest in bucket:
            return
        bucket[digest] = envelope
        if len(bucket) > 1 and sender not in state.convicted_now:
            self._convict(state, view, sender, bucket)
        elif view > state.view:
            # A validly-signed proposal from the rotation leader of a
            # later view is itself evidence the view moved on; adopting
            # early is safe because votes only endorse our own digest.
            if sender == self._leader(state, view):
                self._enter_view(state, view)
        else:
            self._maybe_vote(state, view)

    def _maybe_vote(self, state: _Round, view: int) -> None:
        """Vote once per view, only on the rotation leader's proposal."""
        if state.done or view != state.view or view in state.voted_views:
            return
        bucket = state.proposals.get(view, {}).get(self._leader(state, view), {})
        if len(bucket) != 1:
            return
        state.voted_views.add(view)
        (proposal,) = bucket.values()
        vote = self.server.vote_on_proposal(proposal, state.output, view=view)
        if vote is None:
            self.registry.counter("consensus.votes_rejected").inc()
            return
        self._out.append(Broadcast(vote))
        self._record_vote(state, self.index, view, vote.signature)

    def _on_vote(self, state: _Round, envelope: SignedEnvelope) -> None:
        sender = self.definition.server_index_of(envelope.sender)
        view, digest = proposal_view_digest(envelope)
        if digest != state.digest:
            self.registry.counter("consensus.votes_rejected").inc()
            return
        self._record_vote(state, sender, view, envelope.signature)

    def _record_vote(
        self, state: _Round, sender: int, view: int, signature: Signature
    ) -> None:
        bucket = state.votes.setdefault(view, {})
        bucket.setdefault(sender, signature)
        if (
            len(bucket) == self.definition.num_servers
            and view not in state.poisoned_views
        ):
            self._certify(state, view)

    def _on_view_change(self, state: _Round, envelope: SignedEnvelope) -> None:
        # Imported here: ``repro.net.wire`` imports ``repro.core``, and a
        # module-level import would make ``import repro.net.wire`` cycle.
        from repro.net.wire import decode_view_change_body

        sender = self.definition.server_index_of(envelope.sender)
        envelope.verify(self.definition.server_keys[sender])
        new_view, _reason = decode_view_change_body(envelope.body)
        if new_view <= state.view:
            return
        if new_view not in state.view_changes_sent:
            # Relay our own adoption once so a peer whose timer never
            # fires (or whose link dropped the original) still converges.
            self._announce_view(state, new_view, "adopt")
        self._enter_view(state, new_view)

    def _announce_view(self, state: _Round, new_view: int, reason: str) -> None:
        state.view_changes_sent.add(new_view)
        envelope = self.server.view_change_envelope(
            state.round_number, new_view, reason=reason
        )
        self._out.append(Broadcast(envelope))

    def _convict(
        self, state: _Round, view: int, sender: int, bucket: dict
    ) -> None:
        """Two conflicting proposals: build the transferable proof, expel
        the leader from the rotation, and relay the evidence."""
        first, second = list(bucket.values())[:2]
        proof = EquivocationProof(
            round_number=state.round_number,
            view=view,
            leader=sender,
            first=first,
            second=second,
        )
        proof.verify(self.definition)
        state.convicted_now.add(sender)
        state.poisoned_views.add(view)
        state.excluded.add(sender)
        self.convicted.add(sender)
        if state.proof is None:
            state.proof = proof
        self._out.append(Conviction(state.round_number, view, sender))
        # Relay both signed proposals: every peer convicts from the same
        # evidence, so the exclusion set converges without a vote.
        self._out.append(Broadcast(first))
        self._out.append(Broadcast(second))
        if view >= state.view:
            self._enter_view(state, view + 1)
        else:
            # Conviction for an old view while we are ahead: the exclusion
            # set changed, so re-evaluate the current view's leadership.
            self._maybe_vote(state, state.view)

    @_input
    def view_timer_expired(self, round_number: int, view: int) -> None:
        """The timer armed for ``view`` ran out: cut a majority certificate
        from the votes in hand, or rotate (stale expiries are ignored)."""
        state = self.rounds.get(round_number)
        if state is None or state.output is None or state.view != view:
            return
        num_servers = self.definition.num_servers
        if view not in state.poisoned_views and len(
            state.votes.get(view, {})
        ) >= quorum_size(num_servers):
            # Withheld votes cannot halt the session: commit on the
            # majority we have; the absent signatures name the holdout.
            self._certify(state, view)
            return
        if view + 1 > 2 * num_servers + 1:
            raise ViewChangeTimeout(
                f"round {round_number}: no certificate formed after "
                f"{view + 1} views"
            )
        self._announce_view(state, view + 1, "timeout")
        self._enter_view(state, view + 1)

    def _certify(self, state: _Round, view: int) -> None:
        """Assemble the certificate, archive the round, report it done."""
        r = state.round_number
        if r != next(iter(self.rounds)):
            raise ProtocolError(
                f"{self.server.name}: round {r} cannot finish before older rounds"
            )
        certificate = RoundCertificate(
            round_number=r,
            view=view,
            leader=self._leader(state, view),
            digest=state.digest,
            votes=tuple(sorted(state.votes[view].items())),
        )
        state.done = True
        self.registry.counter("consensus.certs_formed").inc()
        self._out.append(PhaseBoundary(r, "certify"))
        contents = self.server.finish_round(state.held, state.output)
        del self.rounds[r]
        self._out.append(
            RoundDone(
                r,
                state.output,
                certificate,
                state.proof,
                any(content.shuffle_request for content in contents),
            )
        )

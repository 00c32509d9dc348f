"""Round certificates and transferable equivocation proofs.

The certified object is the *digest* of the round's combined output body
(the exact bytes :func:`repro.net.wire.encode_round_output_body`
produces, which already cover the cleartext, the participation vector,
and all M certify signatures).  Every server derives that body from its
own envelope batches, so a vote is a statement "my independently
computed round output hashes to this" — the leader merely coordinates,
it cannot substitute a value no honest server computed.

Votes are ordinary :class:`~repro.net.message.SignedEnvelope` signatures:
the envelope's Schnorr signature already binds ``(msg_type, sender,
group_id, round, sha256(body))`` and the vote body carries ``(view, digest)``,
so the certificate only needs to store ``(server_index, signature)``
pairs and a verifier reconstructs each envelope payload from public
data.  Certificates are therefore compact, deterministic (signing is
RFC-6979-style, see :mod:`repro.crypto.schnorr`), and verifiable
offline from a checkpoint or audit artifact alone.

An :class:`EquivocationProof` is two conflicting signed proposals for
one ``(round, view)``.  Because proposals are self-authenticating
envelopes, the proof convicts the leader to *any* third party holding
the group definition — the "proactive accountability" framing: the
protocol emits evidence, not just a timeout.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.crypto import schnorr
from repro.errors import InvalidProof, InvalidSignature, ProtocolError, WireDecodeError
from repro.net.message import (
    LEADER_PROPOSE,
    SERVER_VOTE,
    SignedEnvelope,
    body_digest,
    envelope_signed_payload,
)
from repro.util.serialization import decode_value, pack_fields, unpack_typed

_DIGEST_BYTES = 32


def quorum_size(num_servers: int) -> int:
    """Votes required for a (possibly partial) certificate: a majority.

    The happy path still waits for all ``num_servers`` votes — the
    any-trust deployment wants every server on the record — but a
    vote-withholding server must not be able to halt the session, so
    past the barrier timeout a majority certificate commits the round
    and the absent signatures name the withholder.
    """
    return num_servers // 2 + 1


def output_body_digest(group, output) -> bytes:
    """SHA-256 of the canonical round-output body — the certified value.

    Also the body digest of the ``round-output`` envelope that carries the
    output to clients, so a server encodes and hashes its ~round-length
    output body once however many steps ask (consensus entry, proposal,
    vote, output envelope).  Computed once per frozen
    :class:`~repro.core.rounds.RoundOutput` and kept in its ``__dict__``,
    as :meth:`SignedEnvelope.body_digest` is: out of ``==``, ``repr`` and
    the codecs, and ``dataclasses.replace`` builds an object without it.
    """
    from repro.net.wire import encode_round_output_body

    digest = output.__dict__.get("_body_digest")
    if digest is None:
        digest = output.__dict__["_body_digest"] = body_digest(
            encode_round_output_body(group, output)
        )
    return digest


def proposal_view_digest(envelope: SignedEnvelope) -> tuple[int, bytes]:
    """Parse ``(view, digest)`` out of a proposal or vote body.

    The one decoder of :func:`repro.net.wire.encode_consensus_body`.
    Structural validation only — the caller checks the signature; a
    malformed body from a Byzantine sender is a :class:`WireDecodeError`.
    """
    view, digest = unpack_typed(envelope.body, "ib", "consensus body")
    return view, _checked_digest(digest, "consensus")


def _checked_digest(digest: bytes, what: str) -> bytes:
    if len(digest) != _DIGEST_BYTES:
        raise WireDecodeError(
            f"{what} digest must be {_DIGEST_BYTES} bytes, got {len(digest)}"
        )
    return digest


def _vote_signed_payload(definition, server_index: int, round_number: int, body: bytes) -> bytes:
    # Certificates store only the signature; the SERVER_VOTE envelope's
    # payload is rebuilt from public data at verification time.
    return envelope_signed_payload(
        SERVER_VOTE,
        definition.server_name(server_index),
        definition.group_id(),
        round_number,
        body_digest(body),
    )


def _invalid_vote_positions(
    definition, round_number: int, view: int, digest: bytes, votes
) -> tuple[int, ...]:
    """Positions in ``votes`` — ``(server index, signature)`` pairs — that fail.

    One batched check against the roster keys' fixed-base tables; only a
    failing batch bisects.
    """
    from repro.net.wire import encode_consensus_body

    body = encode_consensus_body(view, digest)
    items = [
        (
            definition.server_keys[index],
            _vote_signed_payload(definition, index, round_number, body),
            signature,
        )
        for index, signature in votes
    ]
    if schnorr.batch_verify(items):
        return ()
    return schnorr.find_invalid(items, known_failed=True)


def find_invalid_votes(
    definition, round_number: int, view: int, digest: bytes, votes: dict
) -> list[int]:
    """Server indices whose vote signatures fail — one batched check.

    The round engine records vote signatures unverified on arrival;
    :func:`adopt_round_evidence` calls this when the certificate it is
    about to adopt fails to verify, to pinpoint the forged votes.
    """
    ordered = sorted(votes.items())
    return [
        ordered[i][0]
        for i in _invalid_vote_positions(
            definition, round_number, view, digest, ordered
        )
    ]


@dataclass(frozen=True)
class RoundCertificate:
    """A quorum of server votes over one round-output digest.

    ``votes`` holds ``(server_index, signature)`` pairs in strictly
    ascending index order; each signature is the vote envelope's Schnorr
    signature, re-verifiable against the reconstructed payload.
    ``leader``/``view`` record which proposal the votes answered — audit
    metadata; safety rests on the voted digest alone.
    """

    round_number: int
    view: int
    leader: int
    digest: bytes
    votes: tuple[tuple[int, schnorr.Signature], ...]

    @property
    def voters(self) -> tuple[int, ...]:
        return tuple(index for index, _ in self.votes)

    def is_full(self, num_servers: int) -> bool:
        return len(self.votes) == num_servers

    def verify(self, definition) -> None:
        """Raise if this certificate does not commit its round output."""
        num_servers = definition.num_servers
        if not 0 <= self.leader < num_servers:
            raise InvalidProof(f"certificate names leader {self.leader} outside roster")
        if self.round_number < 0 or self.view < 0:
            raise InvalidProof("certificate round/view must be non-negative")
        if len(self.digest) != _DIGEST_BYTES:
            raise InvalidProof("certificate digest has wrong length")
        indices = self.voters
        if list(indices) != sorted(set(indices)):
            raise InvalidProof("certificate votes must be unique and ordered")
        if indices and not 0 <= indices[0] <= indices[-1] < num_servers:
            raise InvalidProof("certificate vote index outside roster")
        if len(indices) < quorum_size(num_servers):
            raise InvalidProof(
                f"certificate has {len(indices)} votes, quorum is "
                f"{quorum_size(num_servers)} of {num_servers}"
            )
        bad = _invalid_vote_positions(
            definition, self.round_number, self.view, self.digest, self.votes
        )
        if bad:
            names = ", ".join(definition.server_name(indices[i]) for i in bad)
            raise InvalidSignature(f"certificate vote signature invalid from: {names}")

    def to_wire(self, group) -> bytes:
        return pack_fields(
            self.round_number,
            self.view,
            self.leader,
            self.digest,
            *(
                pack_fields(index, signature.to_bytes(group))
                for index, signature in self.votes
            ),
        )

    @classmethod
    def from_wire(cls, group, data: bytes) -> "RoundCertificate":
        """Invert :meth:`to_wire`; :class:`WireDecodeError` if malformed
        (:meth:`verify` judges what decodes)."""
        round_number, view, leader, digest, *entries = unpack_typed(
            data, "iiibb*", "certificate"
        )
        votes = []
        for entry in entries:
            index, signature = unpack_typed(entry, "ib", "certificate vote")
            signature = decode_value(
                "vote", schnorr.Signature.from_bytes, group, signature
            )
            votes.append((index, signature))
        return cls(
            round_number=round_number,
            view=view,
            leader=leader,
            digest=_checked_digest(digest, "certificate"),
            votes=tuple(votes),
        )


@dataclass(frozen=True)
class EquivocationProof:
    """Two conflicting signed proposals for one ``(round, view)``.

    Transferable: verification needs only the group definition, so the
    conviction survives checkpointing, audit-log export, and handoff to
    a party that never ran the session.
    """

    round_number: int
    view: int
    leader: int
    first: SignedEnvelope
    second: SignedEnvelope

    def verify(self, definition) -> None:
        """Raise unless both proposals authentically convict the leader."""
        if not 0 <= self.leader < definition.num_servers:
            raise InvalidProof(f"proof names leader {self.leader} outside roster")
        leader_name = definition.server_name(self.leader)
        group_id = definition.group_id()
        digests = []
        for envelope in (self.first, self.second):
            if envelope.msg_type != LEADER_PROPOSE:
                raise InvalidProof("proof envelope is not a proposal")
            if envelope.sender != leader_name:
                raise InvalidProof(
                    f"proof envelope signed by {envelope.sender!r}, "
                    f"expected {leader_name!r}"
                )
            if envelope.group_id != group_id:
                raise InvalidProof("proof envelope from a different group")
            if envelope.round_number != self.round_number:
                raise InvalidProof("proof envelope from a different round")
            view, digest = proposal_view_digest(envelope)
            if view != self.view:
                raise InvalidProof("proof envelope from a different view")
            envelope.verify(definition.server_keys[self.leader])
            digests.append(digest)
        if digests[0] == digests[1]:
            raise InvalidProof("proposals agree — no equivocation to prove")

    def to_wire(self, group) -> bytes:
        from repro.net.wire import encode_envelope

        return pack_fields(
            self.round_number,
            self.view,
            self.leader,
            encode_envelope(group, self.first),
            encode_envelope(group, self.second),
        )

    @classmethod
    def from_wire(cls, group, data: bytes) -> "EquivocationProof":
        """Invert :meth:`to_wire`; :class:`WireDecodeError` if malformed
        (:meth:`verify` judges what decodes)."""
        from repro.net.wire import decode_envelope

        round_number, view, leader, first, second = unpack_typed(
            data, "iiibb", "equivocation proof"
        )
        return cls(
            round_number=round_number,
            view=view,
            leader=leader,
            first=decode_envelope(group, first),
            second=decode_envelope(group, second),
        )


def _authenticated(definition, certificate: RoundCertificate, registry):
    """``certificate`` once it verifies, forged votes stripped if need be."""
    try:
        certificate.verify(definition)
        return certificate
    except InvalidSignature:
        bad = find_invalid_votes(
            definition,
            certificate.round_number,
            certificate.view,
            certificate.digest,
            dict(certificate.votes),
        )
    registry.counter("session.votes_stripped").inc(len(bad))
    stripped = dataclasses.replace(
        certificate,
        votes=tuple((j, s) for j, s in certificate.votes if j not in bad),
    )
    stripped.verify(definition)
    return stripped


def adopt_round_evidence(
    definition,
    round_number: int,
    digest: bytes,
    certificates: dict,
    proofs: dict,
    convicted,
    registry,
):
    """What a coordinator keeps of the servers' reports for one round.

    ``certificates`` and ``proofs`` map a reporting server's index to the
    :class:`RoundCertificate` / :class:`EquivocationProof` it reported;
    ``digest`` is the digest of the output every server agreed on.
    Returns ``(certificate, convictions)``: the one certificate the
    session archives, and ``(reporter, proof)`` for each verified proof
    whose leader is not in ``convicted`` yet.  This is the only place a
    coordinator authenticates control-plane evidence, so every driver
    counts ``session.votes_stripped`` / ``view_changes_committed`` /
    ``servers_convicted`` the same way.

    Servers may legitimately report different-but-valid certificates for
    one round (a full one and a majority one cut at the view timer);
    candidates are tried strongest-first — most votes, then lowest view,
    then lowest reporting server.  Engines record vote signatures
    unverified, so a candidate carrying forged votes is repaired by
    stripping them: the honest quorum underneath still commits the
    round, and vote forgery cannot halt the session.  If no quorum
    survives, the next candidate is tried.
    """
    failure: Exception = ProtocolError(
        f"round {round_number}: no server reported a certificate"
    )
    for sender, candidate in sorted(
        certificates.items(),
        key=lambda item: (-len(item[1].votes), item[1].view, item[0]),
    ):
        if candidate.round_number != round_number:
            failure = ProtocolError(
                f"round {round_number}: server {sender} certified round "
                f"{candidate.round_number}"
            )
        elif candidate.digest != digest:
            failure = ProtocolError(
                f"round {round_number}: certificate digest does not match "
                "the round output"
            )
        else:
            try:
                certificate = _authenticated(definition, candidate, registry)
                break
            except (InvalidProof, InvalidSignature) as exc:
                failure = exc
    else:
        raise failure
    if certificate.view > 0:
        registry.counter("session.view_changes_committed").inc()
    known = set(convicted)
    convictions = []
    for sender in sorted(proofs):
        proof = proofs[sender]
        if proof.leader in known:
            continue
        proof.verify(definition)
        known.add(proof.leader)
        convictions.append((sender, proof))
        registry.counter("session.servers_convicted").inc()
    return certificate, convictions

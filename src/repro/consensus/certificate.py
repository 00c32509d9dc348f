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
import hashlib
from dataclasses import dataclass

from repro.crypto import schnorr
from repro.crypto.groups import hot_bases_within_budget
from repro.errors import InvalidProof, InvalidSignature, ProtocolError
from repro.net.message import (
    LEADER_PROPOSE,
    SERVER_VOTE,
    SignedEnvelope,
    envelope_signed_payload,
)
from repro.util.serialization import pack_fields, unpack_fields

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
    """SHA-256 of the canonical round-output body — the certified value."""
    from repro.net.wire import encode_round_output_body

    return hashlib.sha256(encode_round_output_body(group, output)).digest()


def vote_body(view: int, digest: bytes) -> bytes:
    """Envelope body for a ``SERVER_VOTE`` (identical layout to a proposal)."""
    return pack_fields(view, digest)


def view_change_payload(new_view: int, reason: str) -> bytes:
    """Envelope body for a ``VIEW_CHANGE`` announcement."""
    return pack_fields(new_view, reason)


def proposal_view_digest(envelope: SignedEnvelope) -> tuple[int, bytes]:
    """Parse ``(view, digest)`` out of a proposal or vote body.

    Structural validation only — the caller checks the signature; this
    rejects malformed bodies from a Byzantine sender with a typed error
    instead of an unpack crash.
    """
    try:
        fields = unpack_fields(envelope.body)
    except ValueError as exc:
        raise ProtocolError(f"malformed consensus body: {exc}") from exc
    if len(fields) != 2 or not isinstance(fields[0], int) or not isinstance(fields[1], bytes):
        raise ProtocolError("consensus body must be (view, digest)")
    view, digest = fields
    if len(digest) != _DIGEST_BYTES:
        raise ProtocolError(
            f"consensus digest must be {_DIGEST_BYTES} bytes, got {len(digest)}"
        )
    return view, digest


def _vote_signed_payload(definition, server_index: int, round_number: int, body: bytes) -> bytes:
    # Certificates store only the signature; the SERVER_VOTE envelope's
    # payload is rebuilt from public data at verification time.
    return envelope_signed_payload(
        SERVER_VOTE,
        definition.server_name(server_index),
        definition.group_id(),
        round_number,
        body,
    )


def _invalid_vote_positions(
    definition, round_number: int, view: int, digest: bytes, votes
) -> tuple[int, ...]:
    """Positions in ``votes`` — ``(server index, signature)`` pairs — that fail.

    One batched check against the roster keys' fixed-base tables; only a
    failing batch bisects.
    """
    body = vote_body(view, digest)
    items = [
        (
            definition.server_keys[index],
            _vote_signed_payload(definition, index, round_number, body),
            signature,
        )
        for index, signature in votes
    ]
    hot = hot_bases_within_budget(key.y for key in definition.server_keys)
    if schnorr.batch_verify(items, hot_bases=hot):
        return ()
    return schnorr.find_invalid(items, hot_bases=hot, known_failed=True)


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
        try:
            fields = unpack_fields(data)
        except ValueError as exc:
            raise InvalidProof(f"malformed certificate: {exc}") from exc
        if len(fields) < 4:
            raise InvalidProof("certificate needs round, view, leader, digest")
        round_number, view, leader, digest = fields[:4]
        if (
            not isinstance(round_number, int)
            or not isinstance(view, int)
            or not isinstance(leader, int)
            or not isinstance(digest, bytes)
        ):
            raise InvalidProof("certificate header fields have wrong types")
        votes = []
        for blob in fields[4:]:
            if not isinstance(blob, bytes):
                raise InvalidProof("certificate vote entry must be bytes")
            try:
                entry = unpack_fields(blob)
            except ValueError as exc:
                raise InvalidProof(f"malformed certificate vote: {exc}") from exc
            if (
                len(entry) != 2
                or not isinstance(entry[0], int)
                or not isinstance(entry[1], bytes)
            ):
                raise InvalidProof("certificate vote must be (index, signature)")
            votes.append((entry[0], schnorr.Signature.from_bytes(group, entry[1])))
        return cls(
            round_number=round_number,
            view=view,
            leader=leader,
            digest=digest,
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
        from repro.net.wire import decode_envelope

        try:
            fields = unpack_fields(data)
        except ValueError as exc:
            raise InvalidProof(f"malformed equivocation proof: {exc}") from exc
        if (
            len(fields) != 5
            or not isinstance(fields[0], int)
            or not isinstance(fields[1], int)
            or not isinstance(fields[2], int)
            or not isinstance(fields[3], bytes)
            or not isinstance(fields[4], bytes)
        ):
            raise InvalidProof(
                "equivocation proof must be (round, view, leader, first, second)"
            )
        return cls(
            round_number=fields[0],
            view=fields[1],
            leader=fields[2],
            first=decode_envelope(group, fields[3]),
            second=decode_envelope(group, fields[4]),
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

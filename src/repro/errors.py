"""Exception hierarchy for the Dissent reproduction.

Every error raised by the library derives from :class:`DissentError`, so
applications can catch one base class.  Sub-hierarchies mirror the
subsystems: cryptography, protocol state machines, the verifiable shuffle,
and the accusation (blame) process.
"""

from __future__ import annotations


class DissentError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(DissentError):
    """A group definition or policy parameter is invalid."""


class CryptoError(DissentError):
    """Base class for cryptographic failures."""


class InvalidSignature(CryptoError):
    """A message signature failed verification."""


class InvalidProof(CryptoError):
    """A zero-knowledge proof failed verification."""


class InvalidCiphertext(CryptoError):
    """An ElGamal ciphertext is malformed or not a group element."""


class PaddingError(CryptoError):
    """Randomized message padding failed to decode."""


class ProtocolError(DissentError):
    """A node received a message violating the protocol state machine."""


class CommitmentMismatch(ProtocolError):
    """A server's revealed ciphertext does not match its commitment."""


class WireError(ProtocolError):
    """Base class for network wire-format and transport failures."""


class FrameTooLarge(WireError):
    """A length prefix exceeds the transport's hard frame-size cap."""


class FrameTruncated(WireError):
    """The stream ended (or a buffer ran out) mid-frame."""


class WireDecodeError(WireError):
    """Frame bytes do not decode to a well-formed protocol message."""


class UnknownMessageType(WireDecodeError):
    """A decoded envelope carries a type tag outside the protocol."""


class GroupBackendMismatch(WireDecodeError):
    """A peer announced a different crypto group backend in its hello.

    Raised before any protocol traffic flows: element widths differ
    between backends, so letting a mixed-backend session proceed would
    surface as garbage decodes deep inside round processing instead of
    one typed error at connection time.
    """


class ConnectionClosed(WireError):
    """The peer closed the connection (clean EOF between frames)."""


class SessionTimeout(ProtocolError):
    """A session-level wait (barrier gather, request, hello) hit its deadline.

    Carries enough structure for callers to distinguish *slow* from
    *dead*: ``peer`` names the node waited on (or ``None`` for a
    collective barrier), ``kind`` is the wire kind or phase that timed
    out, and ``deadline`` is the timeout in seconds that expired.
    """

    def __init__(
        self,
        message: str,
        *,
        peer: str | None = None,
        kind: str | None = None,
        deadline: float | None = None,
    ) -> None:
        super().__init__(message)
        self.peer = peer
        self.kind = kind
        self.deadline = deadline


class PeerUnreachable(SessionTimeout):
    """A specific peer is dark: dial retries or a request exhausted the budget.

    Subclass of :class:`SessionTimeout` so existing ``except`` clauses
    for timeouts still catch it, but callers that care can tell "the
    whole barrier was slow" from "this one peer is gone".
    """


class ViewChangeTimeout(SessionTimeout):
    """Leader rotation cycled through every eligible server without a quorum.

    Subclass of :class:`SessionTimeout` because callers treat it the same
    way operationally — the control plane could not make progress before
    its deadline — while the type records that view changes were tried.
    """


class CheckpointError(DissentError):
    """A durable checkpoint is missing, corrupt, or version-incompatible."""


class ShuffleError(DissentError):
    """The verifiable shuffle aborted or produced an invalid transcript."""


class AccusationError(DissentError):
    """The blame process could not run (malformed or unverifiable input)."""


class TraceInconclusive(AccusationError):
    """Tracing finished without identifying a disruptor.

    With honest servers this only happens when the accusation itself was
    bogus (no actual bit flip at the named position).
    """

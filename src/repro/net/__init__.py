"""Network layer: signed messages, wire format, transports, node daemons.

* :mod:`repro.net.message` — :class:`SignedEnvelope` and batched
  signature verification (every protocol message is signed, §3.3).
* :mod:`repro.net.wire` — canonical serialization for every envelope
  body plus length-prefixed framing with a hard size cap.
* :mod:`repro.net.transport` — duplex frame transports (asyncio TCP, an
  in-memory loopback) and ``FaultyTransport``, which applies a
  deterministic fault schedule to either.
* :mod:`repro.net.node` — ``ServerNode``/``ClientNode`` daemons that run
  the round engine and the client behind inbound envelope dispatch loops
  (also the ``python -m repro.net.node`` subprocess entry point).
* :mod:`repro.net.runner` — :class:`NetworkedSession`, the
  ``DissentSession``-surface driver that executes rounds purely by
  passing signed envelopes over transports.
"""

from repro.net.message import SignedEnvelope, make_envelope

__all__ = ["SignedEnvelope", "make_envelope", "NetworkedSession"]


def __getattr__(name):
    # Lazy: the runner pulls in the whole core; eagerly importing it here
    # would cycle through core.server -> net.message -> net.__init__.
    if name == "NetworkedSession":
        from repro.net.runner import NetworkedSession

        return NetworkedSession
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

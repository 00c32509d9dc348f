"""Per-layer spans recorded from the benchmark's side of the API.

The program under test is not edited.  :class:`Tracer.install` wraps a
fixed table of public callables: a module-level function is rebound in
every loaded ``repro.*`` module whose attribute *is* that function
(consumers write ``from x import f``, so patching the defining module
alone would miss them), a method is rebound on its class.
:meth:`Tracer.uninstall` puts every original object back.

The benchmark opens a *root* span around each operation it times (one
``run_round()`` call); a wrapped call made while no other wrapped call is
active on its thread becomes a child of the open root, which is how work
on the networked session's loop thread attaches to the one round in
flight.  A span's self time is its duration minus the part of it that its
children cover, so per round the layers' self times and the root's own
self time (``driver.unattributed_ms``) sum to the round span.

Coroutines (``TcpTransport.send``) are recorded as zero-length events
with a byte count: other tasks run while a send awaits, so its wall time
is not its own.  Function references captured before ``install`` (a
``functools.partial``, a dispatch dict) keep calling the original and are
not seen; none of the wrapped surfaces is used that way today.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import threading
import time
from collections import defaultdict

#: Root kind the per-round budget is computed over.
ROUND = "round"


class Span:
    """One timed call: which layer, which callable, caused by which span."""

    __slots__ = ("layer", "call", "parent", "root", "start", "end", "amount", "thread")

    def __init__(self, layer, call, parent=None, start=0.0, end=0.0, amount=0):
        self.layer = layer
        self.call = call
        self.parent = parent
        self.root = parent.root if parent is not None else self
        self.start = start
        self.end = end
        self.amount = amount
        self.thread = threading.get_ident()

    @property
    def duration(self) -> float:
        return self.end - self.start


def _count(args, result):
    return len(args[0])


def _result_len(args, result):
    return len(result)


def _result(args, result):
    return result


def _payload_len(args, result):
    return len(args[1])


#: (layer, module, attribute or Class.method, amount recorded per call).
#: ``*`` expands to every function of the module with that prefix.
TARGETS = (
    ("crypto.schnorr.batch_verify", "repro.crypto.schnorr", "batch_verify", _count),
    ("crypto.schnorr.verify", "repro.crypto.schnorr", "verify", None),
    ("crypto.schnorr.sign", "repro.crypto.schnorr", "sign", None),
    ("crypto.group.multiexp", "repro.crypto.groups", "SchnorrGroup.multiexp", _payload_len),
    ("crypto.group.multiexp", "repro.crypto.ec25519", "RistrettoGroup.multiexp", _payload_len),
    ("crypto.prng.pad", "repro.crypto.prng", "pair_stream", _result_len),
    ("util.bytesops.xor", "repro.util.bytesops", "xor_many", _result_len),
    ("util.bytesops.xor", "repro.util.bytesops", "xor_bytes", _result_len),
    ("core.client.produce", "repro.core.client", "DissentClient.produce_ciphertext", None),
    ("core.client.output", "repro.core.client", "DissentClient.handle_output", None),
    ("core.client.output", "repro.core.client", "DissentClient.handle_output_envelope", None),
    *(
        ("core.server.phase", "repro.core.server", f"DissentServer.{method}", None)
        for method in (
            "open_round",
            "accept_ciphertexts",
            "make_inventory",
            "receive_inventories",
            "compute_ciphertext",
            "receive_commitments",
            "reveal_ciphertext",
            "receive_reveals",
            "sign_output",
            "signature_envelope",
            "receive_signature_envelopes",
            "assemble_output",
            "output_envelope",
            "finish_round",
        )
    ),
    ("consensus.certify", "repro.core.server", "DissentServer.propose_round", None),
    ("consensus.certify", "repro.core.server", "DissentServer.vote_on_proposal", None),
    ("consensus.certify", "repro.consensus.certificate", "RoundCertificate.verify", None),
    ("consensus.certify", "repro.consensus.certificate", "find_invalid_votes", None),
    ("core.keyshuffle.key_shuffle", "repro.core.keyshuffle", "run_key_shuffle", None),
    ("core.keyshuffle.message_shuffle", "repro.core.keyshuffle", "run_message_shuffle", None),
    ("core.accusation.trace", "repro.core.accusation", "trace_accusation", None),
    ("net.wire.codec", "repro.net.wire", "encode_*", None),
    ("net.wire.codec", "repro.net.wire", "decode_*", None),
    ("net.wire.codec", "repro.net.wire", "FrameDecoder.feed", None),
    ("net.transport.send", "repro.net.transport", "TcpTransport.send", _payload_len),
    ("persist.checkpoint.write", "repro.persist", "save_session", _result),
    ("persist.checkpoint.restore", "repro.persist", "restore_session", None),
)


def _expand(module, attr):
    if not attr.endswith("*"):
        return [attr]
    prefix = attr[:-1]
    return sorted(
        name
        for name, value in vars(module).items()
        if name.startswith(prefix)
        and inspect.isfunction(value)
        and value.__module__ == module.__name__
    )


class Tracer:
    """Records spans in memory; nothing is written until :meth:`dump`."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.spans: list[Span] = []
        #: The root span the benchmark currently has open, if any.
        self.root: Span | None = None
        self._clock = clock
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    @contextlib.contextmanager
    def measure(self, kind: str, index: int | None = None):
        """Open a root span around one operation the benchmark times."""
        span = Span(kind, str(index) if index is not None else kind)
        self.root = span
        span.start = self._clock()
        try:
            yield span
        finally:
            span.end = self._clock()
            self.root = None
            self.spans.append(span)

    def _wrap(self, layer, call, fn, amount):
        spans, local, clock = self.spans, self._local, self._clock

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def event(*args, **kwargs):
                now = clock()
                spans.append(
                    Span(layer, call, self.root, now, now, amount(args, None))
                )
                return await fn(*args, **kwargs)

            return event

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span = Span(layer, call, stack[-1] if stack else self.root)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                spans.append(span)
            if amount is not None:
                span.amount = amount(args, result)
            return result

        return traced

    # -- patching -------------------------------------------------------

    @staticmethod
    def sites():
        """Every (owner, attribute, original, layer, call, amount) to rebind."""
        resolved = []
        for layer, module_name, attr, amount in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                class_name, method = attr.split(".")
                owner = getattr(module, class_name)
                resolved.append(
                    (owner, method, vars(owner)[method], layer, attr, amount)
                )
                continue
            for name in _expand(module, attr):
                original = getattr(module, name)
                call = f"{module_name.rsplit('.', 1)[-1]}.{name}"
                for loaded_name, loaded in list(sys.modules.items()):
                    if loaded is None or not (
                        loaded_name == "repro" or loaded_name.startswith("repro.")
                    ):
                        continue
                    for alias, value in list(vars(loaded).items()):
                        if value is original:
                            resolved.append(
                                (loaded, alias, original, layer, call, amount)
                            )
        return resolved

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers: dict[int, object] = {}
        for owner, attr, original, layer, call, amount in self.sites():
            wrapper = wrappers.get(id(original))
            if wrapper is None:
                wrapper = wrappers[id(original)] = self._wrap(
                    layer, call, original, amount
                )
            setattr(owner, attr, wrapper)
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output ---------------------------------------------------------

    def dump(self, path) -> int:
        """Write every span as one NDJSON line; returns the span count."""
        ordered = sorted(self.spans, key=lambda span: span.start)
        ids = {span: index for index, span in enumerate(ordered)}
        with open(path, "w", encoding="utf-8") as out:
            for span in ordered:
                root = span.root
                out.write(
                    json.dumps(
                        {
                            "id": ids[span],
                            "layer": span.layer,
                            "call": span.call,
                            "start": span.start,
                            "end": span.end,
                            "parent": ids.get(span.parent),
                            "root": ids.get(root),
                            "round": root.call if root.layer == ROUND else None,
                            "amount": span.amount,
                            "thread": span.thread,
                        }
                    )
                    + "\n"
                )
        return len(ordered)


def self_times(spans) -> dict[Span, float]:
    """Each span's duration minus the part its direct children cover."""
    covered: dict[Span, float] = defaultdict(float)
    for span in spans:
        parent = span.parent
        if parent is not None:
            overlap = min(span.end, parent.end) - max(span.start, parent.start)
            if overlap > 0:
                covered[parent] += overlap
    return {span: span.duration - covered[span] for span in spans}


def round_budget(spans) -> dict:
    """Per-round layer budget over the spans under ``round`` roots.

    Returns ``rounds`` (how many roots), ``round_span_ms`` (their mean
    duration), ``unattributed_ms`` (their mean self time) and ``layers``:
    per layer the self ms, inclusive ms of outermost spans, call count
    and amount, each per round.  Self times and ``unattributed_ms`` sum
    to ``round_span_ms``.
    """
    own = self_times(spans)
    roots = [span for span in spans if span.parent is None and span.layer == ROUND]
    rounds = len(roots)
    layers: dict[str, dict[str, float]] = defaultdict(
        lambda: {"self_ms": 0.0, "incl_ms": 0.0, "n": 0.0, "amount": 0.0}
    )
    calls: dict[str, float] = defaultdict(float)
    if rounds:
        for span in spans:
            if span.parent is None or span.root.layer != ROUND:
                continue
            layer = layers[span.layer]
            layer["self_ms"] += own[span] * 1e3 / rounds
            layer["n"] += 1 / rounds
            layer["amount"] += span.amount / rounds
            if span.parent.layer != span.layer:
                layer["incl_ms"] += span.duration * 1e3 / rounds
            calls[span.call] += 1 / rounds
    return {
        "rounds": rounds,
        "round_span_ms": sum(r.duration for r in roots) * 1e3 / rounds if rounds else 0.0,
        "unattributed_ms": sum(own[r] for r in roots) * 1e3 / rounds if rounds else 0.0,
        "layers": dict(layers),
        "calls": dict(calls),
    }


def total_seconds(spans, layer: str) -> float:
    """Total duration of a layer's outermost spans, wherever they ran."""
    return sum(
        span.duration
        for span in spans
        if span.layer == layer
        and (span.parent is None or span.parent.layer != layer)
    )

"""Deterministic keyed PRNG streams (the DC-net "coins").

Classic DC-nets replace per-bit shared coin flips with a cryptographic
PRNG seeded by the pairwise shared secret (paper §3.1).  Dissent needs, for
every (client i, server j) pair and every round r, one pseudo-random string
``s_ij`` of exactly the round's length, computable independently by both
endpoints.  Correctness of the whole system is the statement that each such
string is XORed into the round an even number of times.

We build the stream from SHAKE-256 (an XOF), domain-separated by purpose,
pair secret, and round number.  ``hashlib``'s SHAKE-256 squeezes 512 KiB
in 1.1 ms on the development box (~470 MB/s) and holds the GIL while it
does (``digest`` never releases it), so pads for several pairs do not
overlap on threads; this is the stdlib floor under the bulk workload's
``crypto.prng.pad_ms``.

Per-pair secrets never change within a session, so the domain, length
prefix, and secret are absorbed **once** into a cached SHAKE state; each
round then ``copy()``s the state and absorbs only the 8-byte round number.
Output is byte-for-byte identical to absorbing everything fresh (SHAKE
absorption is sequential, and ``hashlib`` copies preserve absorbed state)
while skipping the secret re-hash on every one of the N*M per-round
streams — and, as a side effect, keeping long-term secrets out of the
per-round hashing hot loop.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

from repro.obs import metrics as _metrics

_DOMAIN_PAIR = b"dissent.pair-stream.v1"
_DOMAIN_SEED = b"dissent.seed-stream.v1"

#: Pre-absorbed SHAKE-256 states keyed by pair secret, LRU-bounded.  A
#: state is a few hundred bytes, so the bound is generous: a 1024-client /
#: 32-server node touches 32 distinct secrets (a server: up to 1024).
#:
#: Deliberate tradeoff: cached secrets (keys and absorbed states) stay
#: reachable in process memory until evicted — longer than the old
#: absorb-and-drop derivation kept them.  A node retiring a session's DH
#: secrets should call :func:`clear_pair_state_cache` so they cannot be
#: recovered from a later heap disclosure.
_PAIR_STATE_CACHE_MAX = 4096
_pair_states: OrderedDict[bytes, "hashlib._Hash"] = OrderedDict()


def clear_pair_state_cache() -> None:
    """Drop every cached pair-secret state (session teardown hygiene)."""
    _pair_states.clear()


def _pair_state(shared_secret: bytes):
    """The SHAKE state with domain, length prefix, and secret absorbed."""
    state = _pair_states.get(shared_secret)
    if state is None:
        state = hashlib.shake_256()
        state.update(_DOMAIN_PAIR)
        state.update(len(shared_secret).to_bytes(4, "big"))
        state.update(shared_secret)
        _pair_states[shared_secret] = state
        if len(_pair_states) > _PAIR_STATE_CACHE_MAX:
            _pair_states.popitem(last=False)
    else:
        _pair_states.move_to_end(shared_secret)
    return state


def pair_stream(shared_secret: bytes, round_number: int, length: int) -> bytes:
    """Pseudo-random string for one (client, server) pair in one round.

    Args:
        shared_secret: the DH-derived pairwise secret K_ij.
        round_number: DC-net round index r (domain-separates rounds so a
            string never repeats across rounds).
        length: byte length of the round's ciphertext.

    Returns:
        ``length`` pseudo-random bytes, identical for both endpoints.
    """
    if length < 0:
        raise ValueError("stream length must be non-negative")
    xof = _pair_state(shared_secret).copy()
    xof.update(round_number.to_bytes(8, "big"))
    return xof.digest(length)


def pair_stream_bit(shared_secret: bytes, round_number: int, bit_index: int) -> int:
    """Single bit of :func:`pair_stream` (used in accusation tracing).

    Servers and clients reveal individual PRNG bits at a witness position;
    recomputing only the prefix up to that bit keeps tracing cheap.
    """
    if bit_index < 0:
        raise ValueError("bit index must be non-negative")
    prefix = pair_stream(shared_secret, round_number, bit_index // 8 + 1)
    return (prefix[bit_index // 8] >> (7 - (bit_index % 8))) & 1


class PadPrefetcher:
    """Derives pair streams *ahead of need* so round hot paths only copy.

    The pipelined round engine keeps a window of W rounds in flight; the
    N*M SHAKE squeezes for rounds ``r+1 .. r+W-1`` can therefore run while
    round ``r`` is still in its commit/reveal exchanges.  A prefetcher is
    a bounded cache in front of :func:`pair_stream`:

    * :meth:`prefetch` derives and caches the pads for the next ``window``
      rounds of a set of pair secrets (charged off the critical path by
      the pipeline driver);
    * :meth:`pair_stream` is a drop-in replacement for the module-level
      function — byte-for-byte identical output, served from the cache
      when prefetched (``hits``) and derived on the spot otherwise
      (``misses``).

    A cached pad longer than the requested length serves any shorter
    request: SHAKE-256 is an XOF, so ``digest(n)`` is a prefix of
    ``digest(m)`` for ``n <= m``.

    One prefetcher serves one node.  In-process sessions may share a
    single instance across all nodes — both endpoints of a pair derive
    the *same* bytes, so sharing additionally halves total pad work; a
    deployment would run one per machine.  Like the pair-state cache
    above, cached pads keep key-derived material in memory until evicted:
    call :meth:`clear` on session teardown.
    """

    def __init__(
        self, window: int = 4, max_entries: int = 4096, registry=None
    ) -> None:
        if window < 1:
            raise ValueError("prefetch window must be at least 1")
        if max_entries < 1:
            raise ValueError("pad cache needs at least one entry")
        self.window = window
        self.max_entries = max_entries
        self._pads: OrderedDict[tuple[bytes, int], bytes] = OrderedDict()
        # Counts live on a metrics registry (``prng.pads.*``); a private
        # registry when none is shared, so ``hits``/``misses`` below count
        # even with session telemetry disabled (benchmarks rely on them).
        if registry is None:
            registry = _metrics.MetricsRegistry()
        self.registry = registry
        self._hits = registry.counter("prng.pads.hits")
        self._misses = registry.counter("prng.pads.misses")
        self._prefetched = registry.counter("prng.pads.prefetched")
        self._cached_gauge = registry.gauge("prng.pads.cached")

    def prefetch(
        self,
        secrets,
        round_number: int,
        length: int,
        rounds: int | None = None,
    ) -> int:
        """Derive pads for ``rounds`` rounds starting at ``round_number``.

        Returns how many pads were newly derived (already-cached pads with
        sufficient length are skipped).
        """
        derived = 0
        count = self.window if rounds is None else rounds
        if count < 0:
            raise ValueError("prefetch round count must be non-negative")
        for r in range(round_number, round_number + count):
            for secret in secrets:
                key = (secret, r)
                cached = self._pads.get(key)
                if cached is not None and len(cached) >= length:
                    continue
                self._store(key, pair_stream(secret, r, length))
                derived += 1
        self._prefetched.inc(derived)
        return derived

    def pair_stream(self, shared_secret: bytes, round_number: int, length: int) -> bytes:
        """Drop-in for :func:`pair_stream`; cache-served when prefetched."""
        key = (shared_secret, round_number)
        cached = self._pads.get(key)
        if cached is not None and len(cached) >= length:
            self._hits.inc()
            self._pads.move_to_end(key)
            return cached[:length]
        self._misses.inc()
        pad = pair_stream(shared_secret, round_number, length)
        self._store(key, pad)
        return pad

    def _store(self, key: tuple[bytes, int], pad: bytes) -> None:
        self._pads[key] = pad
        self._pads.move_to_end(key)
        while len(self._pads) > self.max_entries:
            self._pads.popitem(last=False)
        self._cached_gauge.set_max(len(self._pads))

    def discard_before(self, round_number: int) -> None:
        """Drop pads for rounds older than ``round_number`` (completed)."""
        stale = [key for key in self._pads if key[1] < round_number]
        for key in stale:
            del self._pads[key]

    def clear(self) -> None:
        """Drop every cached pad (session teardown hygiene)."""
        self._pads.clear()

    # Read-through views of the registry counters, preserving the original
    # plain-attribute API (``fetcher.hits`` etc.).

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def prefetched(self) -> int:
        return self._prefetched.value

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Counters for benchmarks and logs."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "prefetched": self.prefetched,
            "hit_rate": round(self.hit_rate, 4),
            "cached": len(self._pads),
        }


def seeded_stream(seed: bytes, length: int) -> bytes:
    """Generic deterministic stream from an arbitrary seed.

    Used by the randomized padding scheme (§3.9: ``s = PRNG{r}``) and
    anywhere else a one-time pad must be derived from a short seed.
    """
    if length < 0:
        raise ValueError("stream length must be non-negative")
    xof = hashlib.shake_256()
    xof.update(_DOMAIN_SEED)
    xof.update(len(seed).to_bytes(4, "big"))
    xof.update(seed)
    return xof.digest(length)

"""Deterministic keyed PRNG streams (the DC-net "coins").

Classic DC-nets replace per-bit shared coin flips with a cryptographic
PRNG seeded by the pairwise shared secret (paper §3.1).  Dissent needs, for
every (client i, server j) pair and every round r, one pseudo-random string
``s_ij`` of exactly the round's length, computable independently by both
endpoints.  Correctness of the whole system is the statement that each such
string is XORed into the round an even number of times.

Pair streams come from SHAKE-128 (an XOF), domain-separated by purpose,
pair secret, and round number.  Its 128-bit security matches the
ristretto255 group the pair secrets come from, and its 168-byte rate
(against SHAKE-256's 136) means ~19% fewer Keccak permutations per pad
byte: ``hashlib`` squeezes 512 KiB in 0.95 ms with SHAKE-128 and 1.17 ms
with SHAKE-256 on a 2-vCPU x86-64 VM (~550 against ~450 MB/s).  A squeeze
holds the GIL (``digest`` never releases it), so pads for several pairs do
not overlap on threads; this is the stdlib floor under the bulk
workload's ``crypto.prng.pad_ms``.  Every pad cancels in the round's XOR,
so the choice of XOF changes ciphertexts, commitments and reveals but no
cleartext; a node on another pad XOF is refused by the wire envelope's
version tag before it can look like a disruptor.  (:func:`seeded_stream`,
whose output *is* cleartext, stays on SHAKE-256.)

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
from collections.abc import Iterable

_DOMAIN_PAIR = b"dissent.pair-stream.v2"
_DOMAIN_SEED = b"dissent.seed-stream.v1"

#: Pre-absorbed SHAKE-128 states keyed by pair secret, LRU-bounded.  A
#: state is a few hundred bytes, so the bound is generous: a 1024-client /
#: 32-server node touches 32 distinct secrets (a server: up to 1024).
#:
#: Deliberate tradeoff: cached secrets (keys and absorbed states) stay
#: reachable in process memory until evicted — longer than the old
#: absorb-and-drop derivation kept them.  A client or server that is torn
#: down drops its own with :func:`forget_pair_states`, so they cannot be
#: recovered from a later heap disclosure.  The secrets also persist
#: outside the process: a member's checkpoint section carries them
#: (:mod:`repro.persist.codec`), so a restart repeats no key agreement,
#: and a checkpoint file is as sensitive as the pseudonym keys and RNG
#: states it already held.
_PAIR_STATE_CACHE_MAX = 4096
_pair_states: OrderedDict[bytes, "hashlib._Hash"] = OrderedDict()


def clear_pair_state_cache() -> None:
    """Drop every cached pair-secret state in the process."""
    _pair_states.clear()


def forget_pair_states(shared_secrets: Iterable[bytes]) -> None:
    """Drop the cached states of ``shared_secrets`` (a member's teardown).

    Other secrets' states stay, so a session co-hosted beside the one
    retiring keeps its own.
    """
    for shared_secret in shared_secrets:
        _pair_states.pop(shared_secret, None)


def _pair_state(shared_secret: bytes):
    """The SHAKE state with domain, length prefix, and secret absorbed."""
    # Pop and re-insert, not move_to_end: a teardown's forget may run
    # between any two steps here (it is a finalizer).
    state = _pair_states.pop(shared_secret, None)
    if state is None:
        state = hashlib.shake_128()
        state.update(_DOMAIN_PAIR)
        state.update(len(shared_secret).to_bytes(4, "big"))
        state.update(shared_secret)
    _pair_states[shared_secret] = state
    if len(_pair_states) > _PAIR_STATE_CACHE_MAX:
        _pair_states.popitem(last=False)
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

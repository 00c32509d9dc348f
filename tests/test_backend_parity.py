"""Cross-backend parity: the modp and EC backends under every consumer.

Every property here runs on both a modp group and the ristretto255 EC
backend through the same abstract :class:`repro.crypto.groups.Group`
interface: proofs, batched signature verification with bisection blame,
shuffle transcripts, and full lockstep sessions.  Sessions must be
bit-identical run-to-run *within* a backend, and deliver identical
cleartexts *across* backends for the same seed.

Also home to the backend registry/selection tests, the ristretto test
vectors, the per-backend pin of signature and ElGamal / DLEQ bytes (an
optimisation may change how an element is computed, never which), the
EC-sized wire-frame regression (satellite of the audit for
hardcoded 1536-bit size assumptions), the hello backend handshake, and
the per-backend crypto counters.
"""

import asyncio
import hashlib
import random
import secrets

import pytest

from repro.core.config import GroupDefinition, Policy, make_group_definition
from repro.core.session import DissentSession, build_session
from repro.crypto import elgamal, proofs, schnorr, shuffle
from repro.crypto.ec25519 import ec_group
from repro.crypto.groups import (
    BACKEND_ENV,
    GROUP_FACTORIES,
    default_group_name,
    group_by_name,
    production_group,
    resolve_group_name,
    wide_group,
)
from repro.crypto.groups import testing_group as modp_group
from repro.crypto.keys import PrivateKey
from repro.errors import ConfigError, CryptoError, GroupBackendMismatch
from repro.obs import metrics as _metrics

#: The two backends every parity property must hold on.  ``test-256`` is
#: the fast modp representative (same code path as modp1536/modp2048,
#: shorter modulus); ``ec25519`` is the ristretto255 backend.
BACKENDS = ("test-256", "ec25519")

SOUNDNESS = 4  # cut-and-choose bits; small for speed


@pytest.fixture(scope="module", params=BACKENDS)
def bgroup(request):
    return group_by_name(request.param)


@pytest.fixture
def brng():
    return random.Random(0xBACC)


# ---------------------------------------------------------------------------
# Registry and selection
# ---------------------------------------------------------------------------


class TestBackendRegistry:
    def test_names_resolve_to_cached_instances(self):
        assert group_by_name("modp1536") is wide_group()
        assert group_by_name("modp2048") is production_group()
        assert group_by_name("ec25519") is ec_group()

    def test_backend_names_and_widths(self):
        assert wide_group().name == "modp1536"
        assert wide_group().element_bytes == 192
        ec = ec_group()
        assert ec.name == "ec25519"
        assert ec.element_bytes == 32
        assert ec.scalar_bytes == 32
        assert not ec.is_toy
        assert modp_group().is_toy

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigError, match="unknown group"):
            group_by_name("modp-doesnt-exist")

    def test_env_steers_default(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert default_group_name() == "test-256"
        monkeypatch.setenv(BACKEND_ENV, "ec25519")
        assert default_group_name() == "ec25519"
        monkeypatch.setenv(BACKEND_ENV, "bogus")
        with pytest.raises(ConfigError, match=BACKEND_ENV):
            default_group_name()

    def test_resolution_order(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "tiny-64")
        policy = Policy(group_backend="test-512")
        # Explicit beats policy beats environment.
        assert resolve_group_name("ec25519", policy) == "ec25519"
        assert resolve_group_name(None, policy) == "test-512"
        assert resolve_group_name(None, Policy()) == "tiny-64"

    def test_policy_rejects_unknown_backend(self):
        with pytest.raises(ConfigError, match="group_backend"):
            Policy(group_backend="modp-unknown")

    def test_definition_rejects_mismatched_policy_backend(self, brng):
        group = modp_group()
        keys = [PrivateKey.generate(group, brng).public for _ in range(2)]
        with pytest.raises(ConfigError, match="policy selects backend"):
            make_group_definition(
                "test-256", keys[:1], keys[1:], Policy(group_backend="ec25519")
            )
        # A policy naming the definition's own backend is consistent.
        definition = make_group_definition(
            "modp1536",
            [PrivateKey.generate(wide_group(), brng).public],
            [PrivateKey.generate(wide_group(), brng).public],
            Policy(group_backend="modp1536"),
        )
        assert definition.group is wide_group()

    def test_policy_backend_steers_build_session(self):
        session = build_session(
            num_servers=2,
            num_clients=3,
            seed=5,
            policy=Policy(group_backend="tiny-64"),
        )
        assert session.definition.group.name == "tiny-64"

    def test_policy_dict_roundtrip_carries_backend(self):
        policy = Policy(group_backend="ec25519")
        assert Policy.from_dict(policy.to_dict()) == policy
        # Old serialized policies without the field still parse.
        legacy = policy.to_dict()
        del legacy["group_backend"]
        assert Policy.from_dict(legacy).group_backend == "auto"


# ---------------------------------------------------------------------------
# Ristretto255 vectors (RFC 9496)
# ---------------------------------------------------------------------------


#: RFC 9496 appendix A.1: the encodings of 0*B .. 15*B.
RFC9496_GENERATOR_MULTIPLES = (
    "0000000000000000000000000000000000000000000000000000000000000000",
    "e2f2ae0a6abc4e71a884a961c500515f58e30b6aa582dd8db6a65945e08d2d76",
    "6a493210f7499cd17fecb510ae0cea23a110e8d5b901f8acadd3095c73a3b919",
    "94741f5d5d52755ece4f23f044ee27d5d1ea1e2bd196b462166b16152a9d0259",
    "da80862773358b466ffadfe0b3293ab3d9fd53c5ea6c955358f568322daf6a57",
    "e882b131016b52c1d3337080187cf768423efccbb517bb495ab812c4160ff44e",
    "f64746d3c92b13050ed8d80236a7f0007c3b3f962f5ba793d19a601ebb1df403",
    "44f53520926ec81fbd5a387845beb7df85a96a24ece18738bdcfa6a7822a176d",
    "903293d8f2287ebe10e2374dc1a53e0bc887e592699f02d077d5263cdd55601c",
    "02622ace8f7303a31cafc63f8fc48fdc16e1c8c8d234b2f0d6685282a9076031",
    "20706fd788b2720a1ed2a5dad4952b01f413bcf0e7564de8cdc816689e2db95f",
    "bce83f8ba5dd2fa572864c24ba1810f9522bc6004afe95877ac73241cafdab42",
    "e4549ee16b9aa03099ca208c67adafcafa4c3f3e4e5303de6026e3ca8ff84460",
    "aa52e000df2e16f55fb1032fc33bc42742dad6bd5a8fc0be0167436c5948501f",
    "46376b80f409b29dc2b5f6f0c52591990896e5716f41477cd30085ab7f10301e",
    "e0c418f7c8d9c4cdd7395b93ea124f3ad99021bb681dfc3302a9d99a2e53e64e",
)


class TestRistrettoVectors:
    def test_generator_multiples_through_every_exponentiation(self):
        # The fixed-base walk halves the exponent and encodes the double;
        # the vectors pin that 2 * (k/2 mod L) * B is still k * B, on the
        # generator's table, on the table a roster key would get, on the
        # ladder and in a product of walks.
        ec = ec_group()
        two = ec.exp_g(2)
        for k, expected in enumerate(RFC9496_GENERATOR_MULTIPLES):
            for element in (
                ec.exp_g(k),
                ec.exp_fixed(ec.g, k),
                ec.exp(ec.g, k),
                ec.multiexp([(ec.g, k % 2), (two, k // 2)], hot_bases=(two,)),
            ):
                assert ec.element_to_bytes(element).hex() == expected
        for k in range(0, 16, 2):
            assert ec.element_to_bytes(ec.exp_fixed(two, k // 2)).hex() == (
                RFC9496_GENERATOR_MULTIPLES[k]
            )

    def test_basepoint_encoding(self):
        ec = ec_group()
        assert ec.element_to_bytes(ec.g).hex() == (
            "e2f2ae0a6abc4e71a884a961c500515f"
            "58e30b6aa582dd8db6a65945e08d2d76"
        )

    def test_identity_is_all_zero(self):
        ec = ec_group()
        assert ec.identity() == 0
        assert ec.element_to_bytes(0) == bytes(32)
        assert ec.is_element(0)

    def test_small_multiples_consistent(self):
        ec = ec_group()
        doubled = ec.mul(ec.g, ec.g)
        assert doubled == ec.exp(ec.g, 2) == ec.exp_g(2)
        assert ec.mul(doubled, ec.inv(ec.g)) == ec.g

    def test_non_canonical_encodings_rejected(self):
        ec = ec_group()
        # Field value p (non-canonical zero) and an odd ("negative") value.
        p_le = (2**255 - 19).to_bytes(32, "little")
        assert not ec.is_element(int.from_bytes(p_le, "big"))
        one_le = (1).to_bytes(32, "little")
        assert not ec.is_element(int.from_bytes(one_le, "big"))
        with pytest.raises(CryptoError):
            ec.element_from_bytes(b"\xff" * 32)


# ---------------------------------------------------------------------------
# Group contract
# ---------------------------------------------------------------------------


class TestGroupContract:
    def test_group_laws(self, bgroup, brng):
        g = bgroup
        a, b = g.random_scalar(brng), g.random_scalar(brng)
        x = g.exp_g(a)
        assert g.is_element(x)
        assert x == g.exp(g.g, a)
        assert g.exp(x, b) == g.exp_g(a * b % g.q)
        assert g.mul(g.exp_g(a), g.exp_g(b)) == g.exp_g((a + b) % g.q)
        assert g.mul(x, g.inv(x)) == g.identity()
        assert g.exp(x, 0) == g.identity()
        assert g.exp(x, -1) == g.inv(x)
        assert g.exp_fixed(x, b) == g.exp(x, b)

    def test_multiexp_matches_naive_product(self, bgroup, brng):
        g = bgroup
        pairs = [
            (g.random_element(brng), brng.randrange(-g.q, g.q))
            for _ in range(17)
        ]
        pairs.append((g.g, 12345))
        pairs.append((pairs[0][0], 777))  # duplicate base merge
        expected = g.identity()
        for base, exponent in pairs:
            expected = g.mul(expected, g.exp(base, exponent))
        assert g.multiexp(pairs) == expected
        assert g.multiexp(pairs, hot_bases=[pairs[0][0]]) == expected
        assert g.multiexp([]) == g.identity()

    def test_multiexp_bare_factor_and_bare_inverse(self, bgroup, brng):
        # Exponents 1 and -1 skip the ladder on both backends; alone, with
        # a ladder beside them, and on the generator and a hot base.
        g = bgroup
        a, b, c = (g.random_element(brng) for _ in range(3))
        e = brng.randrange(2, g.q - 1)
        quotient = g.mul(a, g.inv(b))
        assert g.multiexp(((a, 1), (b, -1))) == quotient
        assert g.multiexp(((a, 1), (b, g.q - 1))) == quotient
        assert g.multiexp(((b, -1),)) == g.inv(b)
        assert g.multiexp(((a, 1), (b, -1), (c, e))) == g.mul(quotient, g.exp(c, e))
        assert g.multiexp(((a, 1), (g.g, -1))) == g.mul(a, g.inv(g.g))
        assert g.multiexp(((a, 1), (b, -1)), hot_bases=(b,)) == quotient
        assert g.multiexp(((a, 1), (a, -1))) == g.identity()

    def test_element_bytes_roundtrip(self, bgroup, brng):
        g = bgroup
        x = g.random_element(brng)
        data = g.element_to_bytes(x)
        assert len(data) == g.element_bytes
        assert g.element_from_bytes(data) == x
        with pytest.raises(CryptoError):
            g.element_from_bytes(data + b"\x00")

    def test_membership_validation(self, bgroup, brng):
        g = bgroup
        assert not g.is_element(-1)
        assert not g.is_element(1 << (8 * g.element_bytes + 1))
        rejected = sum(
            not g.is_element(brng.getrandbits(8 * g.element_bytes))
            for _ in range(8)
        )
        assert rejected > 0  # random junk can't all be valid encodings
        with pytest.raises(CryptoError):
            g.require_element(-1)

    def test_message_embedding_roundtrip(self, bgroup):
        g = bgroup
        if g.message_bytes < 5:
            pytest.skip("group too small to embed test messages")
        for message in (b"", b"\x00\x00lead", b"x" * g.message_bytes):
            element = g.encode_message(message)
            assert g.is_element(element)
            assert g.decode_message(element) == message
        with pytest.raises(CryptoError):
            g.encode_message(b"y" * (g.message_bytes + 1))

    def test_hash_to_scalar_domain_separation(self):
        modp, ec = modp_group(), ec_group()
        parts = (b"ctx", b"transcript")
        a, b = modp.hash_to_scalar(*parts), ec.hash_to_scalar(*parts)
        assert 0 <= a < modp.q and 0 <= b < ec.q
        assert a != b  # backend name is bound into the domain
        assert modp.hash_to_scalar(*parts) == a  # deterministic


# ---------------------------------------------------------------------------
# Proofs, signatures, blame — parity
# ---------------------------------------------------------------------------


class TestProofParity:
    def test_dleq_batch_and_bisection(self, bgroup, brng):
        g = bgroup
        items = []
        for i in range(6):
            x = g.random_scalar(brng)
            h = g.random_element(brng)
            proof = proofs.prove_dleq(g, x, h, context=b"p%d" % i)
            items.append((g.exp_g(x), h, g.exp(h, x), proof, b"p%d" % i))
        assert proofs.batch_verify_dleq(g, items)
        bad = list(items)
        bad[1] = (*bad[1][:4], b"wrong-context")
        bad[4] = (g.random_element(brng), *bad[4][1:])
        assert not proofs.batch_verify_dleq(g, bad)
        assert proofs.find_invalid_dleq(g, bad) == (1, 4)

    def test_dleq_or_batch_and_bisection(self, bgroup, brng):
        g = bgroup
        items = []
        for i in range(4):
            x = g.random_scalar(brng)
            h = g.random_element(brng)
            real = (g.exp_g(x), h, g.exp(h, x))
            fake = (g.random_element(brng), h, g.random_element(brng))
            statements = (real, fake) if i % 2 == 0 else (fake, real)
            proof = proofs.prove_dleq_or(
                g, statements, i % 2, x, context=b"or%d" % i, rng=brng
            )
            items.append((statements, proof, b"or%d" % i))
        assert proofs.batch_verify_dleq_or(g, items)
        bad = list(items)
        bad[2] = (bad[2][0], bad[2][1], b"tampered")
        assert not proofs.batch_verify_dleq_or(g, bad)
        assert proofs.find_invalid_dleq_or(g, bad) == (2,)


class TestSchnorrParity:
    def test_batch_verify_and_blame(self, bgroup, brng):
        g = bgroup
        keys = [PrivateKey.generate(g, brng) for _ in range(4)]
        items = [
            (key.public, b"msg-%d" % i, schnorr.sign(key, b"msg-%d" % i))
            for i, key in enumerate(keys)
        ]
        assert schnorr.batch_verify(items)
        bad = list(items)
        bad[2] = (bad[2][0], b"forged", bad[2][2])
        assert not schnorr.batch_verify(bad)
        assert schnorr.find_invalid(bad) == (2,)

    def test_elgamal_layering(self, bgroup, brng):
        g = bgroup
        servers = [PrivateKey.generate(g, brng) for _ in range(3)]
        publics = [key.public for key in servers]
        plain = g.random_element(brng)
        ct = elgamal.encrypt_layered(publics, plain, r=brng.randrange(1, g.q))
        for key in reversed(servers):
            ct = elgamal.strip_layer(key, ct)
        assert elgamal.final_plaintext(g, ct) == plain


#: SHA-256 over (nine signatures, one ElGamal / DLEQ transcript) of
#: :func:`_pinned_bytes`, recorded at commit 3f5a487 — before ec25519's
#: fixed-base exponentiation encoded a double of a half.  Signatures are
#: deterministic, so a wrong half-exponent or table digit is a changed ``t``.
PINNED_BYTES = {
    "test-256": (
        "11934888abe302eff07420efeede9b554b3d2cec1ef630abc5bdc6ad45eacf9f",
        "f8e5bbebeec2c7173743f31a352380d3eecbbc74e0a30a3d0aa70ea928fde171",
    ),
    "ec25519": (
        "6b315439cb8e0ed12f9827f23410fb9aeb78e16cfae3660bb7697da5986a9a64",
        "fb39d720e9b172114d21e4eef76d32e11425560f6d6ec7510160a729738d8e51",
    ),
    "modp1536": (
        "3c45e036af4fd4569d81ba94d81f4b13184f9fc30b2531f956b97a937f146b3c",
        "52fae11aa95ce95e2738fe671e59bed31efa859de41e5f8d6a65d48d3947b4e5",
    ),
}


def _pinned_bytes(group, monkeypatch) -> tuple[str, str]:
    """Digests of everything a seeded sign / encrypt / mix / strip publishes."""
    rng = random.Random(2012)
    keys = [PrivateKey.generate(group, rng) for _ in range(3)]
    signed = hashlib.sha256()
    for key in keys:
        for message in (b"", b"round 7", b"\x00" * 150):
            signed.update(schnorr.sign(key, message).to_bytes(group))
    publics = [key.public for key in keys]
    combined = elgamal.combined_key(publics)
    plain = group.exp_g(rng.randrange(1, group.q))
    ct = elgamal.encrypt_layered(publics, plain, rng.randrange(1, group.q))
    published = [combined.y, ct.a, ct.b]
    for fixed_base in (True, False):
        ct, _ = elgamal.rerandomize(combined, ct, rng.randrange(1, group.q), fixed_base)
        published += [ct.a, ct.b]
    # The proofs draw their nonces from the OS; seed that too.
    monkeypatch.setattr(secrets, "randbelow", random.Random(1210).randrange)
    for key in keys:
        stripped = elgamal.strip_layer(key, ct)
        proof = proofs.prove_dleq(group, key.x, ct.a, b"pinned")
        share = group.exp(ct.a, key.x)
        assert proofs.verify_dleq(group, key.y, ct.a, share, proof, b"pinned")
        # The response is a scalar: it goes in through the generator walk.
        published += [stripped.b, share, proof.t1, proof.t2, group.exp_g(proof.s)]
        ct = stripped
    assert ct.b == plain
    transcript = hashlib.sha256(b"".join(map(group.element_to_bytes, published)))
    return signed.hexdigest(), transcript.hexdigest()


class TestPinnedBytes:
    @pytest.mark.parametrize("name", sorted(PINNED_BYTES))
    def test_signatures_and_elgamal_transcript_equal_the_recorded_bytes(
        self, monkeypatch, name
    ):
        assert _pinned_bytes(group_by_name(name), monkeypatch) == PINNED_BYTES[name]


class TestShuffleParity:
    def test_transcript_verifies_and_binds_context(self, bgroup, brng):
        g = bgroup
        servers = [PrivateKey.generate(g, brng) for _ in range(2)]
        publics = [key.public for key in servers]
        elements = [g.random_element(brng) for _ in range(4)]
        inputs = [
            shuffle.prepare_element_input(publics, e, brng) for e in elements
        ]
        transcript = shuffle.run_cascade(servers, inputs, SOUNDNESS, b"ctx", brng)
        assert shuffle.verify_transcript(publics, transcript, b"ctx", SOUNDNESS)
        assert not shuffle.verify_transcript(
            publics, transcript, b"other", SOUNDNESS
        )
        assert sorted(transcript.outputs(g)) == sorted(elements)

    def test_message_shuffle_roundtrip(self, bgroup, brng):
        g = bgroup
        if g.message_bytes < 5:
            pytest.skip("group too small to embed test messages")
        servers = [PrivateKey.generate(g, brng) for _ in range(2)]
        publics = [key.public for key in servers]
        width = shuffle.message_vector_width(g, 40)
        messages = [b"anon message %d" % i for i in range(3)]
        inputs = [
            shuffle.prepare_message_input(publics, m, width, brng)
            for m in messages
        ]
        transcript = shuffle.run_cascade(servers, inputs, SOUNDNESS, b"m", brng)
        assert shuffle.verify_transcript(publics, transcript, b"m", SOUNDNESS)
        decoded = sorted(
            shuffle.decode_message_output(g, vector)
            for vector in transcript.output_vectors(g)
        )
        assert decoded == sorted(messages)


# ---------------------------------------------------------------------------
# Full sessions — bit-identical per backend, same cleartexts across
# ---------------------------------------------------------------------------


def _run_lockstep(backend: str, seed: int = 77):
    session = DissentSession.build(
        group_name=backend,
        num_servers=2,
        num_clients=3,
        policy=Policy(shuffle_soundness_bits=SOUNDNESS),
        seed=seed,
    )
    session.setup()
    session.post(0, b"alpha")
    session.post(2, b"bravo")
    session.run_rounds(2)
    digest = [
        (
            r.round_number,
            r.status.name,
            r.output.cleartext if r.output else b"",
        )
        for r in session.records
    ]
    return session.delivered_messages(), digest


class TestSessionParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_lockstep_bit_identical_within_backend(self, backend):
        first = _run_lockstep(backend)
        second = _run_lockstep(backend)
        assert first == second

    def test_same_cleartexts_across_backends(self):
        modp_delivered, modp_digest = _run_lockstep(BACKENDS[0])
        ec_delivered, ec_digest = _run_lockstep(BACKENDS[1])
        assert modp_delivered == ec_delivered
        assert [d[:2] for d in modp_digest] == [d[:2] for d in ec_digest]
        assert b"alpha" in b"".join(body for _, _, body in modp_delivered)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_verdict_session_round(self, backend):
        from repro.verdict.session import VerdictSession

        session = VerdictSession.build(
            num_servers=2,
            num_clients=3,
            group_name=backend,
            seed=9,
            slot_payload=24,
        )
        session.post(0, b"proved")
        session.run_until_quiet()
        delivered = {m for _, _, m in session.delivered_messages(0)}
        assert b"proved" in delivered


# ---------------------------------------------------------------------------
# EC-sized wire frames (regression for the element-size audit)
# ---------------------------------------------------------------------------


class TestEcWireFrames:
    def test_envelope_roundtrip_ec_sized(self, brng):
        from repro.net.message import make_envelope
        from repro.net.wire import decode_envelope, encode_envelope

        for backend in BACKENDS:
            g = group_by_name(backend)
            key = PrivateKey.generate(g, brng)
            envelope = make_envelope(
                key, "client-ciphertext", "client-0", b"\x11" * 32, 3, b"payload"
            )
            data = encode_envelope(g, envelope)
            assert decode_envelope(g, data) == envelope
            # Signature framing must follow the backend's element width,
            # not a 192-byte modp assumption.
            assert (
                g.element_bytes + g.scalar_bytes
                < len(data)
                <= g.element_bytes + g.scalar_bytes + 200
            )

    def test_ec_frames_reject_modp_sized_signature(self, brng):
        from repro.net.message import make_envelope
        from repro.net.wire import decode_envelope, encode_envelope
        from repro.errors import WireDecodeError

        modp = wide_group()
        key = PrivateKey.generate(modp, brng)
        envelope = make_envelope(
            key, "client-ciphertext", "client-0", b"\x22" * 32, 1, b"x"
        )
        data = encode_envelope(modp, envelope)
        # A 192-byte-element frame must not decode under the 32-byte EC
        # layout (this is why the hello handshake pins the backend).
        with pytest.raises(WireDecodeError):
            decode_envelope(ec_group(), data)

    def test_accusation_and_rebuttal_ec_sized(self, brng):
        from repro.core.accusation import (
            accusation_max_bytes,
            make_accusation,
            make_rebuttal,
            verify_rebuttal,
        )
        from repro.net.wire import (
            decode_accusation,
            decode_rebuttal,
            encode_accusation,
            encode_rebuttal,
        )

        g = ec_group()
        pseudonym = PrivateKey.generate(g, brng)
        accusation = make_accusation(
            pseudonym, g, round_number=4, slot_index=1, bit_index=17
        )
        data = encode_accusation(g, accusation)
        assert decode_accusation(g, data) == accusation
        assert len(data) <= accusation_max_bytes(g)

        client = PrivateKey.generate(g, brng)
        server = PrivateKey.generate(g, brng)
        rebuttal = make_rebuttal(client, server.public, server_index=0)
        assert verify_rebuttal(g, client.public, server.public, rebuttal)
        wire = encode_rebuttal(g, rebuttal)
        assert decode_rebuttal(g, wire) == rebuttal
        # EC frames are an order of magnitude smaller than 1536-bit ones.
        wide = wide_group()
        wide_client = PrivateKey.generate(wide, brng)
        wide_server = PrivateKey.generate(wide, brng)
        wide_wire = encode_rebuttal(
            wide, make_rebuttal(wide_client, wide_server.public, 0)
        )
        assert len(wire) < len(wide_wire) // 4


# ---------------------------------------------------------------------------
# Wire-visible backend handshake
# ---------------------------------------------------------------------------


class TestHelloBackendHandshake:
    def _hello(self, sender: str, group) -> bytes:
        from repro.net.wire import encode_routed
        from repro.util.serialization import pack_fields

        return encode_routed(
            "coord",
            sender,
            "hello",
            0,
            pack_fields(group.name, group.element_bytes),
        )

    def test_mismatched_backend_fails_fast_with_typed_error(self):
        from repro.net.runner import _Hub
        from repro.net.transport import loopback_pair

        async def scenario():
            hub = _Hub(group=ec_group())
            hub.expect(["server-0"])
            ours, theirs = loopback_pair()
            task = asyncio.ensure_future(hub.attach(ours))
            await theirs.send(self._hello("server-0", wide_group()))
            with pytest.raises(GroupBackendMismatch, match="modp1536"):
                await hub.wait_ready(timeout=5.0)
            await theirs.aclose()
            await task

        asyncio.run(scenario())

    def test_matching_backend_registers(self):
        from repro.net.runner import _Hub
        from repro.net.transport import loopback_pair

        async def scenario():
            hub = _Hub(group=ec_group())
            hub.expect(["server-0"])
            ours, theirs = loopback_pair()
            task = asyncio.ensure_future(hub.attach(ours))
            await theirs.send(self._hello("server-0", ec_group()))
            await hub.wait_ready(timeout=5.0)
            assert "server-0" in hub.transports
            await theirs.aclose()
            await task

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Per-backend instrumentation
# ---------------------------------------------------------------------------


class TestBackendCounters:
    def test_crypto_counters_labeled_by_backend(self, brng):
        registry = _metrics.MetricsRegistry()
        old = _metrics.set_global_registry(registry)
        try:
            for backend in BACKENDS:
                g = group_by_name(backend)
                g.exp_g(brng.randrange(1, g.q))
                g.multiexp(
                    [(g.random_element(brng), 3), (g.random_element(brng), 5)]
                )
            counters = registry.snapshot()["counters"]
        finally:
            _metrics.set_global_registry(old)
        for backend in BACKENDS:
            assert counters[f"crypto.fixed_base.exps.{backend}"] > 0
            assert counters[f"crypto.multiexp.calls.{backend}"] > 0
        # Aggregates still roll up across backends.
        assert counters["crypto.multiexp.calls"] == sum(
            counters[f"crypto.multiexp.calls.{b}"] for b in BACKENDS
        )

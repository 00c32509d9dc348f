"""Unit tests for the verifiable decryption mix cascade."""

import dataclasses
import hashlib
import random
import secrets

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import elgamal, shuffle
from repro.crypto.elgamal import Ciphertext
from repro.crypto.groups import group_by_name
from repro.crypto.keys import PrivateKey, PublicKey
from repro.errors import ShuffleError

#: The fast modp representative and the ristretto255 backend.
BACKENDS = ("test-256", "ec25519")

SOUNDNESS = 6  # small for speed; security-level tests use more


@pytest.fixture(scope="module")
def cascade_env():
    from repro.crypto import testing_group

    group = testing_group()
    rng = random.Random(99)
    servers = [PrivateKey.generate(group, rng) for _ in range(3)]
    publics = [key.public for key in servers]
    return group, rng, servers, publics


class TestKeyShuffleCascade:
    def test_outputs_are_permutation(self, cascade_env):
        group, rng, servers, publics = cascade_env
        elements = [group.random_element(rng) for _ in range(5)]
        inputs = [shuffle.prepare_element_input(publics, e, rng) for e in elements]
        transcript = shuffle.run_cascade(servers, inputs, SOUNDNESS, b"t", rng)
        assert sorted(transcript.outputs(group)) == sorted(elements)

    def test_transcript_verifies(self, cascade_env):
        group, rng, servers, publics = cascade_env
        inputs = [
            shuffle.prepare_element_input(publics, group.random_element(rng), rng)
            for _ in range(4)
        ]
        transcript = shuffle.run_cascade(servers, inputs, SOUNDNESS, b"ctx", rng)
        assert shuffle.verify_transcript(publics, transcript, b"ctx", SOUNDNESS)

    def test_wrong_context_fails(self, cascade_env):
        group, rng, servers, publics = cascade_env
        inputs = [
            shuffle.prepare_element_input(publics, group.random_element(rng), rng)
            for _ in range(3)
        ]
        transcript = shuffle.run_cascade(servers, inputs, SOUNDNESS, b"ctx", rng)
        assert not shuffle.verify_transcript(publics, transcript, b"other", SOUNDNESS)

    def test_single_server_cascade(self, cascade_env):
        group, rng, servers, _ = cascade_env
        solo = [servers[0]]
        publics = [servers[0].public]
        elements = [group.random_element(rng) for _ in range(3)]
        inputs = [shuffle.prepare_element_input(publics, e, rng) for e in elements]
        transcript = shuffle.run_cascade(solo, inputs, SOUNDNESS, b"s", rng)
        assert shuffle.verify_transcript(publics, transcript, b"s", SOUNDNESS)
        assert sorted(transcript.outputs(group)) == sorted(elements)

    def test_single_input(self, cascade_env):
        group, rng, servers, publics = cascade_env
        element = group.random_element(rng)
        inputs = [shuffle.prepare_element_input(publics, element, rng)]
        transcript = shuffle.run_cascade(servers, inputs, SOUNDNESS, b"1", rng)
        assert transcript.outputs(group) == [element]

    def test_empty_inputs_rejected(self, cascade_env):
        _, rng, servers, _ = cascade_env
        with pytest.raises(ShuffleError):
            shuffle.run_cascade(servers, [], SOUNDNESS, b"", rng)

    def test_no_servers_rejected(self, cascade_env):
        group, rng, _, publics = cascade_env
        inputs = [shuffle.prepare_element_input(publics, group.random_element(rng), rng)]
        with pytest.raises(ShuffleError):
            shuffle.run_cascade([], inputs, SOUNDNESS, b"", rng)


class TestTamperDetection:
    def _make_transcript(self, cascade_env, n=3):
        group, rng, servers, publics = cascade_env
        inputs = [
            shuffle.prepare_element_input(publics, group.random_element(rng), rng)
            for _ in range(n)
        ]
        return shuffle.run_cascade(servers, inputs, SOUNDNESS, b"tamper", rng)

    def test_swapped_outputs_detected(self, cascade_env):
        group, rng, servers, publics = cascade_env
        transcript = self._make_transcript(cascade_env)
        last = transcript.steps[-1]
        swapped = list(last.stripped)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        bad_step = dataclasses.replace(last, stripped=tuple(swapped))
        bad = dataclasses.replace(
            transcript, steps=transcript.steps[:-1] + (bad_step,)
        )
        assert not shuffle.verify_transcript(publics, bad, b"tamper", SOUNDNESS)

    def test_replaced_ciphertext_detected(self, cascade_env):
        group, rng, servers, publics = cascade_env
        transcript = self._make_transcript(cascade_env)
        first = transcript.steps[0]
        fake = shuffle.prepare_element_input(publics, group.random_element(rng), rng)
        permuted = (fake,) + first.permuted[1:]
        bad_step = dataclasses.replace(first, permuted=permuted)
        bad = dataclasses.replace(transcript, steps=(bad_step,) + transcript.steps[1:])
        assert not shuffle.verify_transcript(publics, bad, b"tamper", SOUNDNESS)

    def test_wrong_step_count_detected(self, cascade_env):
        _, _, _, publics = cascade_env
        transcript = self._make_transcript(cascade_env)
        bad = dataclasses.replace(transcript, steps=transcript.steps[:-1])
        assert not shuffle.verify_transcript(publics, bad, b"tamper", SOUNDNESS)


class TestMessageShuffle:
    def test_message_roundtrip(self, cascade_env):
        group, rng, servers, publics = cascade_env
        width = shuffle.message_vector_width(group, 40)
        messages = [b"first accusation", b"", b"third message!!"]
        inputs = [
            shuffle.prepare_message_input(publics, m, width, rng) for m in messages
        ]
        transcript = shuffle.run_cascade(servers, inputs, SOUNDNESS, b"msg", rng)
        assert shuffle.verify_transcript(publics, transcript, b"msg", SOUNDNESS)
        outputs = [
            shuffle.decode_message_output(group, vector)
            for vector in transcript.output_vectors(group)
        ]
        assert sorted(outputs) == sorted(messages)

    def test_width_calculation(self, cascade_env):
        group, *_ = cascade_env
        width = shuffle.message_vector_width(group, 100)
        assert width * group.message_bytes >= 102

    def test_oversize_message_rejected(self, cascade_env):
        group, rng, _, publics = cascade_env
        with pytest.raises(ShuffleError):
            shuffle.prepare_message_input(publics, b"x" * 500, 1, rng)

    def test_mixed_widths_rejected(self, cascade_env):
        group, rng, servers, publics = cascade_env
        a = shuffle.prepare_message_input(publics, b"a", 1, rng)
        b = shuffle.prepare_message_input(publics, b"b", 2, rng)
        with pytest.raises(ShuffleError):
            shuffle.run_cascade(servers, [a, b], SOUNDNESS, b"", rng)

    def test_permutation_secrecy_smoke(self, cascade_env):
        # With fresh randomness, repeated runs place a marked input at
        # varying output positions.
        group, rng, servers, publics = cascade_env
        elements = [group.random_element(rng) for _ in range(4)]
        positions = set()
        for trial in range(8):
            trial_rng = random.Random(1000 + trial)
            inputs = [
                shuffle.prepare_element_input(publics, e, trial_rng) for e in elements
            ]
            transcript = shuffle.run_cascade(servers, inputs, 2, b"p", trial_rng)
            positions.add(transcript.outputs(group).index(elements[0]))
        assert len(positions) > 1


class TestSoundnessRequirement:
    def test_stripped_bridges_rejected(self, cascade_env):
        # A prover must not choose its own cheating probability: a step
        # whose cut-and-choose argument was emptied out (zero bridges,
        # zero reveals) has to fail verification even though every
        # remaining check passes vacuously.
        group, rng, servers, publics = cascade_env
        inputs = [
            shuffle.prepare_element_input(publics, group.random_element(rng), rng)
            for _ in range(4)
        ]
        transcript = shuffle.run_cascade(servers, inputs, SOUNDNESS, b"z", rng)
        assert shuffle.verify_transcript(publics, transcript, b"z", SOUNDNESS)
        gutted_step = dataclasses.replace(
            transcript.steps[0],
            argument=shuffle.ShuffleArgument(bridges=(), reveals=()),
        )
        gutted = dataclasses.replace(
            transcript, steps=(gutted_step,) + transcript.steps[1:]
        )
        assert not shuffle.verify_transcript(publics, gutted, b"z", SOUNDNESS)

    def test_fewer_bridges_than_required_rejected(self, cascade_env):
        group, rng, servers, publics = cascade_env
        inputs = [
            shuffle.prepare_element_input(publics, group.random_element(rng), rng)
            for _ in range(3)
        ]
        transcript = shuffle.run_cascade(servers, inputs, SOUNDNESS - 2, b"w", rng)
        assert shuffle.verify_transcript(publics, transcript, b"w", SOUNDNESS - 2)
        # A verifier demanding more soundness than the prover supplied says no.
        assert not shuffle.verify_transcript(publics, transcript, b"w", SOUNDNESS)


# -- every published byte is pinned ------------------------------------------

#: SHA-256 over everything a seeded cascade publishes, generated at the
#: commit *before* the ElGamal operations became single ``multiexp``
#: products (PR 15's parent): the optimisation may change how an element
#: is computed, never which element.
PINNED_TRANSCRIPTS = {
    ("ec25519", 1, 8): "95a0a3568be6a7d43161c92980848b9d1b0a2c0993ebd2449456d6633a266efc",
    ("ec25519", 3, 4): "4857d54827b1bbbc50b834bac74f794fe6fd2632fb304998688dde52af2236f1",
    ("test-256", 1, 8): "c9640bd62b1f1fb3e4b302e18bd8d74d8ee17baedb735216cf25f35a36e3110e",
    ("test-256", 3, 4): "d572559622e07f00701f5472c9ddbfa3f043ed574a137daf2bb3b211fedf1b3f",
}


def _transcript_digest(group, transcript) -> str:
    """SHA-256 over every byte a cascade run publishes, in order."""
    h = hashlib.sha256()

    def vectors(rows):
        for vector in rows:
            for ct in vector:
                h.update(ct.to_bytes(group))

    vectors(transcript.inputs)
    for step in transcript.steps:
        vectors(step.permuted)
        for bridge in step.argument.bridges:
            vectors(bridge)
        for reveal in step.argument.reveals:
            h.update(bytes([reveal.side]))
            h.update(bytes(reveal.permutation))
            for row in reveal.randomness:
                for r in row:
                    h.update(r.to_bytes(group.scalar_bytes, "big"))
        vectors(step.stripped)
        for row in step.decryption_proofs:
            for proof in row:
                h.update(group.element_to_bytes(proof.t1))
                h.update(group.element_to_bytes(proof.t2))
                h.update(proof.s.to_bytes(group.scalar_bytes, "big"))
    return h.hexdigest()


class TestPinnedTranscripts:
    # Both re-randomization routes: the key shuffle walks the fixed-base
    # tables, the message shuffle still climbs the generic ladders.
    @pytest.mark.parametrize("fixed_base", [True, False])
    @pytest.mark.parametrize("name,width,count", sorted(PINNED_TRANSCRIPTS))
    def test_seeded_cascade_publishes_the_pinned_bytes(
        self, monkeypatch, name, width, count, fixed_base
    ):
        group = group_by_name(name)
        rng = random.Random(2012)
        servers = [PrivateKey.generate(group, rng) for _ in range(3)]
        publics = [key.public for key in servers]
        if width == 1:
            inputs = [
                shuffle.prepare_element_input(publics, group.random_element(rng), rng)
                for _ in range(count)
            ]
        else:
            inputs = [
                shuffle.prepare_message_input(
                    publics, b"accusation %d" % i * 4, width, rng
                )
                for i in range(count)
            ]
        # The strip proofs draw their nonces from the OS; seed that too.
        with monkeypatch.context() as patch:
            patch.setattr(secrets, "randbelow", random.Random(1210).randrange)
            transcript = shuffle.run_cascade(
                servers, inputs, 16, b"pinned", rng, fixed_base=fixed_base
            )
        assert shuffle.verify_transcript(publics, transcript, b"pinned", 16)
        assert (
            _transcript_digest(group, transcript)
            == PINNED_TRANSCRIPTS[name, width, count]
        )


    def test_which_route_each_protocol_shuffle_takes(self, monkeypatch):
        # Set-up walks the tables.  The accusation shuffle is held on the
        # ladders until ``blame-recover`` measures a fixed amount of work
        # (ROADMAP "Spend the budget"); flipping it is a benchmark decision.
        from repro.core import keyshuffle
        from repro.core.session import build_keys

        rng = random.Random(15)
        definition = build_keys("test-256", 2, 3, None, rng).definition
        servers = [PrivateKey.generate(definition.group, rng) for _ in range(2)]
        publics = [key.public for key in servers]
        routes = []
        rerandomize = elgamal.rerandomize

        def spy(key, ct, r=None, fixed_base=True):
            routes.append(fixed_base)
            return rerandomize(key, ct, r, fixed_base)

        monkeypatch.setattr(elgamal, "rerandomize", spy)
        element = definition.group.random_element(rng)
        keyshuffle.run_key_shuffle(
            definition, servers, [shuffle.prepare_element_input(publics, element, rng)]
        )
        assert set(routes) == {True}
        routes.clear()
        accusation = shuffle.prepare_message_input(publics, b"j'accuse", 2, rng)
        result = keyshuffle.run_message_shuffle(definition, servers, [accusation])
        assert result.messages == (b"j'accuse",)
        assert set(routes) == {False}


# -- one-product ElGamal equals the textbook fold ----------------------------


def _special_elements(group, key_y):
    """Components that collide with a base ``multiexp`` treats specially."""
    return (
        group.identity(),
        group.g,
        key_y,
        group.exp(group.g, 5),
        group.exp(group.g, 0xD155E27 << 40),
    )


def _exponents(q):
    return st.one_of(
        st.sampled_from((0, 1, q - 1, q, q + 1, 2 * q - 1)),
        st.integers(min_value=0, max_value=4 * q),
    )


@pytest.mark.parametrize("name", BACKENDS)
class TestOneProductElGamal:
    """``rerandomize``/``strip_layer``/``decrypt`` are folds of mul/exp/inv.

    Duplicate-base merging, the generator and hot-key tables, bare factors
    and bare inverses inside ``multiexp`` must not change the element.
    """

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_rerandomize(self, name, data):
        group = group_by_name(name)
        q = group.q
        x = data.draw(st.sampled_from((1, q - 1, 0xACC5ED % q)), label="x")
        y = group.exp(group.g, x)
        if data.draw(st.booleans(), label="one-key combined key"):
            key = elgamal.combined_key([PublicKey(group, y)])
        else:
            key = PublicKey(group, y)
        special = _special_elements(group, key.y)
        ct = Ciphertext(
            data.draw(st.sampled_from(special), label="a"),
            data.draw(st.sampled_from(special), label="b"),
        )
        r = data.draw(_exponents(q), label="r")
        textbook = Ciphertext(
            group.mul(ct.a, group.exp(group.g, r)),
            group.mul(ct.b, group.exp(key.y, r)),
        )
        for fixed_base in (True, False):
            assert elgamal.rerandomize(key, ct, r, fixed_base) == (textbook, r)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_strip_layer_and_decrypt(self, name, data):
        group = group_by_name(name)
        q = group.q
        x = data.draw(
            st.one_of(
                st.sampled_from((1, 2, q - 1)),
                st.integers(min_value=1, max_value=q - 1),
            ),
            label="x",
        )
        key = PrivateKey(group, x)
        special = _special_elements(group, key.y)
        ct = Ciphertext(
            data.draw(st.sampled_from(special), label="a"),
            data.draw(st.sampled_from(special), label="b"),
        )
        expected = group.mul(ct.b, group.inv(group.exp(ct.a, x)))
        assert elgamal.strip_layer(key, ct) == Ciphertext(ct.a, expected)
        assert elgamal.decrypt(key, ct) == expected


# -- verify_step is total over element values --------------------------------


def _malformed_values(group):
    """Ints that are not elements, by every route a check could miss."""
    values = {
        "out-of-range": 1 << 300,
        "negative": -1,
        "too-wide": 1 << (8 * group.element_bytes),
    }
    if group.name == "ec25519":
        values["off-curve"] = 2
    else:
        values["zero"] = 0
        values["non-residue"] = group.p - 1
    assert not any(group.is_element(value) for value in values.values())
    return values


@pytest.fixture(scope="module", params=BACKENDS)
def honest_run(request):
    group = group_by_name(request.param)
    rng = random.Random(515)
    servers = [PrivateKey.generate(group, rng) for _ in range(2)]
    publics = [key.public for key in servers]
    inputs = [
        shuffle.prepare_element_input(publics, group.random_element(rng), rng)
        for _ in range(3)
    ]
    transcript = shuffle.run_cascade(servers, inputs, SOUNDNESS, b"total", rng)
    assert shuffle.verify_transcript(publics, transcript, b"total", SOUNDNESS)
    return group, publics, transcript


def _with_component(vectors, field, value):
    """``vectors`` with component ``field`` of its first ciphertext replaced."""
    first = dataclasses.replace(vectors[0][0], **{field: value})
    return ((first, *vectors[0][1:]), *vectors[1:])


class TestVerifyStepIsTotal:
    """A malformed element is a rejection (``False``), never an exception."""

    @pytest.mark.parametrize("field", ["a", "b"])
    @pytest.mark.parametrize("where", ["permuted", "stripped", "bridge", "inputs"])
    def test_non_elements_are_rejected_not_raised(self, honest_run, where, field):
        group, publics, transcript = honest_run
        step = transcript.steps[0]
        for label, value in _malformed_values(group).items():
            inputs = transcript.inputs
            bad_step = step
            if where == "inputs":
                inputs = _with_component(inputs, field, value)
            elif where == "bridge":
                bridges = step.argument.bridges
                bad_bridges = (_with_component(bridges[0], field, value), *bridges[1:])
                bad_step = dataclasses.replace(
                    step,
                    argument=dataclasses.replace(step.argument, bridges=bad_bridges),
                )
            else:
                bad_step = dataclasses.replace(
                    step, **{where: _with_component(getattr(step, where), field, value)}
                )
            verdict = shuffle.verify_step(
                publics[0], publics, inputs, bad_step, b"total", SOUNDNESS
            )
            assert verdict is False, label
            bad = dataclasses.replace(
                transcript, inputs=inputs, steps=(bad_step, *transcript.steps[1:])
            )
            assert (
                shuffle.verify_transcript(publics, bad, b"total", SOUNDNESS) is False
            ), label

    @pytest.mark.parametrize("where", ["permuted", "stripped"])
    def test_identity_component_is_rejected_by_the_algebra(self, honest_run, where):
        # The identity *is* an element (1 on modp, 0 on ec25519): it passes
        # the screen and must fail the link or strip equations instead.
        group, publics, transcript = honest_run
        step = transcript.steps[-1]
        bad_step = dataclasses.replace(
            step, **{where: _with_component(getattr(step, where), "b", group.identity())}
        )
        bad = dataclasses.replace(
            transcript, steps=(*transcript.steps[:-1], bad_step)
        )
        assert shuffle.verify_transcript(publics, bad, b"total", SOUNDNESS) is False

    @pytest.mark.parametrize("name", BACKENDS)
    def test_key_shuffle_surfaces_shuffle_error(self, monkeypatch, name):
        # A mix that publishes a non-element makes set-up fail with the
        # protocol's own error, not a ValueError out of modular inversion.
        from repro.core import DissentSession

        honest_cascade = shuffle.run_cascade

        def dishonest_cascade(*args, **kwargs):
            transcript = honest_cascade(*args, **kwargs)
            last = transcript.steps[-1]
            bad = dataclasses.replace(
                last,
                stripped=_with_component(
                    last.stripped, "b", 2 if name == "ec25519" else 0
                ),
            )
            return dataclasses.replace(
                transcript, steps=(*transcript.steps[:-1], bad)
            )

        monkeypatch.setattr(shuffle, "run_cascade", dishonest_cascade)
        session = DissentSession.build(name, num_servers=2, num_clients=3, seed=15)
        with pytest.raises(ShuffleError):
            session.setup()

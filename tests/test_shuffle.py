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
from repro.crypto.proofs import DleqProof
from repro.errors import ShuffleError

#: The fast modp representative and the ristretto255 backend.
BACKENDS = ("test-256", "ec25519")


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
        transcript = shuffle.run_cascade(servers, inputs, b"t", rng)
        assert sorted(transcript.outputs(group)) == sorted(elements)

    def test_transcript_verifies(self, cascade_env):
        group, rng, servers, publics = cascade_env
        inputs = [
            shuffle.prepare_element_input(publics, group.random_element(rng), rng)
            for _ in range(4)
        ]
        transcript = shuffle.run_cascade(servers, inputs, b"ctx", rng)
        assert shuffle.verify_transcript(publics, transcript, b"ctx")

    def test_wrong_context_fails(self, cascade_env):
        group, rng, servers, publics = cascade_env
        inputs = [
            shuffle.prepare_element_input(publics, group.random_element(rng), rng)
            for _ in range(3)
        ]
        transcript = shuffle.run_cascade(servers, inputs, b"ctx", rng)
        assert not shuffle.verify_transcript(publics, transcript, b"other")

    def test_single_server_cascade(self, cascade_env):
        group, rng, servers, _ = cascade_env
        solo = [servers[0]]
        publics = [servers[0].public]
        elements = [group.random_element(rng) for _ in range(3)]
        inputs = [shuffle.prepare_element_input(publics, e, rng) for e in elements]
        transcript = shuffle.run_cascade(solo, inputs, b"s", rng)
        assert shuffle.verify_transcript(publics, transcript, b"s")
        assert sorted(transcript.outputs(group)) == sorted(elements)

    def test_single_input(self, cascade_env):
        group, rng, servers, publics = cascade_env
        element = group.random_element(rng)
        inputs = [shuffle.prepare_element_input(publics, element, rng)]
        transcript = shuffle.run_cascade(servers, inputs, b"1", rng)
        assert transcript.outputs(group) == [element]

    def test_empty_inputs_rejected(self, cascade_env):
        _, rng, servers, _ = cascade_env
        with pytest.raises(ShuffleError):
            shuffle.run_cascade(servers, [], b"", rng)

    def test_no_servers_rejected(self, cascade_env):
        group, rng, _, publics = cascade_env
        inputs = [shuffle.prepare_element_input(publics, group.random_element(rng), rng)]
        with pytest.raises(ShuffleError):
            shuffle.run_cascade([], inputs, b"", rng)


@pytest.mark.parametrize("name", BACKENDS)
def test_a_key_shuffle_derives_its_generators_once(monkeypatch, name):
    """``h_0 … h_N`` are hashed into the group once per key shuffle: the
    cascade and its verification share one set.  Set-up hashes ``h_0``
    once more, for the pin around the whole shuffle."""
    from repro.core import DissentSession
    from repro.core import keyshuffle

    clients = 8
    session = DissentSession.build(name, num_servers=3, num_clients=clients, seed=21)
    group_type = type(session.definition.group)
    hash_to_element = group_type.hash_to_element
    labels, per_shuffle = [], []

    def counted(group, label):
        labels.append(label)
        return hash_to_element(group, label)

    run_key_shuffle = keyshuffle.run_key_shuffle

    def measured(*args, **kwargs):
        before = len(labels)
        result = run_key_shuffle(*args, **kwargs)
        per_shuffle.append(len(labels) - before)
        return result

    monkeypatch.setattr(group_type, "hash_to_element", counted)
    monkeypatch.setattr("repro.core.coordinator.run_key_shuffle", measured)
    session.setup()
    assert per_shuffle == [clients + 1]
    assert len(labels) == clients + 2
    assert len(set(labels)) == clients + 1


class TestTamperDetection:
    def _make_transcript(self, cascade_env, n=3):
        group, rng, servers, publics = cascade_env
        inputs = [
            shuffle.prepare_element_input(publics, group.random_element(rng), rng)
            for _ in range(n)
        ]
        return shuffle.run_cascade(servers, inputs, b"tamper", rng)

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
        assert not shuffle.verify_transcript(publics, bad, b"tamper")

    def test_replaced_ciphertext_detected(self, cascade_env):
        group, rng, servers, publics = cascade_env
        transcript = self._make_transcript(cascade_env)
        first = transcript.steps[0]
        fake = shuffle.prepare_element_input(publics, group.random_element(rng), rng)
        permuted = (fake,) + first.permuted[1:]
        bad_step = dataclasses.replace(first, permuted=permuted)
        bad = dataclasses.replace(transcript, steps=(bad_step,) + transcript.steps[1:])
        assert not shuffle.verify_transcript(publics, bad, b"tamper")

    def test_wrong_step_count_detected(self, cascade_env):
        _, _, _, publics = cascade_env
        transcript = self._make_transcript(cascade_env)
        bad = dataclasses.replace(transcript, steps=transcript.steps[:-1])
        assert not shuffle.verify_transcript(publics, bad, b"tamper")


class TestMessageShuffle:
    def test_message_roundtrip(self, cascade_env):
        group, rng, servers, publics = cascade_env
        width = shuffle.message_vector_width(group, 40)
        messages = [b"first accusation", b"", b"third message!!"]
        inputs = [
            shuffle.prepare_message_input(publics, m, width, rng) for m in messages
        ]
        transcript = shuffle.run_cascade(servers, inputs, b"msg", rng)
        assert shuffle.verify_transcript(publics, transcript, b"msg")
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
            shuffle.run_cascade(servers, [a, b], b"", rng)

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
            transcript = shuffle.run_cascade(servers, inputs, b"p", trial_rng)
            positions.add(transcript.outputs(group).index(elements[0]))
        assert len(positions) > 1


# -- every published byte is pinned ------------------------------------------

#: SHA-256 over everything a seeded cascade publishes, generated when the
#: Terelius–Wikström proof replaced the cut-and-choose argument and again
#: when one batched proof replaced the per-component strip proofs (every
#: other byte unchanged): an optimisation may change how an element is
#: computed, never which element.
PINNED_TRANSCRIPTS = {
    ("ec25519", 1, 8): "6845c213ab403926036eee6f18e644b5ca367be0109d2a98f98a2adb3eaf958d",
    ("ec25519", 3, 4): "0d407aabb124c1ea5405560a498a9668f0197246bd2757f1bd5f6cfcd43723f4",
    ("test-256", 1, 8): "451cdf3104157d6cc8f1b8ec78cf8d9a3c9fbb504049f19aac87d154ef137002",
    ("test-256", 3, 4): "2f1fd6cf27e75d6f81f05b39783e099b6bbd396d5973e60f851b99fe0ce4930d",
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
        for field in dataclasses.fields(step.proof):
            value = getattr(step.proof, field.name)
            scalar = field.name.startswith("s")
            width = group.scalar_bytes if scalar else group.element_bytes
            for number in _flatten(value):
                h.update(number.to_bytes(width, "big"))
        vectors(step.stripped)
        strip = step.decryption_proof
        h.update(group.element_to_bytes(strip.t1))
        h.update(group.element_to_bytes(strip.t2))
        h.update(strip.s.to_bytes(group.scalar_bytes, "big"))
    return h.hexdigest()


def _flatten(value):
    if isinstance(value, int):
        yield value
    else:
        for item in value:
            yield from _flatten(item)


class TestPinnedTranscripts:
    @pytest.mark.parametrize("name,width,count", sorted(PINNED_TRANSCRIPTS))
    def test_seeded_cascade_publishes_the_pinned_bytes(
        self, monkeypatch, name, width, count
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
        # The strip proof draws its nonce from the OS; seed that too.
        with monkeypatch.context() as patch:
            patch.setattr(secrets, "randbelow", random.Random(1210).randrange)
            transcript = shuffle.run_cascade(servers, inputs, b"pinned", rng)
        assert shuffle.verify_transcript(publics, transcript, b"pinned")
        assert (
            _transcript_digest(group, transcript)
            == PINNED_TRANSCRIPTS[name, width, count]
        )


# -- the proof of shuffle rejects every tampered step ------------------------


#: (backend, vector width) of the honest runs the tamper matrix starts from.
PROOF_RUNS = [(name, width) for name in BACKENDS for width in (1, 3)]

PROOF_FIELDS = [field.name for field in dataclasses.fields(shuffle.ShuffleProof)]
STRIP_FIELDS = [field.name for field in dataclasses.fields(DleqProof)]

#: Every published sequence whose length the statement fixes.
LENGTH_FIELDS = [
    "commitments", "chain", "t4", "t_hat", "s4", "s_hat", "s_prime",
    "permuted", "stripped",
]  # fmt: skip


@pytest.fixture(scope="module", params=PROOF_RUNS, ids=lambda run: "%s-w%d" % run)
def proof_run(request):
    return _proof_run(*request.param)


def _proof_run(name, width):
    group = group_by_name(name)
    rng = random.Random(28)
    servers = [PrivateKey.generate(group, rng) for _ in range(2)]
    publics = [key.public for key in servers]
    inputs = [
        shuffle.prepare_message_input(publics, b"vector %d" % i, width, rng)
        for i in range(3)
    ]
    transcript = shuffle.run_cascade(servers, inputs, b"tamper", rng)
    assert shuffle.verify_transcript(publics, transcript, b"tamper")
    return group, servers, publics, transcript


def _verifies(proof_run, step, index=0, context=b"tamper"):
    """Does ``step``, published as cascade step ``index``, verify?"""
    _, _, publics, transcript = proof_run
    inputs = transcript.steps[index - 1].stripped if index else transcript.inputs
    verdict = shuffle.verify_step(
        publics[index], publics[index:], inputs, step, context
    )
    assert verdict in (True, False)
    return verdict


def _tweak(group, field, value, data):
    """``value`` with one element or one scalar changed, still well-formed."""
    if field == "t4":
        w = data.draw(st.integers(0, len(value) - 1), label="component")
        side = data.draw(st.integers(0, 1), label="side")
        pair = list(value[w])
        pair[side] = group.mul(pair[side], group.g)
        return (*value[:w], tuple(pair), *value[w + 1 :])
    if isinstance(value, tuple):
        i = data.draw(st.integers(0, len(value) - 1), label="index")
        return (*value[:i], _tweak(group, field, value[i], data), *value[i + 1 :])
    if field.startswith("s"):
        return (value + data.draw(st.integers(1, group.q - 1), label="delta")) % group.q
    return group.mul(value, group.g)


class TestProofOfShuffle:
    """Every way a mix can publish a step it did not honestly shuffle is a
    ``False`` from :func:`verify_step`, never an exception."""

    @pytest.mark.parametrize("field", PROOF_FIELDS)
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_each_published_proof_field_is_bound(self, proof_run, field, data):
        group, _, _, transcript = proof_run
        index = data.draw(st.integers(0, 1), label="step")
        step = transcript.steps[index]
        tweaked = _tweak(group, field, getattr(step.proof, field), data)
        proof = dataclasses.replace(step.proof, **{field: tweaked})
        assert not _verifies(proof_run, dataclasses.replace(step, proof=proof), index)

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_swapped_outputs(self, proof_run, data):
        step = proof_run[3].steps[0]
        positions = st.integers(0, len(step.permuted) - 1)
        i, j = data.draw(st.lists(positions, min_size=2, max_size=2, unique=True))
        permuted = list(step.permuted)
        permuted[i], permuted[j] = permuted[j], permuted[i]
        swapped = dataclasses.replace(step, permuted=tuple(permuted))
        assert not _verifies(proof_run, swapped)

    @settings(max_examples=10, deadline=None)
    @given(context=st.binary(max_size=16).filter(lambda c: c != b"tamper"))
    def test_replayed_under_another_context(self, proof_run, context):
        assert not _verifies(proof_run, proof_run[3].steps[0], context=context)

    @pytest.mark.parametrize("field", STRIP_FIELDS)
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_each_strip_proof_field_is_bound(self, proof_run, field, data):
        group, _, _, transcript = proof_run
        index = data.draw(st.integers(0, 1), label="step")
        step = transcript.steps[index]
        tweaked = _tweak(group, field, getattr(step.decryption_proof, field), data)
        proof = dataclasses.replace(step.decryption_proof, **{field: tweaked})
        tampered = dataclasses.replace(step, decryption_proof=proof)
        assert not _verifies(proof_run, tampered, index)

    def test_moved_onto_another_steps_outputs(self, proof_run):
        first, second = proof_run[3].steps
        moved_down = dataclasses.replace(second, proof=first.proof)
        moved_up = dataclasses.replace(first, proof=second.proof)
        assert not _verifies(proof_run, moved_down, 1)
        assert not _verifies(proof_run, moved_up, 0)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_wrong_vector_lengths(self, proof_run, data):
        index = data.draw(st.integers(0, 1), label="step")
        step = proof_run[3].steps[index]
        field = data.draw(st.sampled_from(LENGTH_FIELDS), label="field")
        owner = step.proof if field in PROOF_FIELDS else step
        value = getattr(owner, field)
        options = [value[:-1], (*value, value[-1])]
        if not isinstance(value[0], int):
            options.append((value[0][:-1], *value[1:]))  # a row or a pair short
        wrong = data.draw(st.sampled_from(options), label="wrong")
        changed = dataclasses.replace(owner, **{field: wrong})
        if owner is not step:
            changed = dataclasses.replace(step, proof=changed)
        assert not _verifies(proof_run, changed, index)

    def test_a_non_bijective_map(self, proof_run):
        # The prover's own algorithm, run on a map that sends outputs 0 and
        # 1 to input 0 and no output to input 1: the permutation matrix it
        # commits to has a doubled and an empty column.
        group, servers, publics, transcript = proof_run

        class Collapsing(random.Random):
            def shuffle(self, x):
                x[:] = [0, 0, *range(2, len(x))]

        step = shuffle.shuffle_step(
            servers[0], publics, transcript.inputs, 0, b"tamper", Collapsing(3)
        )
        plain = [
            [elgamal.decrypt(servers[1], ct) for ct in vector]
            for vector in step.stripped
        ]
        assert plain[0] == plain[1]
        assert not _verifies(proof_run, step)

    def test_rerandomized_under_its_own_key(self, proof_run):
        # Re-randomizing under the server's key alone instead of the
        # remaining combined key leaves later layers unrefreshed.
        group, servers, publics, transcript = proof_run
        step = shuffle.shuffle_step(
            servers[0], publics[:1], transcript.inputs, 0, b"tamper", random.Random(3)
        )
        assert shuffle.verify_step(
            publics[0], publics[:1], transcript.inputs, step, b"tamper"
        )
        assert not _verifies(proof_run, step)


# -- one batched proof covers every component of a strip --------------------


def _restripped(proof_run, index, change, context=b"tamper"):
    """Step ``index`` with ``change`` applied to its flat list of stripped
    ``b`` components, its strip proof re-proven with the server's key over
    the changed statement: a rejection then comes from the batch, not from
    a stale proof."""
    group, servers, _, transcript = proof_run
    step = transcript.steps[index]
    flat = [ct.b for vector in step.stripped for ct in vector]
    change(group, flat)
    remaining = iter(flat)
    stripped = tuple(
        tuple(dataclasses.replace(ct, b=next(remaining)) for ct in vector)
        for vector in step.stripped
    )
    proof = shuffle._prove_strip(servers[index], step.permuted, stripped, context)
    return dataclasses.replace(step, stripped=stripped, decryption_proof=proof)


def _times_g(group, flat):
    flat[0] = group.mul(flat[0], group.g)


def _cancelling(group, flat):
    # Unweighted, prod(b / b') would not move.
    flat[0] = group.mul(flat[0], group.g)
    flat[-1] = group.mul(flat[-1], group.inv(group.g))


def _swapped(group, flat):
    flat[0], flat[-1] = flat[-1], flat[0]


class TestBatchedStrip:
    """A strip that is wrong in any component, or in two that cancel in an
    unweighted product, fails the one strip proof however it is re-proven."""

    @pytest.mark.parametrize("index", [0, 1])
    def test_a_fresh_proof_of_an_honest_strip_verifies(self, proof_run, index):
        honest = _restripped(proof_run, index, lambda *_: None)
        assert _verifies(proof_run, honest, index)

    @pytest.mark.parametrize("index", [0, 1])
    @pytest.mark.parametrize(
        "change", [_times_g, _cancelling, _swapped], ids=lambda f: f.__name__
    )
    def test_a_wrong_strip_is_rejected(self, proof_run, change, index):
        assert not _verifies(proof_run, _restripped(proof_run, index, change), index)

    def test_a_stripped_a_that_changed(self, proof_run):
        # The strip keeps every ``a``; the next mix shuffles what it is given.
        group, servers, _, transcript = proof_run
        step = transcript.steps[0]
        first = step.stripped[0][0]
        moved = dataclasses.replace(first, a=group.mul(first.a, group.g))
        stripped = ((moved, *step.stripped[0][1:]), *step.stripped[1:])
        proof = shuffle._prove_strip(servers[0], step.permuted, stripped, b"tamper")
        tampered = dataclasses.replace(step, stripped=stripped, decryption_proof=proof)
        assert not _verifies(proof_run, tampered)

    def test_a_proof_moved_onto_another_step(self, proof_run):
        first, second = proof_run[3].steps
        moved_down = dataclasses.replace(
            second, decryption_proof=first.decryption_proof
        )
        moved_up = dataclasses.replace(first, decryption_proof=second.decryption_proof)
        assert not _verifies(proof_run, moved_down, 1)
        assert not _verifies(proof_run, moved_up, 0)

    def test_a_proof_made_under_another_context(self, proof_run):
        step = _restripped(proof_run, 0, lambda *_: None, context=b"other")
        assert not _verifies(proof_run, step)

    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("positions", [(0,), (0, -1)])
    def test_a_component_outside_the_subgroup(self, width, positions):
        # On modp, times p - 1 (order 2) leaves the order-q subgroup, where
        # a small-exponent batch is unsound: two such factors cancel in any
        # combination whose coefficients sum to an even number.  The
        # membership screen rejects them before anything is folded.
        # (ristretto255 encodes no element outside its group.)
        run = _proof_run("test-256", width)

        def negated(group, flat):
            for i in positions:
                flat[i] = flat[i] * (group.p - 1) % group.p

        assert not _verifies(run, _restripped(run, 0, negated))


# -- the accusation shuffle decodes what it can ------------------------------


class TestMessageShuffleDecoding:
    @pytest.fixture
    def accusation_env(self):
        from repro.core.session import build_keys

        rng = random.Random(15)
        definition = build_keys("test-256", 2, 3, None, rng).definition
        servers = [PrivateKey.generate(definition.group, rng) for _ in range(2)]
        return definition, servers, [key.public for key in servers], rng

    def test_a_malformed_submission_reads_as_empty(self, accusation_env):
        from repro.core import keyshuffle

        definition, servers, publics, rng = accusation_env
        group = definition.group
        accusation = shuffle.prepare_message_input(publics, b"j'accuse", 2, rng)
        # No embedded message at all, and a length prefix past the content.
        no_message = tuple(
            elgamal.encrypt_layered(publics, group.random_element(rng))
            for _ in range(2)
        )
        overlong = shuffle.prepare_message_input(publics, b"", 2, rng)
        framed = (0xFFFF).to_bytes(2, "big").ljust(group.message_bytes, b"\x00")
        overlong = (
            elgamal.encrypt_layered(publics, group.encode_message(framed)),
            *overlong[1:],
        )
        result = keyshuffle.run_message_shuffle(
            definition, servers, [accusation, no_message, overlong]
        )
        assert sorted(result.messages) == [b"", b"", b"j'accuse"]

    def test_a_decoder_bug_propagates(self, accusation_env, monkeypatch):
        from repro.core import keyshuffle

        definition, servers, publics, rng = accusation_env

        def broken(group, elements):
            raise TypeError("decoder bug")

        monkeypatch.setattr(shuffle, "decode_message_output", broken)
        accusation = shuffle.prepare_message_input(publics, b"j'accuse", 2, rng)
        with pytest.raises(TypeError, match="decoder bug"):
            keyshuffle.run_message_shuffle(definition, servers, [accusation])


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

    Duplicate-base merging, the generator's and a pinned key's tables,
    bare factors and bare inverses inside ``multiexp`` must not change the
    element.
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
        assert elgamal.rerandomize(key, ct, r) == (textbook, r)
        with group.pin((key.y,)):
            assert elgamal.rerandomize(key, ct, r) == (textbook, r)

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
    transcript = shuffle.run_cascade(servers, inputs, b"total", rng)
    assert shuffle.verify_transcript(publics, transcript, b"total")
    return group, publics, transcript


def _with_component(vectors, field, value):
    """``vectors`` with component ``field`` of its first ciphertext replaced."""
    first = dataclasses.replace(vectors[0][0], **{field: value})
    return ((first, *vectors[0][1:]), *vectors[1:])


def _assert_rejected(publics, transcript, inputs, bad_step, label):
    verdict = shuffle.verify_step(publics[0], publics, inputs, bad_step, b"total")
    assert verdict is False, label
    bad = dataclasses.replace(
        transcript, inputs=inputs, steps=(bad_step, *transcript.steps[1:])
    )
    assert shuffle.verify_transcript(publics, bad, b"total") is False, label


class TestVerifyStepIsTotal:
    """A malformed element is a rejection (``False``), never an exception."""

    @pytest.mark.parametrize("field", ["a", "b"])
    @pytest.mark.parametrize("where", ["permuted", "stripped", "inputs"])
    def test_non_elements_are_rejected_not_raised(self, honest_run, where, field):
        group, publics, transcript = honest_run
        step = transcript.steps[0]
        for label, value in _malformed_values(group).items():
            inputs = transcript.inputs
            bad_step = step
            if where == "inputs":
                inputs = _with_component(inputs, field, value)
            else:
                bad_step = dataclasses.replace(
                    step, **{where: _with_component(getattr(step, where), field, value)}
                )
            _assert_rejected(publics, transcript, inputs, bad_step, label)

    @pytest.mark.parametrize("field", PROOF_FIELDS)
    def test_malformed_proof_fields_are_rejected_not_raised(self, honest_run, field):
        self._assert_malformed_field_rejected(honest_run, "proof", field)

    @pytest.mark.parametrize("field", STRIP_FIELDS)
    def test_malformed_strip_proof_fields_are_rejected_not_raised(
        self, honest_run, field
    ):
        self._assert_malformed_field_rejected(honest_run, "decryption_proof", field)

    @staticmethod
    def _assert_malformed_field_rejected(honest_run, owner, field):
        # Elements get non-elements; a scalar gets a value outside [0, q) of
        # the same residue, which only the range check tells apart.
        group, publics, transcript = honest_run
        step = transcript.steps[0]
        proof = getattr(step, owner)
        value = getattr(proof, field)
        if field.startswith("s"):
            last, q = value[-1] if isinstance(value, tuple) else value, group.q
            malformed = {
                "plus-q": last + q,
                "minus-q": last - q,
                "wide": last + (q << 300),
            }
        else:
            malformed = _malformed_values(group)
        for label, bad in malformed.items():
            if field == "t4":
                changed = ((bad, value[0][1]), *value[1:])
            elif isinstance(value, tuple):
                changed = (*value[:-1], bad)
            else:
                changed = bad
            bad_proof = dataclasses.replace(proof, **{field: changed})
            bad_step = dataclasses.replace(step, **{owner: bad_proof})
            _assert_rejected(publics, transcript, transcript.inputs, bad_step, label)

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
        assert shuffle.verify_transcript(publics, bad, b"total") is False

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

    @pytest.mark.parametrize("name", BACKENDS)
    def test_key_shuffle_names_the_failing_mix(self, monkeypatch, name):
        # Server 1 publishes server 0's strip proof: set-up fails naming
        # server 1, not just "the transcript".
        from repro.core import DissentSession

        honest_cascade = shuffle.run_cascade

        def dishonest_cascade(*args, **kwargs):
            transcript = honest_cascade(*args, **kwargs)
            first, second, *rest = transcript.steps
            bad = dataclasses.replace(second, decryption_proof=first.decryption_proof)
            return dataclasses.replace(transcript, steps=(first, bad, *rest))

        monkeypatch.setattr(shuffle, "run_cascade", dishonest_cascade)
        session = DissentSession.build(name, num_servers=3, num_clients=3, seed=15)
        with pytest.raises(ShuffleError, match="at server 1's step"):
            session.setup()


class TestFailingStep:
    """:func:`shuffle.failing_step` is the first position that fails."""

    def test_an_honest_transcript_has_none(self, honest_run):
        _, publics, transcript = honest_run
        assert shuffle.failing_step(publics, transcript, b"total") is None

    @pytest.mark.parametrize("index", [0, 1])
    def test_the_first_bad_step_is_named(self, honest_run, index):
        _, publics, transcript = honest_run
        steps = list(transcript.steps)
        steps[index] = dataclasses.replace(
            steps[index], decryption_proof=steps[1 - index].decryption_proof
        )
        bad = dataclasses.replace(transcript, steps=tuple(steps))
        assert shuffle.failing_step(publics, bad, b"total") == index
        assert shuffle.failing_step(publics, transcript, b"other") == 0

    def test_a_missing_step_is_named(self, honest_run):
        _, publics, transcript = honest_run
        short = dataclasses.replace(transcript, steps=transcript.steps[:1])
        assert shuffle.failing_step(publics, short, b"total") == 1

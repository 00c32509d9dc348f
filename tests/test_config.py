"""Unit tests for group definitions and policy validation."""

import dataclasses

import pytest

from repro.core.config import GroupDefinition, Policy, make_group_definition
from repro.crypto.keys import PrivateKey
from repro.errors import ConfigError


@pytest.fixture(scope="module")
def keys(group):
    import random

    rng = random.Random(31)
    return [PrivateKey.generate(group, rng) for _ in range(6)]


def _definition(keys, policy=None):
    return make_group_definition(
        "test-256",
        [k.public for k in keys[:2]],
        [k.public for k in keys[2:]],
        policy,
    )


class TestPolicy:
    def test_defaults_valid(self):
        Policy()

    def test_alpha_bounds(self):
        with pytest.raises(ConfigError):
            Policy(alpha=1.5)
        with pytest.raises(ConfigError):
            Policy(alpha=-0.1)

    def test_shuffle_request_bits_bounds(self):
        with pytest.raises(ConfigError):
            Policy(shuffle_request_bits=0)
        with pytest.raises(ConfigError):
            Policy(shuffle_request_bits=9)

    def test_window_multiplier_floor(self):
        with pytest.raises(ConfigError):
            Policy(window_multiplier=0.9)

    def test_slot_payload_ordering(self):
        with pytest.raises(ConfigError):
            Policy(initial_slot_payload=1024, max_slot_payload=512)

    def test_dict_roundtrip(self):
        policy = Policy(alpha=0.5, initial_slot_payload=64)
        assert Policy.from_dict(policy.to_dict()) == policy


class TestGroupDefinition:
    def test_counts(self, keys):
        definition = _definition(keys)
        assert definition.num_servers == 2
        assert definition.num_clients == 4

    def test_names(self, keys):
        definition = _definition(keys)
        assert definition.server_name(1) == "server-1"
        assert definition.client_name(3) == "client-3"
        with pytest.raises(ConfigError):
            definition.server_name(2)

    def test_self_certifying_id_stable(self, keys):
        assert _definition(keys).group_id() == _definition(keys).group_id()

    def test_id_changes_with_membership(self, keys):
        a = _definition(keys)
        b = make_group_definition(
            "test-256",
            [k.public for k in keys[:2]],
            [k.public for k in keys[2:5]],  # one fewer client
        )
        assert a.group_id() != b.group_id()

    def test_id_changes_with_policy(self, keys):
        a = _definition(keys)
        b = _definition(keys, Policy(alpha=0.5))
        assert a.group_id() != b.group_id()

    def test_id_is_hashed_once_and_invisible(self, keys, monkeypatch):
        from repro.core import config

        calls = []
        real = config.group_definition_id
        monkeypatch.setattr(
            config, "group_definition_id", lambda data: calls.append(1) or real(data)
        )
        warm, cold = _definition(keys), _definition(keys)
        ids = {warm.group_id() for _ in range(5)}
        assert ids == {real(warm.canonical_bytes())} and len(calls) == 1
        # The cached id stays out of equality, hashing, repr and the
        # canonical encoding, and a replaced definition derives its own.
        assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
        assert warm.canonical_bytes() == cold.canonical_bytes()
        changed = dataclasses.replace(warm, policy=Policy(alpha=0.5))
        assert changed.group_id() != warm.group_id() and len(calls) == 2

    def test_canonical_roundtrip(self, keys):
        definition = _definition(keys, Policy(alpha=0.75))
        parsed = GroupDefinition.from_canonical_bytes(definition.canonical_bytes())
        assert parsed.group_id() == definition.group_id()
        assert parsed.policy.alpha == 0.75

    def test_duplicate_keys_rejected(self, keys):
        with pytest.raises(ConfigError):
            make_group_definition(
                "test-256",
                [keys[0].public, keys[0].public],
                [k.public for k in keys[2:]],
            )

    def test_unknown_group_rejected(self, keys):
        with pytest.raises(ConfigError):
            make_group_definition(
                "nonexistent", [keys[0].public], [keys[1].public]
            )

    def test_empty_memberships_rejected(self, keys):
        with pytest.raises(ConfigError):
            make_group_definition("test-256", [], [keys[0].public])
        with pytest.raises(ConfigError):
            make_group_definition("test-256", [keys[0].public], [])

    def test_malformed_canonical_rejected(self):
        with pytest.raises(ConfigError):
            GroupDefinition.from_canonical_bytes(b"not json")

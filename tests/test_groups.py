"""Unit tests for Schnorr group arithmetic and message embedding."""

import dataclasses
import gc
import random
import sys
import threading

import pytest

from repro.crypto import groups as G
from repro.crypto.ec25519 import RistrettoGroup
from repro.errors import CryptoError
from tests.helpers import crypto_counters


class TestGroupStructure:
    def test_safe_prime_relation(self):
        for factory in (G.tiny_group, G.testing_group, G.medium_group):
            group = factory()
            assert group.p == 2 * group.q + 1

    def test_generator_in_subgroup(self):
        for factory in (G.tiny_group, G.testing_group, G.production_group):
            group = factory()
            assert group.is_element(group.g)

    def test_generator_has_order_q(self, group):
        assert group.exp(group.g, group.q) == 1
        assert group.exp(group.g, 1) == group.g

    def test_toy_flags(self):
        assert G.testing_group().is_toy
        assert not G.production_group().is_toy
        assert not G.wide_group().is_toy

    def test_identity_membership(self, group):
        assert group.is_element(1)

    def test_non_elements_rejected(self, group):
        assert not group.is_element(0)
        assert not group.is_element(group.p)
        assert not group.is_element(group.p - 1)  # order 2, not in QR subgroup

    def test_require_element_raises(self, group):
        with pytest.raises(CryptoError):
            group.require_element(0)


class TestArithmetic:
    def test_exp_mul_consistency(self, group, rng):
        a, b = group.random_scalar(rng), group.random_scalar(rng)
        lhs = group.exp(group.g, a + b)
        rhs = group.mul(group.exp(group.g, a), group.exp(group.g, b))
        assert lhs == rhs

    def test_inverse(self, group, rng):
        x = group.random_element(rng)
        assert group.mul(x, group.inv(x)) == 1

    def test_exp_reduces_mod_q(self, group, rng):
        e = group.random_scalar(rng)
        assert group.exp(group.g, e) == group.exp(group.g, e + group.q)

    def test_random_element_in_subgroup(self, group, rng):
        for _ in range(10):
            assert group.is_element(group.random_element(rng))

    def test_random_scalar_range(self, group, rng):
        for _ in range(50):
            s = group.random_scalar(rng)
            assert 1 <= s < group.q


class TestEncoding:
    def test_element_bytes_roundtrip(self, group, rng):
        x = group.random_element(rng)
        assert group.element_from_bytes(group.element_to_bytes(x)) == x

    def test_wrong_width_rejected(self, group):
        with pytest.raises(CryptoError):
            group.element_from_bytes(b"\x01")

    def test_non_element_encoding_rejected(self, group):
        bad = (group.p - 1).to_bytes(group.element_bytes, "big")
        with pytest.raises(CryptoError):
            group.element_from_bytes(bad)


class TestMessageEmbedding:
    def test_roundtrip_max_length(self):
        group = G.medium_group()
        message = bytes(range(group.message_bytes))[: group.message_bytes]
        assert group.decode_message(group.encode_message(message)) == message

    def test_roundtrip_short(self):
        group = G.medium_group()
        assert group.decode_message(group.encode_message(b"hi")) == b"hi"

    def test_roundtrip_empty(self):
        group = G.medium_group()
        assert group.decode_message(group.encode_message(b"")) == b""

    def test_leading_zeros_preserved(self):
        group = G.medium_group()
        message = b"\x00\x00\x01"
        assert group.decode_message(group.encode_message(message)) == message

    def test_embedded_is_element(self):
        group = G.medium_group()
        assert group.is_element(group.encode_message(b"test"))

    def test_too_long_rejected(self):
        group = G.medium_group()
        with pytest.raises(CryptoError):
            group.encode_message(b"x" * (group.message_bytes + 1))

    def test_decode_random_element_usually_fails(self, rng):
        group = G.medium_group()
        failures = 0
        for _ in range(8):
            try:
                group.decode_message(group.random_element(rng))
            except CryptoError:
                failures += 1
        assert failures >= 6  # guard byte catches almost everything


class TestFixedBaseExponentiation:
    def test_matches_pow_for_random_exponents(self, group, rng):
        for _ in range(16):
            base = group.random_element(rng)
            e = rng.randrange(0, 2 * group.q)  # includes >q (reduced) cases
            laddered = group.exp(base, e)
            with group.pin((base,)):
                assert group.has_table(base)
                assert group.exp(base, e) == laddered

    def test_generator_shortcut(self, group, rng):
        e = group.random_scalar(rng)
        assert group.exp_g(e) == group.exp(group.g, e)

    def test_edge_exponents(self, group):
        assert group.exp_g(0) == 1
        assert group.exp_g(1) == group.g
        assert group.exp_g(group.q) == 1
        assert group.exp_g(group.q + 3) == pow(group.g, 3, group.p)

    def test_table_is_cached_per_base(self, group, rng):
        base = group.random_element(rng)
        with group.pin((base,)):
            table = group._residency.tables[base]
            with group.pin((base,)):
                assert group._residency.tables[base] is table
        assert group._generator_table is group._generator_table

    def test_tiny_group_full_sweep(self, tiny):
        for e in range(0, 50):
            assert tiny.exp_g(e) == pow(tiny.g, e, tiny.p)


class TestMembershipViaLegendre:
    """is_element now uses the Jacobi symbol; verdicts must match x**q mod p."""

    def test_matches_exponentiation_test(self, group, rng):
        candidates = [group.random_element(rng) for _ in range(8)]
        candidates += [group.p - c for c in candidates[:4]]  # non-QRs
        candidates += [0, 1, group.p - 1, group.p, group.p + 5]
        for x in candidates:
            slow = 1 <= x < group.p and pow(x, group.q, group.p) == 1
            assert group.is_element(x) == slow

    def test_tiny_group_spot_checks(self, tiny, rng):
        candidates = [rng.randrange(0, tiny.p + 2) for _ in range(200)]
        candidates += [0, 1, 2, tiny.g, tiny.p - 1, tiny.p, tiny.p + 1]
        for x in candidates:
            slow = 1 <= x < tiny.p and pow(x, tiny.q, tiny.p) == 1
            assert tiny.is_element(x) == slow


class TestMultiexp:
    def _pairs(self, group, rng, n, small=False):
        bound = 1 << 16 if small else group.q
        return [
            (group.random_element(rng), rng.randrange(0, bound))
            for _ in range(n)
        ]

    def _naive(self, group, pairs):
        acc = group.identity()
        for base, e in pairs:
            acc = group.mul(acc, group.exp(base, e))
        return acc

    def test_matches_naive_product(self, group, rng):
        for n in (0, 1, 2, 3, 7, 20, 65):
            pairs = self._pairs(group, rng, n)
            assert group.multiexp(pairs) == self._naive(group, pairs)

    def test_small_exponents(self, group, rng):
        pairs = self._pairs(group, rng, 12, small=True)
        assert group.multiexp(pairs) == self._naive(group, pairs)

    def test_duplicate_bases_merge(self, group, rng):
        base = group.random_element(rng)
        pairs = [(base, 5), (base, group.q - 2), (group.g, 7), (group.g, 11)]
        assert group.multiexp(pairs) == self._naive(group, pairs)

    def test_negative_exponents(self, group, rng):
        base = group.random_element(rng)
        pairs = [(base, -3), (group.g, -1)]
        expected = group.mul(
            group.exp(base, group.q - 3), group.exp(group.g, group.q - 1)
        )
        assert group.multiexp(pairs) == expected

    def test_hot_bases_give_same_result(self, group, rng):
        hot = group.random_element(rng)
        pairs = [(hot, group.random_scalar(rng)) for _ in range(3)]
        pairs += self._pairs(group, rng, 5)
        expected = self._naive(group, pairs)
        with group.pin((hot,)):
            assert group.multiexp(pairs) == expected

    def test_identity_base_and_zero_exponent_skipped(self, group, rng):
        pairs = [(1, 12345), (group.random_element(rng), 0)]
        assert group.multiexp(pairs) == group.identity()

    def test_tiny_group_randomized(self, tiny, rng):
        for _ in range(20):
            pairs = [
                (tiny.random_element(rng), rng.randrange(0, 4 * tiny.q))
                for _ in range(rng.randrange(1, 9))
            ]
            assert tiny.multiexp(pairs) == self._naive(tiny, pairs)


def _fresh(name: str, capacity: int) -> G.Group:
    """A group with no table but its generator's, holding at most ``capacity``."""
    if name == "ec25519":
        group = RistrettoGroup()
    else:
        group = dataclasses.replace(G.group_by_name(name))
    group._residency.capacity = capacity
    return group


@pytest.fixture
def builds():
    """``builds()``: fixed-base tables built so far in the test."""
    with crypto_counters() as read:
        yield lambda: read("fixed_base.table_builds")


@pytest.mark.parametrize("name", ["test-256", "ec25519"])
class TestTableResidency:
    """Tables are built by pins alone, at most ``capacity`` of them at a
    time; exponentiation walks what is resident and never builds."""

    CAPACITY = 4

    def _bases(self, group, count):
        rng = random.Random(41)
        return [group.exp_g(group.random_scalar(rng)) for _ in range(count)]

    def test_a_cyclic_scan_builds_at_most_capacity_tables(self, name, builds):
        group = _fresh(name, self.CAPACITY)
        group.exp_g(1)  # the generator's table, outside the capacity
        bases = self._bases(group, self.CAPACITY + 3)
        before = builds()
        pin = group.pin(bases)
        assert builds() - before == self.CAPACITY
        assert [group.has_table(base) for base in bases] == [True] * 4 + [False] * 3
        expected = [group.exp(base, 12345 + i) for i, base in enumerate(bases)]
        for _ in range(3):
            for i, base in enumerate(bases):
                assert group.exp(base, 12345 + i) == expected[i]
                assert group.multiexp([(base, 12345 + i), (group.g, 7)]) == (
                    group.mul(expected[i], group.exp_g(7))
                )
            assert group.multiexp((b, 3) for b in bases) == group.multiexp(
                (b, 3) for b in reversed(bases)
            )
        assert builds() - before == self.CAPACITY
        pin.release()

    def test_a_scan_of_unpinned_bases_builds_nothing(self, name, builds):
        group = _fresh(name, self.CAPACITY)
        group.exp_g(1)
        bases = self._bases(group, self.CAPACITY + 3)
        before = builds()
        for _ in range(2):
            for base in bases:
                group.exp(base, 99)
            group.multiexp((base, 5) for base in bases)
        assert builds() == before
        assert not any(group.has_table(base) for base in bases)

    def test_a_released_table_stays_until_a_pin_needs_the_room(self, name, builds):
        group = _fresh(name, self.CAPACITY)
        bases = self._bases(group, self.CAPACITY + 1)
        first = group.pin(bases[:2])
        second = group.pin(bases[2:4])
        first.release()
        assert group._residency.pinned() == {base: 1 for base in bases[2:4]}
        assert all(group.has_table(base) for base in bases[:4])
        before = builds()
        with group.pin(bases[:1]):  # resident: no build, pinned again
            assert builds() == before
            group.pin(bases[4:]).release()  # evicts bases[1], the only released
        assert builds() == before + 1
        assert not group.has_table(bases[1])
        assert all(group.has_table(base) for base in (bases[0], *bases[2:]))
        second.release(bases[2])
        assert group._residency.pinned() == {bases[3]: 1}

    def test_a_dropped_pin_is_released(self, name):
        group = _fresh(name, self.CAPACITY)
        bases = self._bases(group, 2)
        group.pin(bases)  # dropped at once
        gc.collect()
        assert group._residency.pinned() == {}
        assert all(group.has_table(base) for base in bases)


def test_pins_and_walks_from_many_threads_keep_the_residency_consistent():
    """A tcp session pins and walks on its loop thread while the caller's
    thread does too: claims and tables stay consistent under contention."""
    group = _fresh("test-256", 6)
    bases = [group.exp_g(k) for k in range(2, 18)]
    expected = {base: pow(base, 12345, group.p) for base in bases}
    wrong = []

    def work(seed):
        rng = random.Random(seed)
        for _ in range(40):
            held = rng.sample(bases, 3)
            pin = group.pin(held)
            for base in held:
                if group.exp(base, 12345) != expected[base]:
                    wrong.append(base)
            if rng.random() < 0.5:
                pin.release(held[0])
            del pin  # the rest go with the dropped pin

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    gc.collect()
    assert wrong == []
    assert group._residency.pinned() == {}
    assert len(group._residency.tables) <= 6

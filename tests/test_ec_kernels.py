"""Correctness and work-budget tests for the ristretto255 kernels.

Four contracts:

* the two fixed-base kernels are *only* faster ways to compute what the
  textbook references in this file compute: ``_encode_double(Q)`` is
  ``_encode(_dbl(Q))`` for every curve point, and a walk of the signed
  fixed-window table is double-and-add, digit boundaries included;
* ``multiexp`` is *only* a faster way to compute the fold of ``exp`` and
  ``mul`` — on both sides of the Straus/Pippenger selection, for every
  exponent shape, with hot, transient and generator bases, and when the
  product is the identity (where the encode is skipped);
* the signature paths built on it (``verify``, ``batch_verify``,
  ``find_invalid``) return exactly the verdicts of the textbook check
  ``g**s == t * y**c``, on both backends;
* the work a warm signature check and a warm shuffle step cost, and what
  batching a round's envelopes or Verdict client proofs saves over
  checking them one at a time, counted in point operations, field
  exponentiations and field inversions — counts repeat exactly, so this
  guards the kernel and the batching claims in tier-1 without a timer.
"""

import dataclasses
import random
import secrets

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ec25519 as ec
from repro.crypto import elgamal, schnorr, shuffle
from repro.crypto.groups import group_by_name
from repro.crypto.keys import PrivateKey
from repro.net import message
from repro.verdict import ciphertext as verdict

GROUP = ec.ec_group()
L = ec.L


# -- references ------------------------------------------------------------


def _ref_mul(point, e: int):
    """Textbook double-and-add on a curve point (no shared kernel)."""
    acc = (0, 1, 1, 0)
    for bit in bin(e)[2:]:
        acc = ec._dbl(acc)
        if bit == "1":
            acc = ec._add(acc, point)
    return acc


def _ref_exp(base: int, e: int) -> int:
    return ec._encode(_ref_mul(ec._decode(base), e % L))


def _ristretto_equal(p1, p2) -> bool:
    """RFC 9496 §4.5: the same element, whichever coset member holds it."""
    x1, y1, _, _ = p1
    x2, y2, _, _ = p2
    return (x1 * y2 - y1 * x2) % ec.P == 0 or (y1 * y2 - x1 * x2) % ec.P == 0


def _fold(group, pairs) -> int:
    acc = group.identity()
    for base, e in pairs:
        acc = group.mul(acc, group.exp(base, e))
    return acc


def _elements(count: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    return [GROUP.exp_g(rng.randrange(1, L)) for _ in range(count)]


def _exponent_shapes(rng: random.Random) -> list[int]:
    wide = rng.getrandbits(252) | 1 << 252
    return [
        0,
        1,
        rng.getrandbits(128) | 1 << 127,
        wide % L,
        L + rng.getrandbits(200),
        -rng.getrandbits(128),
        -(wide % L),
        L - 1,
    ]


# -- scalar kernels ----------------------------------------------------------


class TestScalarKernels:
    def test_wnaf_digits_recompose_and_are_sparse(self):
        rng = random.Random(1)
        for e in [0, 1, 15, 16, 17, 31, 2**128 - 1, L - 1] + [
            rng.getrandbits(bits) for bits in (5, 64, 128, 253) for _ in range(20)
        ]:
            digits = ec._wnaf5(e)
            assert sum(d << k for k, d in digits) == e
            assert all(d % 2 == 1 and abs(d) <= 15 for _, d in digits)
            positions = [k for k, _ in digits]
            assert all(b - a >= 5 for a, b in zip(positions, positions[1:]))

    @pytest.mark.parametrize("seed", range(3))
    def test_exp_matches_double_and_add(self, seed):
        rng = random.Random(seed)
        base = _elements(1, seed)[0]
        for e in _exponent_shapes(rng):
            assert GROUP.exp(base, e) == _ref_exp(base, e)

    def test_cached_affine_tables_reproduce_exp(self):
        rng = random.Random(7)
        group = ec.RistrettoGroup()  # cold tables: exercises the build
        for base in [group.g] + _elements(2, 8):
            for e in _exponent_shapes(rng) + [rng.randrange(L) for _ in range(8)]:
                assert group.exp_fixed(base, e) == _ref_exp(base, e)

    def test_table_entries_are_three_field_elements(self):
        # The generator takes the wide table, everything else one no larger
        # than the 51 x 31 = 1,581 entries of an unsigned 5-bit table.
        (roster,) = _elements(1, 9)
        for base, width, rows in ((GROUP.g, 9, 29), (roster, 6, 43)):
            comb = GROUP._comb(base)
            assert comb.width == width
            assert len(comb.rows) == rows == -(-L.bit_length() // width)
            assert all(len(row) == 1 << (width - 1) for row in comb.rows)
            assert all(len(entry) == 3 for row in comb.rows for entry in row)
            assert L + comb.offset < 1 << (width * rows)
        assert 43 * 32 <= 1581

    def test_cached_affine_matches_pointwise_normalisation(self):
        points = [ec._decode(x) for x in _elements(5, 11)]
        points = [ec._dbl(ec._add(p, points[0])) for p in points]  # Z != 1
        for point, (y_plus_x, y_minus_x, t2d) in zip(
            points, ec._cached_affine(points)
        ):
            x, y, z, _ = point
            z_inv = pow(z, -1, ec.P)
            x, y = x * z_inv % ec.P, y * z_inv % ec.P
            assert (y_plus_x, y_minus_x) == ((y + x) % ec.P, (y - x) % ec.P)
            assert t2d == 2 * ec.D * x * y % ec.P
            assert ec._encode(ec._madd(points[0], (y_plus_x, y_minus_x, t2d))) == (
                ec._encode(ec._add(points[0], point))
            )


# -- the fixed-base kernels against the references ----------------------------


@pytest.fixture(scope="module")
def torsion():
    """E[8], the eight points whose double lies in the identity coset.

    ``L`` times any curve point is 8-torsion; one outside the even
    subgroup (which ristretto never decodes to, but the curve arithmetic
    must still get right) has order exactly 8 and generates the rest.
    """
    y = 2
    while True:
        y += 1
        xx = (y * y - 1) * pow(ec.D * y * y + 1, -1, ec.P) % ec.P
        x = pow(xx, (ec.P + 3) // 8, ec.P)
        if x * x % ec.P != xx:
            x = x * ec.SQRT_M1 % ec.P
        if x * x % ec.P != xx:
            continue
        generator = _ref_mul((x, y, 1, x * y % ec.P), L)
        x4, y4, z4, _ = _ref_mul(generator, 4)
        if x4 == 0 and (y4 + z4) % ec.P == 0:  # 4T = (0, -1): order 8
            return [_ref_mul(generator, j) for j in range(8)]


class TestFixedBaseKernels:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, L - 1), st.integers(0, 7), st.integers(1, ec.P - 1))
    def test_encode_double_is_the_encoding_of_the_double(
        self, torsion, k, shift, scale
    ):
        point = ec._add(_ref_mul(GROUP._base_point, k), torsion[shift])
        point = tuple(coordinate * scale % ec.P for coordinate in point)
        assert ec._encode_double(point) == ec._encode(ec._dbl(point))

    def test_encode_double_on_the_identity_coset_and_what_doubles_into_it(
        self, torsion
    ):
        # Among them the identity, every point with X = 0 or Y = 0, and the
        # four of order 8, where g = Y**2 + X**2 vanishes instead of e = 2XY.
        assert {(x == 0 or y == 0) for x, y, _, _ in torsion} == {True, False}
        for point in torsion:
            assert ec._encode_double(point) == ec._encode(ec._dbl(point)) == 0

    def test_a_double_in_the_identity_coset_is_zero_from_every_entry_point(
        self, torsion
    ):
        # Plant each 8-torsion point as the decoding the accumulator ends
        # on: exp and exp_fixed raise it, a product of two walks is left
        # with it after the rest cancels.
        (x,) = _elements(1, 61)
        for shift in torsion:
            group = ec.RistrettoGroup()
            inverse = group.inv(x)
            for e in (1, 2, 3, L - 1, 0xD155E27):
                group._decoded.put(0, shift)
                assert group.exp(0, e) == 0
                group._decoded.put(0, shift)  # the encode re-seeded its own
                assert group.exp_fixed(0, e) == 0
            group._decoded.put(x, ec._add(ec._decode(x), shift))
            for e in (1, 2, 3, L - 1, 0xD155E27):
                pairs = [(x, e), (inverse, e)]
                assert group.multiexp(pairs, hot_bases=(x, inverse)) == 0

    @pytest.mark.parametrize("which", ["generator", "roster-key"])
    def test_table_walk_is_double_and_add(self, which):
        base = GROUP.g if which == "generator" else _elements(1, 9)[0]
        comb = GROUP._comb(base)
        rng = random.Random(comb.width)
        scalars = [0, 1, L - 1, L, L + 1] + [rng.randrange(L) for _ in range(8)]
        for row in range(1, len(comb.rows) + 1):
            # Either side of the point where this row's digit changes sign.
            boundary = 1 << (comb.width * row - 1)
            scalars += [boundary - 1, boundary, boundary + 1]
        for e in scalars:
            walked = comb.walk(ec._IDENTITY, e % L)
            assert ec._encode(walked) == _ref_exp(base, e)
            # exp_fixed walks half its exponent: hand it the same digits.
            assert GROUP.exp_fixed(base, 2 * e) == _ref_exp(base, 2 * e)
            assert GROUP.exp_fixed(base, e) == _ref_exp(base, e)

    def test_decode_cache_holds_the_element_that_was_returned(self):
        group = ec.RistrettoGroup()
        rng = random.Random(17)
        (key,) = _elements(1, 17)
        for _ in range(6):
            k = rng.randrange(L)
            for x in (
                group.exp_g(k),
                group.exp_fixed(key, k),
                group.exp(key, k),
                group.multiexp([(group.g, k), (key, k + 1)], hot_bases=(key,)),
            ):
                held = group._decoded.get(x)
                assert _ristretto_equal(held, ec._decode(x))
                assert ec._encode(held) == x


# -- multiexp against the fold ------------------------------------------------


class TestMultiexpMatchesFold:
    @pytest.mark.parametrize(
        "count",
        [1, 2, 3, 11, ec.STRAUS_MAX_POINTS, ec.STRAUS_MAX_POINTS + 1, 150],
    )
    def test_both_sides_of_the_kernel_crossover(self, count):
        rng = random.Random(count)
        bases = _elements(count, seed=count)
        pairs = [(base, rng.getrandbits(128)) for base in bases]
        assert GROUP.multiexp(pairs) == _fold(GROUP, pairs)

    def test_kernels_agree_on_the_same_transient_set(self):
        rng = random.Random(3)
        transient = [
            (ec._decode(x), rng.getrandbits(bits))
            for x, bits in zip(_elements(12, 3), [1, 5, 64, 128, 200, 253] * 2)
        ]
        assert ec._encode(GROUP._straus(transient)) == ec._encode(
            GROUP._pippenger(transient)
        )

    def test_exponent_shapes_on_every_base_kind(self):
        rng = random.Random(21)
        hot, cold = _elements(2, 21)
        for e in _exponent_shapes(rng):
            pairs = [(GROUP.g, e), (hot, e + 1), (cold, e - 1), (cold, 5)]
            expected = _fold(GROUP, pairs)
            assert GROUP.multiexp(pairs, hot_bases=(hot,)) == expected
            assert GROUP.multiexp(pairs) == expected
            assert GROUP.multiexp(pairs, hot_bases=(hot, cold)) == expected

    def test_duplicate_bases_merge(self):
        a, b = _elements(2, 31)
        pairs = [(a, 7), (b, 2**127), (a, L - 3), (b, 9), (a, 2**128)]
        assert GROUP.multiexp(pairs) == _fold(GROUP, pairs)
        assert GROUP.multiexp(pairs, hot_bases=(a,)) == _fold(GROUP, pairs)

    def test_identity_base_and_empty_product(self):
        (a,) = _elements(1, 41)
        assert GROUP.multiexp([]) == GROUP.identity()
        assert GROUP.multiexp([(GROUP.identity(), 99)]) == GROUP.identity()
        assert GROUP.multiexp([(a, 0), (GROUP.identity(), 5)]) == GROUP.identity()
        assert GROUP.multiexp([(GROUP.identity(), 5), (a, 3)]) == GROUP.exp(a, 3)

    @pytest.mark.parametrize("hot", [False, True])
    def test_products_that_are_the_identity(self, hot):
        a, b = _elements(2, 51)
        e = random.Random(51).getrandbits(128)
        cancelling = [
            [(a, e), (a, -e)],  # merges to exponent zero
            [(a, e), (GROUP.inv(a), e)],  # cancels inside the kernel
            [(a, e), (b, 3), (GROUP.exp(a, e), -1), (GROUP.inv(b), 3)],
            [(GROUP.g, e), (GROUP.exp_g(e), L - 1)],
        ]
        for pairs in cancelling:
            hot_bases = (a,) if hot else ()
            assert GROUP.multiexp(pairs, hot_bases=hot_bases) == 0
            assert _fold(GROUP, pairs) == 0

    def test_every_identity_coset_representative_returns_zero(self, monkeypatch):
        # ristretto equality with the neutral element is X == 0 or Y == 0:
        # the four 4-torsion points.  Plant a torsion-shifted decoding of
        # an element (same ristretto element, different Edwards point) so
        # the accumulator of a cancelling product lands on each of them.
        torsion = [
            (0, 1, 1, 0),
            (0, ec.P - 1, 1, 0),
            (ec.SQRT_M1, 0, 1, 0),
            (ec.P - ec.SQRT_M1, 0, 1, 0),
        ]
        (x,) = _elements(1, 61)
        for shift in torsion:
            assert ec._encode(shift) == 0
            group = ec.RistrettoGroup()
            shifted = ec._add(ec._decode(x), shift)
            assert ec._encode(shifted) == x
            group._decoded.put(x, shifted)
            inverse = group.inv(x)
            group._decoded.put(x, shifted)  # inv() re-seeded the plain point
            assert ec._encode(ec._add(shifted, ec._neg(ec._decode(x)))) == 0
            with monkeypatch.context() as patched:
                patched.setattr(ec, "_encode", None)  # must not be reached
                assert group.multiexp([(x, 1), (inverse, 1)]) == 0

    def test_non_identity_results_still_encode_canonically(self):
        a, b = _elements(2, 71)
        product = GROUP.multiexp([(a, 1), (b, 1)])
        assert product == GROUP.mul(a, b) != 0
        assert GROUP.is_element(product)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 5),
                st.one_of(
                    st.integers(-(2**130), 2**130),
                    st.integers(0, 2 * L),
                    st.sampled_from([0, 1, -1, L, L - 1, L + 1]),
                ),
            ),
            max_size=9,
        ),
        st.sets(st.integers(0, 5), max_size=3),
    )
    def test_random_pair_lists(self, indexed, hot_indices):
        bases = [GROUP.g, GROUP.identity()] + _elements(4, 81)
        pairs = [(bases[i], e) for i, e in indexed]
        hot_bases = tuple(bases[i] for i in hot_indices if bases[i])
        assert GROUP.multiexp(pairs, hot_bases=hot_bases) == _fold(GROUP, pairs)


# -- signature verdicts against the textbook equation -------------------------


def _textbook_verify(key, message, signature) -> bool:
    group = key.group
    if not 0 <= signature.s < group.q or not group.is_element(signature.t):
        return False
    c = schnorr._challenge(group, key.y, signature.t, message)
    return group.exp_g(signature.s) == group.mul(signature.t, group.exp(key.y, c))


def _non_element(group) -> int:
    """An int of element width that is not a canonical group element."""
    if group.name == "ec25519":
        return int.from_bytes((ec.P + 1).to_bytes(32, "little"), "big")
    return group.p - 1  # order 2: outside the prime-order subgroup


@pytest.fixture(params=["ec25519", "test-256"])
def signed(request):
    """``(group, keys, items)``: eleven valid (key, message, signature)."""
    group = group_by_name(request.param)
    rng = random.Random(2012)
    keys = [PrivateKey.generate(group, rng) for _ in range(11)]
    items = [
        (key.public, b"message %d" % i, schnorr.sign(key, b"message %d" % i))
        for i, key in enumerate(keys)
    ]
    return group, keys, items


def _mutations(group, keys, item):
    """Named bad variants of one valid item."""
    key, message, signature = item
    other = next(k.public for k in keys if k.y != key.y)
    return {
        "forged-s": (key, message, dataclasses.replace(signature, s=(signature.s + 1) % group.q)),
        "forged-t": (key, message, dataclasses.replace(signature, t=group.mul(signature.t, group.g))),
        "wrong-key": (other, message, signature),
        "wrong-message": (key, message + b"!", signature),
        "out-of-range-s": (key, message, dataclasses.replace(signature, s=signature.s + group.q)),
        "negative-s": (key, message, dataclasses.replace(signature, s=signature.s - group.q)),
        "non-canonical-t": (key, message, dataclasses.replace(signature, t=_non_element(group))),
        "identity-t": (key, message, dataclasses.replace(signature, t=group.identity())),
    }


class TestSignatureVerdicts:
    def test_valid_signatures_accept_everywhere(self, signed):
        group, _, items = signed
        hot = tuple(key.y for key, _, _ in items)
        for item in items:
            assert _textbook_verify(*item)
            assert schnorr.verify(*item)
            assert schnorr.verify(*item, hot_bases=(item[0].y,))
        for size in (1, 2, 3, 11):
            assert schnorr.batch_verify(items[:size])
            assert schnorr.batch_verify(items[:size], hot_bases=hot)
            assert schnorr.find_invalid(items[:size], hot_bases=hot) == ()

    def test_each_mutation_matches_the_textbook_verdict(self, signed):
        group, keys, items = signed
        for name, bad in _mutations(group, keys, items[0]).items():
            assert not _textbook_verify(*bad), name
            assert not schnorr.verify(*bad), name
            assert not schnorr.verify(*bad, hot_bases=(bad[0].y,)), name
            assert not schnorr.batch_verify([bad]), name

    @pytest.mark.parametrize("size,position", [(3, 1), (11, 0), (11, 10), (11, 6)])
    def test_forgery_inside_a_batch_is_named_exactly(self, signed, size, position):
        group, keys, items = signed
        hot = tuple(key.y for key, _, _ in items)
        for name, bad in _mutations(group, keys, items[position]).items():
            batch = list(items[:size])
            batch[position] = bad
            for hot_bases in ((), hot):
                assert not schnorr.batch_verify(batch, hot_bases=hot_bases), name
                assert schnorr.find_invalid(batch, hot_bases=hot_bases) == (
                    position,
                ), name
            assert [i for i, item in enumerate(batch) if not _textbook_verify(*item)] == [
                position
            ]

    def test_several_forgeries_all_named(self, signed):
        group, keys, items = signed
        batch = list(items)
        variants = _mutations(group, keys, items[2])
        batch[2] = variants["forged-s"]
        batch[7] = _mutations(group, keys, items[7])["forged-t"]
        batch[9] = _mutations(group, keys, items[9])["non-canonical-t"]
        assert schnorr.find_invalid(batch) == (2, 7, 9)

    def test_swapped_signatures_do_not_cancel(self, signed):
        # Two individually invalid items whose errors would cancel under
        # equal coefficients must still fail under random ones.
        _, _, items = signed
        (k0, m0, s0), (k1, m1, s1) = items[0], items[1]
        batch = [(k0, m0, s1), (k1, m1, s0)] + list(items[2:5])
        assert not schnorr.batch_verify(batch)
        assert schnorr.find_invalid(batch) == (0, 1)

    def test_coefficients_stay_128_bits(self):
        from repro.crypto import proofs

        assert proofs.BATCH_COEFF_BITS == 128


# -- deterministic work gate --------------------------------------------------


#: Point operations of one warm scalar ``verify`` on a hot key: the
#: generator's 29 rows, the key's 43 and the bare commitment, less the odd
#: zero digit (measured: 70; 100 on the unsigned 5-bit tables).
SCALAR_VERIFY_BUDGET = 80

#: Point operations of one warm ``sign``: 29 rows and the doubling that
#: seeds the decode cache (measured: 30; 48 and a square root before).
SIGN_BUDGET = 31


class _Work:
    """Counts point operations, field exponentiations and inversions in
    ``ec25519``: ``pow(x, -1, P)`` is an extended GCD (~9 us here), any
    other ``pow`` a 250-squaring ladder (~120 us), and a budget that adds
    the two hides which one a kernel pays."""

    def __init__(self, monkeypatch):
        self.counts = dict.fromkeys(("_add", "_madd", "_dbl", "pow", "inv"), 0)
        for name in ("_add", "_madd", "_dbl"):
            monkeypatch.setattr(ec, name, self._counting(name, getattr(ec, name)))
        # A module global shadows the builtin for every lookup in ec25519.
        monkeypatch.setattr(ec, "pow", self._pow, raising=False)

    def _counting(self, name, fn):
        def counted(*args):
            self.counts[name] += 1
            return fn(*args)

        return counted

    def _pow(self, base, exponent, modulus):
        self.counts["inv" if exponent == -1 else "pow"] += 1
        return pow(base, exponent, modulus)

    def measure(self, fn) -> tuple[int, int, int]:
        """(point operations, field exponentiations, inversions) of ``fn()``."""
        before = dict(self.counts)
        assert fn() is True
        spent = {name: self.counts[name] - before[name] for name in before}
        return (
            spent["_add"] + spent["_madd"] + spent["_dbl"],
            spent["pow"],
            spent["inv"],
        )


class _ModularWork:
    """Counts modular reductions in a modp group, which spells every
    multiplication ``a * b % p`` inline: ``group`` is the given group on a
    modulus whose ``%`` counts (an ``int`` subclass that overrides
    ``__rmod__`` is asked before the left operand)."""

    def __init__(self, group):
        work = self
        plain = group.p

        class Modulus(int):
            def __rmod__(self, value):
                work.reductions += 1
                return value % plain

        self.reductions = 0
        self.group = dataclasses.replace(group, p=Modulus(plain))

    def measure(self, fn) -> int:
        before = self.reductions
        assert fn() is True
        return self.reductions - before


class TestWorkBudget:
    """Point operations, field exponentiations and inversions of work done
    afresh.

    The process remembers signatures it has accepted, so every measured
    call first empties that memo the way ``build_keys`` does; a repeated
    check would otherwise count nothing.
    """

    @pytest.fixture
    def warm(self):
        group = ec.RistrettoGroup()
        rng = random.Random(13)
        keys = [PrivateKey.generate(group, rng) for _ in range(11)]
        items = [
            (key.public, b"output %d" % i, schnorr.sign(key, b"output %d" % i))
            for i, key in enumerate(keys)
        ]
        hot = tuple(key.y for key in keys)
        schnorr.forget_accepted()  # same seed as the last test's group
        assert schnorr.batch_verify(items, hot_bases=hot)  # builds every table
        return items, hot

    def test_sign(self, warm, monkeypatch):
        """One table walk, one inversion to encode it, no square root."""
        group = warm[0][0][0].group  # its generator table is built
        key = PrivateKey.generate(group, random.Random(13))
        work = _Work(monkeypatch)
        signing = []

        def sign():
            signing.append(schnorr.sign(key, b"output"))
            return True

        operations, exponentiations, inversions = work.measure(sign)
        assert 0 < operations <= SIGN_BUDGET
        assert (exponentiations, inversions) == (0, 1)
        assert work.measure(sign) == (operations, 0, 1)  # counts repeat exactly
        assert signing[0] == signing[1]
        assert schnorr.verify(key.public, b"output", signing[0])

    @pytest.mark.parametrize("size", [3, 11], ids=["3-signatures", "11-signatures"])
    def test_hot_key_batch(self, warm, monkeypatch, size):
        """Measured: 209 at three and 766 at eleven, one equation at a time
        (as one product 369 and 935; on the 5-bit tables 297 and 1,035)."""
        items, hot = warm
        work = _Work(monkeypatch)

        def check():
            schnorr.forget_accepted()
            return schnorr.batch_verify(
                items[:size], hot_bases=hot, rng=random.Random(5)
            )

        operations, exponentiations, inversions = work.measure(check)
        assert (exponentiations, inversions) == (0, 0)
        assert 0 < operations <= size * SCALAR_VERIFY_BUDGET
        assert work.measure(check) == (operations, 0, 0)  # counts repeat exactly

    def test_scalar_verify(self, warm, monkeypatch):
        items, hot = warm
        work = _Work(monkeypatch)
        key, message, signature = items[0]

        def check():
            schnorr.forget_accepted()
            return schnorr.verify(key, message, signature, hot_bases=(key.y,))

        operations, exponentiations, inversions = work.measure(check)
        assert (exponentiations, inversions) == (0, 0)
        assert 0 < operations <= SCALAR_VERIFY_BUDGET
        assert work.measure(check) == (operations, 0, 0)

        def again():
            return schnorr.verify(key, message, signature, hot_bases=(key.y,))

        assert work.measure(again) == (0, 0, 0)  # remembered: nothing evaluated

    @pytest.mark.parametrize(
        "name,size",
        [("ec25519", 3), ("ec25519", 11), ("modp1536", 3), ("modp1536", 4)],
    )
    def test_hot_key_batch_takes_the_cheaper_route(self, monkeypatch, name, size):
        """``hot_batch_max`` is a count, recounted here on both CI backends:
        whichever way ``batch_verify`` routes an all-hot batch does no more
        work than the other way.  Measured, one at a time / one product:
        ec25519 209 / 369 point operations at three and 766 / 935 at eleven
        (no size at which the product wins); modp1536 1,806 / 1,822 modular
        reductions at three, 2,409 / 2,208 at four."""
        if name == "ec25519":
            group = ec.RistrettoGroup()
            work = _Work(monkeypatch)
        else:
            work = _ModularWork(group_by_name(name))
            group = work.group
        rng = random.Random(13)
        keys = [PrivateKey.generate(group, rng) for _ in range(size)]
        items = [
            (key.public, b"output %d" % i, schnorr.sign(key, b"output %d" % i))
            for i, key in enumerate(keys)
        ]
        hot = tuple(key.y for key in keys)

        def one_at_a_time():
            schnorr.forget_accepted()
            return all(schnorr.verify(*item, hot_bases=hot) for item in items)

        def routed():
            schnorr.forget_accepted()
            return schnorr.batch_verify(items, hot_bases=hot, rng=random.Random(5))

        def one_product():
            with monkeypatch.context() as patch:
                patch.setattr(type(group), "hot_batch_max", 0)
                return routed()

        assert one_at_a_time()  # builds every table
        scalar, product = work.measure(one_at_a_time), work.measure(one_product)
        assert scalar != product
        assert work.measure(routed) == min(scalar, product)
        assert (size <= group.hot_batch_max) == (scalar < product)
        assert (work.measure(one_at_a_time), work.measure(one_product)) == (
            scalar,
            product,
        )  # counts repeat exactly

    @pytest.mark.parametrize(
        "hot_keys", [True, False], ids=["one-at-a-time", "one-product"]
    )
    def test_invalid_batch_still_encodes_and_fails(self, warm, monkeypatch, hot_keys):
        items, hot = warm
        key, message, signature = items[1]
        forged = dataclasses.replace(signature, s=(signature.s + 1) % L)
        batch = [items[0], (key, message, forged), *items[2:5]]
        work = _Work(monkeypatch)
        for _ in range(2):  # a rejection is never remembered
            schnorr.forget_accepted()
            before = dict(work.counts)
            assert not schnorr.batch_verify(
                batch, hot_bases=hot if hot_keys else (), rng=random.Random(5)
            )
            # The failing product's encode: a commitment is a transient
            # base, so it is the square-root encode, and the only one.
            assert work.counts["pow"] - before["pow"] == 1
            assert work.counts["inv"] == before["inv"]

    def test_shuffle_step_and_its_verification(self, monkeypatch):
        """Measured: 17,198 point operations + 283 field exponentiations +
        32 inversions to mix, 10,473 + 13 + 0 to verify (on the 5-bit
        tables 21,300 + 315 and 10,532 + 13).

        Every re-randomization is two fixed-base walks — 29 mixed
        additions on the generator, 43 on the combined key — and two
        square-root encodes, because the component it multiplies into is a
        transient bare factor; the inversions are the products that are
        walks only.  What is left of the doublings is the strip proofs'
        transient ``a**x`` and ``a**k``.
        """
        group = ec.RistrettoGroup()
        rng = random.Random(13)
        servers = [PrivateKey.generate(group, rng) for _ in range(3)]
        publics = [key.public for key in servers]
        inputs = [
            shuffle.prepare_element_input(publics, group.random_element(rng), rng)
            for _ in range(8)
        ]
        steps = []

        def mix():
            # Proof nonces and batch coefficients come from the OS; seeded
            # here so the counts repeat exactly.
            monkeypatch.setattr(secrets, "randbelow", random.Random(7).randrange)
            steps.append(
                shuffle.shuffle_step(
                    servers[0], publics, inputs, 0, 16, b"work", random.Random(5)
                )
            )
            return True

        def check():
            monkeypatch.setattr(secrets, "randbelow", random.Random(7).randrange)
            return shuffle.verify_step(
                publics[0], publics, inputs, steps[0], b"work", 16
            )

        assert mix() and check()  # builds the generator and combined-key tables
        work = _Work(monkeypatch)

        spent = operations, exponentiations, inversions = work.measure(mix)
        assert 0 < operations <= 18_500
        assert 0 < exponentiations <= 300
        assert 0 < inversions <= 40
        assert work.measure(mix) == spent
        assert steps[1] == steps[2] == steps[0]

        spent = operations, exponentiations, inversions = work.measure(check)
        assert 0 < operations <= 11_500
        assert exponentiations <= 13  # one encode a quotient, not two
        assert inversions == 0
        assert work.measure(check) == spent

    @staticmethod
    def _batch_saves(monkeypatch, one_at_a_time, batched, factor, budget):
        """One batch costs at most ``1 / factor`` of the loop, and no pows."""
        assert batched()  # builds every table
        work = _Work(monkeypatch)
        scalar, _, _ = work.measure(one_at_a_time)
        operations, exponentiations, inversions = work.measure(batched)
        assert (exponentiations, inversions) == (0, 0)
        assert 0 < factor * operations <= scalar
        assert operations <= budget
        assert work.measure(batched) == (operations, 0, 0)  # counts repeat exactly

    def test_round_of_envelopes_batched_against_one_at_a_time(self, monkeypatch):
        """Measured: 13,412 one at a time, 2,867 batched (4.7x), no pows.

        A 32-client / 3-server round carries N ciphertexts and 3M peer
        messages, 41 signed envelopes.  The baseline is the textbook check
        with no key tables; the batch keeps the roster keys on theirs
        (and, every key being hot, is 41 two-walk equations, no product).
        """
        group = ec.RistrettoGroup()
        rng = random.Random(9)
        clients = [PrivateKey.generate(group, rng) for _ in range(32)]
        servers = [PrivateKey.generate(group, rng) for _ in range(3)]
        peers = (message.SERVER_INVENTORY, message.SERVER_COMMIT, message.SERVER_REVEAL)
        signers = [(key, message.CLIENT_CIPHERTEXT) for key in clients]
        signers += [(key, kind) for key in servers for kind in peers]
        items = []
        for key, kind in signers:
            body = rng.randbytes(96)
            envelope = message.make_envelope(key, kind, "node", b"gid", 7, body)
            items.append((envelope, key.public))
        hot = tuple(key.y for key in clients + servers)

        def one_at_a_time():
            schnorr.forget_accepted()
            for envelope, key in items:
                schnorr.require_valid(key, envelope.signed_payload(), envelope.signature)
            return True

        def batched():
            schnorr.forget_accepted()
            return not message.batch_verify_envelopes(
                items, hot_bases=hot, rng=random.Random(5)
            )

        self._batch_saves(monkeypatch, one_at_a_time, batched, factor=3, budget=3_000)

    def test_verdict_client_proofs_batched_against_one_at_a_time(self, monkeypatch):
        """Measured: 29,774 + 64 field exponentiations + 128 inversions one
        at a time, 3,465 + 0 + 0 batched (8.6x)."""
        group = ec.RistrettoGroup()
        rng = random.Random(7)
        servers = [PrivateKey.generate(group, rng) for _ in range(3)]
        combined = elgamal.combined_key([key.public for key in servers])
        slot = PrivateKey.generate(group, rng)
        statement = (group, combined, slot.y, b"sid", 5, 0, 1)
        submissions = [
            verdict.make_client_ciphertext(
                group, combined, slot.y, i, b"sid", 5, 0, 1,
                payload=None if i else b"q" * 8,
                slot_private=None if i else slot,
                rng=rng,
            )
            for i in range(16)
        ]

        def one_at_a_time():
            return all(
                verdict.verify_client_ciphertext(*statement, s) for s in submissions
            )

        def batched():
            return not verdict.batch_verify_client_ciphertexts(
                *statement, submissions, rng=random.Random(5)
            )

        self._batch_saves(monkeypatch, one_at_a_time, batched, factor=2, budget=3_700)

"""The elliptic-curve backend: ristretto255 (RFC 9496) over edwards25519.

A prime-order group of ~2**252 elements with 32-byte canonical encodings —
the ~256-bit setting Verdict's deployment analysis assumes, versus the
1536/2048-bit modp groups.  Scalars are ~6x narrower and the group
operation is a handful of multiplications in a 255-bit field instead of
one in a 1536-bit ring, which is where the multi-exp verification paths
gain their order of magnitude.

Pure Python by design (the repo has no external crypto dependency) and
**not constant-time** — the same caveat as the modp backend; this is a
protocol reproduction, not a hardened TLS stack.

Representation contract (see :class:`repro.crypto.groups.Group`): an
element is the big-endian integer reading of its canonical 32-byte
ristretto encoding.  All arithmetic decodes to extended Edwards
coordinates internally; a bounded LRU keeps hot decodings (long-lived
keys, repeated proof statements) from paying the ~one-field-pow decode
more than once, and every encode seeds the cache with its own result so
a value we produced is free to consume.

Kernels, sized for what the protocol issues (a steady-state round is
~50 batches of 3-11 signatures plus as many single checks; set-up and
blame verify shuffle links by the hundreds):

* **fixed bases** (the generator, roster keys, combined shuffle keys)
  walk a cached signed fixed-window table (:class:`_Comb`) held in
  *cached-affine* form ``(y+x, y-x, 2dxy)`` — three field elements an
  entry, one 7-multiplication :func:`_madd` a row, a negative digit being
  the stored entry with two coordinates swapped and one negated.  The
  generator's table is 9 bits wide (29 additions an exponentiation,
  7,424 entries, built once per process in ~60 ms), every other base's 6
  (43 additions, 1,376 entries, ~10 ms to build — about eight ladder
  exponentiations); which one a base gets follows from whether it is the
  generator, nothing a caller chooses;
* a product made **only of table walks** — ``exp_fixed``, so every
  signature's commitment, and any ``multiexp`` without a transient base —
  and the single ladder of ``exp`` raise to *half* of each exponent and
  encode the *double* of what they accumulate (:func:`_encode_double`):
  the same canonical 32 bytes for one field inversion (~9 us) where the
  encoding of a general point takes an inverse square root (~120 us).
  Halving costs a walk nothing and a full-width ladder nothing; it would
  widen a 128-bit batch coefficient or a bare factor to 252 bits, so a
  product with a transient base keeps its exponents and :func:`_encode`;
* **transient bases** share one doubling ladder.  Up to
  :data:`STRAUS_MAX_POINTS` of them run interleaved width-5 wNAF
  (:meth:`RistrettoGroup._straus`: an 8-entry odd-multiples table and
  about one signed addition per six exponent bits for each point); larger
  sets run Pippenger buckets, whose sweep only pays for itself once many
  points share it.  The choice depends on the set size alone;
* a product that is the **identity** — every valid batched verification —
  is recognised from its coordinates (RFC 9496 §4.5) and returned as
  ``0`` without the field exponentiation an encode costs.

With these a warm ``schnorr.sign`` is 29 mixed additions, one doubling
and one inversion, and a warm hot-key ``verify`` 70 point operations and
no field exponentiation at all (``tests/test_ec_kernels.py`` holds both
to their counts).

Message embedding uses try-and-increment over a trailing counter byte:
a framed message is placed in the high bytes of a candidate encoding and
the counter stepped (even values keep the sign bit clear) until the
candidate decodes as a canonical point — about 1 success in 4, so ~4
decode attempts per embedded element; the message reads straight back
out of the encoding integer, so decoding is exact and costless.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from collections.abc import Collection, Iterable
from functools import lru_cache

from repro.crypto.groups import Group, _multiexp_window
from repro.errors import CryptoError

# -- field and curve constants (derived, not transcribed) -----------------

#: The field prime 2**255 - 19.
P = 2**255 - 19

#: The prime group order: 2**252 + 27742317777372353535851937790883648493.
L = 2**252 + 27742317777372353535851937790883648493

#: Twisted Edwards d = -121665/121666 (a = -1).
D = (-121665 * pow(121666, -1, P)) % P

#: sqrt(-1) mod p, the canonical root 2**((p-1)/4) RFC 8032 uses.
SQRT_M1 = pow(2, (P - 1) // 4, P)
if SQRT_M1 * SQRT_M1 % P != P - 1:
    raise RuntimeError("ec25519 self-check failed: SQRT_M1**2 != -1")

_IDENTITY = (0, 1, 1, 0)

#: ``2**-1 mod L``.  Where the group knows every exponent of a product it
#: raises to half of each and encodes the double (:func:`_encode_double`).
_HALF = (L + 1) // 2

#: Digit width of the generator's table: 29 rows of 256 entries, built
#: once per process, one mixed addition a row.
GENERATOR_COMB_WIDTH = 9

#: Digit width of every other fixed base (roster keys, combined shuffle
#: keys): 43 rows of 32 entries, cheap enough to build per key.
FIXED_BASE_COMB_WIDTH = 6

#: Largest transient set the interleaved-wNAF kernel takes; above it the
#: Pippenger bucket method wins.  Measured crossover with 128-bit batch
#: coefficients on CPython 3.11 — the protocol's signature batches (3-11
#: points) sit far below it, shuffle-link batches (hundreds) above.
STRAUS_MAX_POINTS = 128


def _is_negative(e: int) -> int:
    """RFC 9496 field-element sign: negative iff odd."""
    return e & 1


def _abs(e: int) -> int:
    return P - e if e & 1 else e


def _sqrt_ratio_m1(u: int, v: int) -> tuple[bool, int]:
    """(was_square, r) with r = sqrt(u/v) or sqrt(SQRT_M1 * u/v), nonneg.

    The shared core of ristretto decode and encode (RFC 9496 §4.2 for
    p = 5 mod 8): one field exponentiation dominates the cost of both.
    """
    v3 = v * v % P * v % P
    v7 = v3 * v3 % P * v % P
    r = u * v3 % P * pow(u * v7 % P, (P - 5) // 8, P) % P
    check = v * r % P * r % P
    u %= P
    neg_u = (P - u) % P
    correct_sign = check == u
    flipped_sign = check == neg_u
    flipped_sign_i = check == neg_u * SQRT_M1 % P
    if flipped_sign or flipped_sign_i:
        r = r * SQRT_M1 % P
    return correct_sign or flipped_sign, _abs(r)


_INVSQRT_A_MINUS_D_OK, INVSQRT_A_MINUS_D = _sqrt_ratio_m1(1, (-1 - D) % P)
if not _INVSQRT_A_MINUS_D_OK:
    raise RuntimeError("ec25519 self-check failed: a - d is not square")


# -- extended-coordinate point arithmetic (a = -1) ------------------------

_2D = 2 * D % P


def _add(p1, p2):
    """Extended-coordinate addition (add-2008-hwcd-3 for a = -1)."""
    x1, y1, z1, t1 = p1
    x2, y2, z2, t2 = p2
    a = (y1 - x1) * (y2 - x2) % P
    b = (y1 + x1) * (y2 + x2) % P
    c = t1 * _2D % P * t2 % P
    d = 2 * z1 * z2 % P
    e = b - a
    f = d - c
    g = d + c
    h = b + a
    return (e * f % P, g * h % P, f * g % P, e * h % P)


def _dbl(p1):
    """Extended-coordinate doubling (dbl-2008-hwcd, a = -1)."""
    x1, y1, z1, _ = p1
    a = x1 * x1 % P
    b = y1 * y1 % P
    c = 2 * z1 * z1 % P
    e = ((x1 + y1) * (x1 + y1) - a - b) % P
    g = b - a
    f = g - c
    h = -a - b
    return (e * f % P, g * h % P, f * g % P, e * h % P)


def _neg(p1):
    x1, y1, z1, t1 = p1
    return ((P - x1) % P, y1, z1, (P - t1) % P)


def _madd(p1, n2):
    """Mixed addition: extended point + cached-affine ``(y+x, y-x, 2dxy)``.

    The table-entry form drops Z (it is 1) and carries the products the
    extended addition would recompute, so a fixed-base step costs 7 field
    multiplications instead of :func:`_add`'s 9 (madd-2008-hwcd-3).
    """
    x1, y1, z1, t1 = p1
    y_plus_x, y_minus_x, t2d = n2
    a = (y1 - x1) * y_minus_x % P
    b = (y1 + x1) * y_plus_x % P
    c = t1 * t2d % P
    d = 2 * z1
    e = b - a
    f = d - c
    g = d + c
    h = b + a
    return (e * f % P, g * h % P, f * g % P, e * h % P)


def _cached_affine(points):
    """Extended points -> ``(y+x, y-x, 2dxy)`` entries, one inversion total.

    Montgomery's trick: invert the product of all Z once and peel the
    individual inverses off backwards (Z is never 0 on a complete curve).
    """
    prefix = []
    running = 1
    for point in points:
        prefix.append(running)
        running = running * point[2] % P
    inverse = pow(running, -1, P)
    entries = [None] * len(points)
    for i in range(len(points) - 1, -1, -1):
        x, y, z, _ = points[i]
        z_inv = inverse * prefix[i] % P
        inverse = inverse * z % P
        x = x * z_inv % P
        y = y * z_inv % P
        entries[i] = ((y + x) % P, (y - x) % P, x * y % P * _2D % P)
    return entries


class _Comb:
    """Signed fixed-window table of one base: a mixed addition a row.

    Row ``i`` holds ``d * 2**(w*i) * base`` for ``d`` in ``1..2**(w-1)``
    as cached-affine ``(y+x, y-x, 2dxy)`` triples (one inversion
    normalises the whole table).  Adding ``offset`` — ``2**(w-1)`` in every
    window — to an exponent turns each window into ``digit + 2**(w-1)``
    with no carries between windows, so the digits lie in
    ``-2**(w-1) .. 2**(w-1)-1`` and a negative one is the stored entry with
    its first two coordinates swapped and the third negated: half the
    entries of an unsigned table of the same width.
    """

    __slots__ = ("width", "offset", "rows")

    def __init__(self, point, width: int) -> None:
        half = 1 << (width - 1)
        count = -(-L.bit_length() // width)
        multiples = []
        for _ in range(count):
            multiple = point
            multiples.append(multiple)
            for _ in range(half - 1):
                multiple = _add(multiple, point)
                multiples.append(multiple)
            point = _dbl(multiple)  # 2 * 2**(w-1): the next row's base
        entries = _cached_affine(multiples)
        self.width = width
        self.offset = sum(half << (width * i) for i in range(count))
        self.rows = tuple(
            tuple(entries[i : i + half]) for i in range(0, len(entries), half)
        )
        if (L + self.offset) >> (width * count):
            raise RuntimeError(f"ec25519 self-check failed: comb width {width}")

    def walk(self, acc, e: int):
        """``acc + e * base`` for ``0 <= e < L``."""
        width = self.width
        half = 1 << (width - 1)
        mask = (1 << width) - 1
        e += self.offset
        for row in self.rows:
            digit = (e & mask) - half
            if digit > 0:
                acc = _madd(acc, row[digit - 1])
            elif digit:
                y_plus_x, y_minus_x, t2d = row[-digit - 1]
                acc = _madd(acc, (y_minus_x, y_plus_x, -t2d))
            e >>= width
        return acc


def _wnaf5(e: int) -> list[tuple[int, int]]:
    """Width-5 NAF of ``e >= 0`` as ``(bit position, odd digit in ±1..±15)``.

    Nonzero digits are at least five positions apart, so a k-bit scalar
    has about k/6 of them.
    """
    digits = []
    position = 0
    while e:
        zeros = (e & -e).bit_length() - 1
        e >>= zeros
        position += zeros
        digit = e & 31
        if digit > 16:
            digit -= 32
        digits.append((position, digit))
        e = (e - digit) >> 5
        position += 5
    return digits


# -- canonical encode / decode (RFC 9496 §4.3) ----------------------------


def _decode(x: int):
    """Element int -> extended point, or CryptoError for non-elements.

    The element int is the big-endian reading of the 32-byte little-endian
    ristretto encoding, so the field value is the byte-reversal of ``x``.
    """
    if not 0 <= x < 1 << 256:
        raise CryptoError("ec element out of encoding range")
    s = int.from_bytes(x.to_bytes(32, "big"), "little")
    if s >= P or _is_negative(s):
        raise CryptoError("non-canonical ec element encoding")
    ss = s * s % P
    u1 = (1 - ss) % P
    u2 = (1 + ss) % P
    u2_sqr = u2 * u2 % P
    v = (-(D * u1 % P * u1) - u2_sqr) % P
    was_square, invsqrt = _sqrt_ratio_m1(1, v * u2_sqr % P)
    den_x = invsqrt * u2 % P
    den_y = invsqrt * den_x % P * v % P
    px = _abs(2 * s % P * den_x % P)
    py = u1 * den_y % P
    pt = px * py % P
    if not was_square or _is_negative(pt) or py == 0:
        raise CryptoError("ec element encoding does not decode to a point")
    return (px, py, 1, pt)


def _encode(point) -> int:
    """Extended point -> element int (canonical ristretto encoding)."""
    x0, y0, z0, t0 = point
    u1 = (z0 + y0) * (z0 - y0) % P
    u2 = x0 * y0 % P
    _, invsqrt = _sqrt_ratio_m1(1, u1 * u2 % P * u2 % P)
    den1 = invsqrt * u1 % P
    den2 = invsqrt * u2 % P
    z_inv = den1 * den2 % P * t0 % P
    if _is_negative(t0 * z_inv % P):
        x = y0 * SQRT_M1 % P
        y = x0 * SQRT_M1 % P
        den_inv = den1 * INVSQRT_A_MINUS_D % P
    else:
        x = x0
        y = y0
        den_inv = den2
    if _is_negative(x * z_inv % P):
        y = (P - y) % P
    s = _abs(den_inv * ((z0 - y) % P) % P)
    return int.from_bytes(s.to_bytes(32, "little"), "big")


def _encode_double(point) -> int:
    """``_encode(_dbl(point))`` for one field inversion and no square root.

    The double of ``(X : Y : Z : T)`` is ``(e/f, g/h)`` with ``e = 2XY``,
    ``f = Z² + dT²``, ``g = Y² + X²``, ``h = Z² − dT²``; written in those
    four, the inverse square root the encoding of a general point needs is
    a ratio of products already at hand, so ``1/(eg·fh)`` is the only
    expensive step (curve25519-dalek's ``double_and_compress_batch``).
    ``eg·fh`` vanishes only when the double lies in the identity coset;
    that case takes the reference route.
    """
    x0, y0, z0, t0 = point
    zz = z0 * z0 % P
    dtt = t0 * t0 % P * D % P
    e = 2 * x0 * y0 % P
    f = zz + dtt
    g = (y0 * y0 + x0 * x0) % P
    h = zz - dtt
    eg = e * g % P
    fh = f * h % P
    efgh = eg * fh % P
    if efgh == 0:
        return _encode(_dbl(point))
    inverse = pow(efgh, -1, P)
    z_inv = eg * inverse % P
    t_inv = fh * inverse % P
    if _is_negative(eg * z_inv % P):
        e, g, h = g, -e, f * SQRT_M1 % P
        magic = SQRT_M1
    else:
        magic = INVSQRT_A_MINUS_D
    if _is_negative(h * e % P * z_inv % P):
        g = -g
    s = _abs((h - g) * magic % P * g % P * t_inv % P)
    return int.from_bytes(s.to_bytes(32, "little"), "big")


def _basepoint():
    """The edwards25519 basepoint (y = 4/5, x even), as an extended point."""
    y = 4 * pow(5, -1, P) % P
    xx = (y * y - 1) * pow(D * y % P * y % P + 1, -1, P) % P
    x = pow(xx, (P + 3) // 8, P)
    if x * x % P != xx:
        x = x * SQRT_M1 % P
    if x * x % P != xx:
        raise RuntimeError("ec25519 self-check failed: basepoint recovery")
    if x & 1:
        x = P - x
    return (x, y, 1, x * y % P)


class _LRU:
    """Minimal bounded map: enough for the decode and table caches."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()

    def get(self, key):
        data = self._data
        try:
            data.move_to_end(key)
            return data[key]
        except KeyError:
            return None

    def put(self, key, value) -> None:
        data = self._data
        data[key] = value
        data.move_to_end(key)
        if len(data) > self.maxsize:
            data.popitem(last=False)


class RistrettoGroup(Group):
    """ristretto255 as a :class:`Group` backend (name ``"ec25519"``).

    Mirrors the modp backend's batching machinery — duplicate-base
    merging, a shared ladder for transient bases, fixed-base window
    tables — but carries intermediate values as extended Edwards points,
    so an entire multi-exponentiation pays at most one encode at the end
    (none when the product is the identity).  :meth:`multiexp` picks the
    transient kernel by set size: :meth:`_straus` up to
    :data:`STRAUS_MAX_POINTS` points, :meth:`_pippenger` above.
    """

    name = "ec25519"
    is_toy = False

    #: A hot-key signature costs the same walks either way (29 generator
    #: rows + 43 key rows one at a time; 43 key rows + ~30 additions to
    #: raise the commitment to its coefficient in a product) and the
    #: product adds a 128-doubling ladder on top.  Counted warm in point
    #: operations, one at a time / one product: 209 / 369 at three
    #: signatures, 766 / 935 at eleven, 2,875 / 3,086 at 41.
    hot_batch_max = math.inf

    #: Decode cache size: a round's working set is client keys + server
    #: keys + per-proof statements; 4096 covers paper-scale batches while
    #: bounding residency (5 ints per entry: the encoding and the four
    #: extended coordinates) to a few megabytes.
    DECODE_CACHE = 4096

    #: Fixed-base table cache entries (matches the modp LRU bound).  A
    #: key's table is 43 rows x 32 cached-affine entries of 3 ints — about
    #: 0.35 MB — and the generator's 29 x 256, 1.9 MB, so a full cache
    #: stays under 36 MB.
    TABLE_CACHE = 96

    def __init__(self) -> None:
        self._decoded = _LRU(self.DECODE_CACHE)
        self._tables = _LRU(self.TABLE_CACHE)
        self._base_point = _basepoint()
        self._g_int = _encode(self._base_point)
        self._decoded.put(self._g_int, self._base_point)

    # -- sizes and constants ----------------------------------------------

    @property
    def q(self) -> int:
        return L

    @property
    def g(self) -> int:
        return self._g_int

    @property
    def element_bytes(self) -> int:
        return 32

    @property
    def message_bytes(self) -> int:
        # 32-byte encoding minus one counter byte, one 0x01 guard byte,
        # and one zero top byte keeping the field value below p.
        return 29

    # -- internal point plumbing ------------------------------------------

    def _point(self, x: int):
        """Decode with caching; raises CryptoError for non-elements."""
        pt = self._decoded.get(x)
        if pt is None:
            pt = _decode(x)
            self._decoded.put(x, pt)
        return pt

    def _encode_cached(self, point) -> int:
        """Encode and seed the decode cache with our own result."""
        x = _encode(point)
        self._decoded.put(x, point)
        return x

    def _encode_double_cached(self, point) -> int:
        """Encode ``2 * point`` — what a product of halved exponents owes."""
        x = _encode_double(point)
        self._decoded.put(x, _dbl(point))
        return x

    # -- membership and arithmetic ----------------------------------------

    def is_element(self, x: int) -> bool:
        """Canonical-encoding/point validation — the EC membership check.

        Where the modp backend asks "is this a quadratic residue?", the
        EC backend asks "does this decode as a canonical ristretto
        encoding?" — which simultaneously rejects non-canonical field
        values, negative signs, and off-curve points.
        """
        try:
            self._point(x)
        except CryptoError:
            return False
        return True

    def mul(self, a: int, b: int) -> int:
        return self._encode_cached(_add(self._point(a), self._point(b)))

    def exp(self, base: int, e: int) -> int:
        # Every caller's exponent is a key, a nonce or a challenge: full
        # width already, so its half costs the ladder nothing more.
        half = e * _HALF % L
        return self._encode_double_cached(self._straus(((self._point(base), half),)))

    def exp_fixed(self, base: int, e: int) -> int:
        self._count_fixed_base()
        return self._encode_double_cached(
            self._comb(base).walk(_IDENTITY, e * _HALF % L)
        )

    def multiexp(
        self,
        pairs: Iterable[tuple[int, int]],
        hot_bases: Collection[int] = (),
    ) -> int:
        merged: dict[int, int] = {}
        for base, exponent in pairs:
            exponent %= L
            if base == 0 or exponent == 0:
                continue
            merged[base] = (merged.get(base, 0) + exponent) % L

        self._count_multiexp(len(merged))

        fixed: list[tuple[int, int]] = []
        transient: list[tuple[tuple, int]] = []
        hot = set(hot_bases)
        for base, exponent in merged.items():
            if exponent == 0:
                continue
            if base == self._g_int or base in hot:
                fixed.append((base, exponent))
            elif exponent == L - 1:
                # A bare inverse (the b/b' quotient of a strip check) is a
                # sign flip, not a full-width ladder.
                transient.append((_neg(self._point(base)), 1))
            else:
                transient.append((self._point(base), exponent))

        if transient:
            if len(transient) <= STRAUS_MAX_POINTS:
                acc = self._straus(transient)
            else:
                acc = self._pippenger(transient)
        elif fixed:
            # Nothing but table walks, whose cost does not depend on the
            # exponent: walk half of each and encode the double.  With a
            # transient base this would widen a 128-bit batch coefficient
            # or a bare factor to a full ladder.
            fixed = [(base, exponent * _HALF % L) for base, exponent in fixed]
            acc = _IDENTITY
        else:
            return 0
        for base, exponent in fixed:
            self._count_fixed_base()
            acc = self._comb(base).walk(acc, exponent)
        if not transient:
            return self._encode_double_cached(acc)
        # RFC 9496 §4.5 equality against the neutral element: the identity
        # coset is exactly the points with X == 0 or Y == 0, all of which
        # encode to 0 — so a product that is the identity (every valid
        # batched verification) skips the encode's field exponentiation.
        if acc[0] == 0 or acc[1] == 0:
            return 0
        return self._encode_cached(acc)

    def inv(self, a: int) -> int:
        return self._encode_cached(_neg(self._point(a)))

    def identity(self) -> int:
        # The 32-zero-byte string is the canonical encoding of the
        # neutral element, so its integer reading is 0.
        return 0

    # -- scalar multiplication kernels ------------------------------------

    def _comb(self, base: int) -> _Comb:
        """The signed fixed-window table of ``base``, LRU-cached.

        The width follows from what the base is: the generator serves
        every signature and commitment of the process and takes the wide
        table; any other base takes the one that is cheap to build.
        """
        comb = self._tables.get(base)
        if comb is None:
            self._count_table_build()
            width = (
                GENERATOR_COMB_WIDTH
                if base == self._g_int
                else FIXED_BASE_COMB_WIDTH
            )
            comb = _Comb(self._point(base), width)
            self._tables.put(base, comb)
        return comb

    @staticmethod
    def _straus(transient):
        """Interleaved width-5 wNAF multi-scalar multiplication.

        One doubling ladder shared by every point; each point contributes
        a table of its odd multiples (only as far as its largest digit)
        and one signed addition per nonzero wNAF digit — about a sixth of
        its exponent's bits.  No bucket sweep, so it wins while the
        per-point tables stay cheaper than Pippenger's shared buckets.
        """
        # slots[k]: the signed multiples to add once the ladder is at bit k.
        slots: list[list] = []
        for point, exponent in transient:
            digits = _wnaf5(exponent)
            if not digits:
                continue
            # odd[d] = d * point for odd d; negative digits index from the end.
            odd = [None] * 32
            odd[1] = multiple = point
            odd[-1] = _neg(point)
            largest = max(abs(digit) for _, digit in digits)
            if largest > 1:
                twice = _dbl(point)
                for d in range(3, largest + 1, 2):
                    odd[d] = multiple = _add(multiple, twice)
                    odd[-d] = _neg(multiple)
            while len(slots) <= digits[-1][0]:
                slots.append([])
            for position, digit in digits:
                slots[position].append(odd[digit])
        acc = None
        for parts in reversed(slots):
            if acc is not None:
                acc = _dbl(acc)
            for part in parts:
                acc = part if acc is None else _add(acc, part)
        return acc if acc is not None else _IDENTITY

    @staticmethod
    def _pippenger(transient):
        """Bucketed multi-scalar multiplication over extended points."""
        max_bits = max(exponent.bit_length() for _, exponent in transient)
        c = _multiexp_window(len(transient), max_bits)
        windows = -(-max_bits // c)
        mask = (1 << c) - 1
        result = None
        for w in range(windows - 1, -1, -1):
            if result is not None:
                for _ in range(c):
                    result = _dbl(result)
            buckets = [None] * (mask + 1)
            shift = w * c
            for point, exponent in transient:
                digit = (exponent >> shift) & mask
                if digit:
                    held = buckets[digit]
                    buckets[digit] = point if held is None else _add(held, point)
            # Suffix-sum sweep: sum_d d * bucket[d] in <= 2 * 2^c adds.
            running = None
            total = None
            for digit in range(mask, 0, -1):
                held = buckets[digit]
                if held is not None:
                    running = held if running is None else _add(running, held)
                if running is not None:
                    total = running if total is None else _add(total, running)
            if total is not None:
                result = total if result is None else _add(result, total)
        return result if result is not None else _IDENTITY

    # -- message embedding (try-and-increment) -----------------------------

    def encode_message(self, message: bytes) -> int:
        """Embed ``message`` into an element by counter search.

        The framed message ``0x01 || message`` occupies the high bytes of
        the candidate integer; the low byte is an even counter stepped
        until the candidate is a canonical encoding (~1/4 of candidates
        are).  128 even counters leave a failure probability below
        2**-50 per message; failures raise rather than loop forever.
        """
        if len(message) > self.message_bytes:
            raise CryptoError(
                f"message too long to embed: {len(message)} > {self.message_bytes}"
            )
        framed = int.from_bytes(b"\x01" + message, "big") << 8
        for counter in range(0, 256, 2):
            candidate = framed | counter
            try:
                point = _decode(candidate)
            except CryptoError:
                continue
            self._decoded.put(candidate, point)
            return candidate
        raise CryptoError("message embedding failed: no canonical candidate")

    def decode_message(self, element: int) -> bytes:
        """Invert :meth:`encode_message` by reading the encoding bytes."""
        self.require_element(element, "embedded message")
        framed = element >> 8
        raw = framed.to_bytes((framed.bit_length() + 7) // 8 or 1, "big")
        if not raw or raw[0] != 0x01:
            raise CryptoError("element does not carry an embedded message")
        return raw[1:]


@lru_cache(maxsize=None)
def ec_group() -> RistrettoGroup:
    """The ristretto255 backend singleton."""
    return RistrettoGroup()

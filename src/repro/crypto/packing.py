"""Ciphertext packing: many plaintext slots per Paillier ciphertext.

Per-component encryption (:class:`~repro.crypto.vector.EncryptedVector`)
spends one full ciphertext — and one ``r^n mod n²`` — on every vector
component, even though a Dubhe registry slot needs ~50 bits of plaintext and
the modulus offers 2048.  BatchCrypt-style packing (deployed in FATE, cited
in the paper's §6.4 as the cost baseline) closes that gap: multiple
fixed-point values are laid out in disjoint bit-ranges ("slots") of a single
plaintext, so a length-``l`` vector ships as ``⌈l / slots⌉`` ciphertexts
instead of ``l``.

Slot layout
-----------
Values are fixed-point encoded exactly as in the per-component path
(``e = round(v · base^precision)``) and stored with a per-addend offset so
slots never go negative (a negative slot would borrow into its neighbour):

* ``offset = ceil(max_abs_value · base^precision)`` bounds ``|e|``;
* a freshly encrypted slot holds ``e + offset ∈ [0, 2·offset]``;
* a sum of vectors with combined *weight* ``W`` (each fresh vector has
  weight 1; ``scale(k)`` multiplies the weight by ``k``) holds
  ``Σe + W·offset ∈ [0, 2·W·offset]``;
* ``slot_bits = bitlen(2·offset·max_weight) + 1`` guarantees a slot can
  absorb ``max_weight`` homomorphic additions without carrying into the next
  slot — the per-slot headroom for up to ``n_clients`` additions;
* decoding subtracts the accumulated offset: ``e = slot − W·offset``.

Because encode, integer addition and decode are the very same arithmetic the
per-component path performs, packed and per-component protocols decrypt to
**bit-identical** floats (asserted in the test-suite).

The packed plaintext never exceeds ``2^(slot_bits · slots_per_ciphertext)
− 1 ≤ public_key.max_int``, so the usual Paillier negative-wraparound range
is untouched.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence

import numpy as np

from .encoding import DEFAULT_BASE, DEFAULT_PRECISION
from .paillier import NoisePool, PaillierPrivateKey, PaillierPublicKey

__all__ = [
    "PackingScheme",
    "PackedEncryptedVector",
    "StreamingTreeAggregator",
    "DEFAULT_MAX_WEIGHT",
]

#: Default homomorphic-addition headroom: how many fresh vectors (clients)
#: can be summed into one packed ciphertext before a slot could overflow.
DEFAULT_MAX_WEIGHT = 128


class PackingScheme:
    """Slot geometry for packing a fixed-point vector under a public key.

    Two packed vectors can only be combined when their schemes are
    *compatible*: same modulus, vector length, slot width, fixed-point scale
    and headroom.

    Example
    -------
    >>> from repro.crypto import generate_keypair
    >>> public, _ = generate_keypair(key_size=256)
    >>> scheme = PackingScheme(public, vector_length=56, max_weight=100)
    >>> scheme.num_ciphertexts == -(-56 // scheme.slots_per_ciphertext)
    True
    """

    @classmethod
    def for_counts(cls, public_key: PaillierPublicKey, vector_length: int,
                   max_weight: int = DEFAULT_MAX_WEIGHT) -> "PackingScheme":
        """A scheme specialised for integer count vectors (registries).

        Dubhe registries are 0/1 vectors summed across clients, so the
        fixed-point machinery is overkill: ``base=2, precision=0`` makes the
        scale 1 (every integer encodes as itself, decode is exact) and
        shrinks a slot from ~50 bits under the float default to
        ``bitlen(4·max_weight) + 1`` bits — about 2.3× fewer ciphertexts per
        registry at million-client headroom, and proportionally fewer
        modular exponentiations.  Decrypted sums are bit-identical to the
        float-scheme path (both recover the exact integer).

        Example
        -------
        >>> from repro.crypto import generate_keypair
        >>> public, _ = generate_keypair(key_size=256)
        >>> scheme = PackingScheme.for_counts(public, 56, max_weight=10**6)
        >>> scheme.scale
        1
        """
        return cls(public_key, vector_length, max_weight=max_weight,
                   base=2, precision=0, max_abs_value=1.0)

    def __init__(self, public_key: PaillierPublicKey, vector_length: int,
                 max_weight: int = DEFAULT_MAX_WEIGHT,
                 base: int = DEFAULT_BASE, precision: int = DEFAULT_PRECISION,
                 max_abs_value: float = 1.0):
        if vector_length < 1:
            raise ValueError("vector_length must be positive")
        if max_weight < 1:
            raise ValueError("max_weight must be positive")
        if max_abs_value <= 0:
            raise ValueError("max_abs_value must be positive")
        self.public_key = public_key
        self.vector_length = vector_length
        self.max_weight = max_weight
        self.base = base
        self.precision = precision
        self.scale = base ** precision
        #: Per-addend slot offset; also the bound on a fresh |encoding|.
        #: +1 absorbs float rounding in ``max_abs_value · scale``.
        self.offset = int(np.ceil(max_abs_value * self.scale)) + 1
        # one guard bit on top of the worst-case slot value 2·offset·W
        self.slot_bits = (2 * self.offset * max_weight).bit_length() + 1
        capacity_bits = public_key.max_int.bit_length() - 1
        self.slots_per_ciphertext = capacity_bits // self.slot_bits
        if self.slots_per_ciphertext < 1:
            raise ValueError(
                f"a {public_key.key_size}-bit modulus cannot hold even one "
                f"{self.slot_bits}-bit slot (headroom for {max_weight} additions)"
            )
        self.num_ciphertexts = -(-vector_length // self.slots_per_ciphertext)
        self._slot_mask = (1 << self.slot_bits) - 1

    # -- codec ---------------------------------------------------------------

    def encode_chunk(self, encodings: Sequence[int]) -> int:
        """Pack ≤ ``slots_per_ciphertext`` signed encodings into one plaintext."""
        if len(encodings) > self.slots_per_ciphertext:
            raise OverflowError(
                f"{len(encodings)} encodings exceed the "
                f"{self.slots_per_ciphertext} slots of one ciphertext"
            )
        packed = 0
        shift = 0
        offset = self.offset
        for e in encodings:
            if abs(e) > offset:
                raise OverflowError(
                    f"encoding {e} exceeds the slot magnitude bound {offset}"
                )
            packed |= (e + offset) << shift
            shift += self.slot_bits
        return packed

    def decode_chunk(self, packed: int, count: int, weight: int) -> list[int]:
        """Unpack *count* slots of a decrypted plaintext back to encodings."""
        bias = weight * self.offset
        mask = self._slot_mask
        bits = self.slot_bits
        return [((packed >> (i * bits)) & mask) - bias for i in range(count)]

    def chunk_lengths(self) -> list[int]:
        """How many slots each of the ``num_ciphertexts`` chunks carries."""
        full, rem = divmod(self.vector_length, self.slots_per_ciphertext)
        lengths = [self.slots_per_ciphertext] * full
        if rem:
            lengths.append(rem)
        return lengths

    def compatible_with(self, other: "PackingScheme") -> bool:
        """Whether vectors packed under the two schemes can be combined."""
        return (
            self.public_key == other.public_key
            and self.vector_length == other.vector_length
            and self.max_weight == other.max_weight
            and self.slot_bits == other.slot_bits
            and self.base == other.base
            and self.precision == other.precision
            and self.offset == other.offset
        )


class PackedEncryptedVector:
    """A vector packed into ``⌈l/slots⌉`` Paillier ciphertexts.

    API-compatible with :class:`~repro.crypto.vector.EncryptedVector`:
    supports :meth:`add_`, :meth:`copy`, :meth:`decrypt` and :meth:`nbytes`,
    so the secure protocol layer can swap it in without touching the server.

    Example
    -------
    >>> import numpy as np
    >>> from repro.crypto import generate_keypair
    >>> public, private = generate_keypair(key_size=256)
    >>> a = PackedEncryptedVector.encrypt(public, [0.25, -0.5, 0.125])
    >>> b = PackedEncryptedVector.encrypt(public, [0.25, 0.5, 0.0],
    ...                                   scheme=a.scheme)
    >>> a.copy().add_(b).decrypt(private).tolist()
    [0.5, 0.0, 0.125]
    """

    def __init__(self, scheme: PackingScheme, ciphertexts: list[int], weight: int = 1):
        if len(ciphertexts) != scheme.num_ciphertexts:
            raise ValueError(
                f"expected {scheme.num_ciphertexts} ciphertexts, got {len(ciphertexts)}"
            )
        if not (1 <= weight <= scheme.max_weight):
            raise ValueError(f"weight {weight} outside [1, {scheme.max_weight}]")
        self.scheme = scheme
        self.public_key = scheme.public_key
        self.ciphertexts = list(ciphertexts)
        self.weight = weight
        self.base = scheme.base
        self.precision = scheme.precision

    # -- construction --------------------------------------------------------

    @classmethod
    def encrypt(cls, public_key: PaillierPublicKey,
                values: Iterable[float] | np.ndarray,
                scheme: Optional[PackingScheme] = None,
                max_weight: int = DEFAULT_MAX_WEIGHT,
                base: int = DEFAULT_BASE, precision: int = DEFAULT_PRECISION,
                max_abs_value: float = 1.0,
                noise: Optional[NoisePool | Sequence[int]] = None,
                rng: Optional[random.Random] = None) -> "PackedEncryptedVector":
        """Encrypt *values* packed, with headroom for *max_weight* additions.

        When *noise* is given (a :class:`NoisePool` or a pre-drawn sequence of
        ``r^n mod n²`` terms), each chunk consumes one precomputed term
        instead of running a modular exponentiation.
        """
        flat = np.asarray(list(values), dtype=float).ravel()
        if scheme is None:
            scheme = PackingScheme(public_key, len(flat), max_weight=max_weight,
                                   base=base, precision=precision,
                                   max_abs_value=max_abs_value)
        elif scheme.vector_length != len(flat):
            raise ValueError("scheme vector_length does not match the values")
        scale = scheme.scale
        encodings = [round(float(v) * scale) for v in flat]
        per_chunk = scheme.slots_per_ciphertext
        if noise is None:
            rn_values = None
        elif isinstance(noise, NoisePool):
            rn_values = noise.take_many(scheme.num_ciphertexts)
        else:
            rn_values = list(noise)
            if len(rn_values) < scheme.num_ciphertexts:
                raise ValueError(
                    f"need {scheme.num_ciphertexts} noise terms, got {len(rn_values)}"
                )
        ciphertexts = []
        for index, start in enumerate(range(0, len(encodings), per_chunk)):
            packed = scheme.encode_chunk(encodings[start:start + per_chunk])
            rn = rn_values[index] if rn_values is not None else None
            ciphertexts.append(public_key.raw_encrypt(packed, rng=rng, rn_value=rn))
        return cls(scheme, ciphertexts, weight=1)

    def decrypt(self, private_key: PaillierPrivateKey) -> np.ndarray:
        """Decrypt back to a float ndarray (same arithmetic as per-component)."""
        if private_key.public_key != self.public_key:
            raise ValueError("private key does not match this vector's public key")
        scheme = self.scheme
        scale = scheme.scale
        out = np.empty(scheme.vector_length, dtype=float)
        pos = 0
        for ciphertext, count in zip(self.ciphertexts, scheme.chunk_lengths()):
            packed = private_key.raw_decrypt(ciphertext)
            for e in scheme.decode_chunk(packed, count, self.weight):
                out[pos] = e / scale
                pos += 1
        return out

    # -- homomorphic algebra --------------------------------------------------

    def check_compatible(self, other: "PackedEncryptedVector") -> None:
        """Raise unless *other* can be added to this vector."""
        if not isinstance(other, PackedEncryptedVector):
            raise TypeError("can only combine with another PackedEncryptedVector")
        if not self.scheme.compatible_with(other.scheme):
            raise ValueError("cannot combine packed vectors with different schemes")

    def _check_weight(self, weight: int) -> int:
        if weight > self.scheme.max_weight:
            raise OverflowError(
                f"combined weight {weight} exceeds the packing headroom "
                f"max_weight={self.scheme.max_weight}; re-encrypt with a "
                f"larger max_weight"
            )
        return weight

    def copy(self) -> "PackedEncryptedVector":
        """A ciphertext-level copy (safe to accumulate into in place)."""
        return PackedEncryptedVector(self.scheme, self.ciphertexts, weight=self.weight)

    def add_(self, other: "PackedEncryptedVector") -> "PackedEncryptedVector":
        """In-place homomorphic addition (streaming aggregation)."""
        self.check_compatible(other)
        self.weight = self._check_weight(self.weight + other.weight)
        nsquare = self.public_key.nsquare
        own = self.ciphertexts
        theirs = other.ciphertexts
        for i in range(len(own)):
            own[i] = own[i] * theirs[i] % nsquare
        return self

    def scale(self, scalar: int) -> "PackedEncryptedVector":
        """Multiply every slot by a plaintext positive integer scalar.

        Negative scalars are rejected: a negative slot value would borrow
        across slot boundaries (use the per-component path for signed
        scaling).
        """
        if not isinstance(scalar, int) or isinstance(scalar, bool):
            raise TypeError("scale expects a plaintext int scalar")
        if scalar < 1:
            raise ValueError("packed vectors only support positive scalars")
        weight = self._check_weight(self.weight * scalar)
        nsquare = self.public_key.nsquare
        scaled = [pow(c, scalar, nsquare) for c in self.ciphertexts]
        return PackedEncryptedVector(self.scheme, scaled, weight=weight)

    # -- sizes -----------------------------------------------------------------

    def nbytes(self) -> int:
        """Total ciphertext wire size in bytes (components only)."""
        return len(self.ciphertexts) * self.public_key.ciphertext_bytes()


class StreamingTreeAggregator:
    """Fold a ciphertext stream into one sum — the package's only fold.

    A base-*arity* counter: digit ``d`` keeps one running partial sum and
    the number of arrivals folded into it; the ``arity``-th arrival
    completes the digit (its partial then covers ``arity^(d+1)`` pushes) and
    carries the partial up to digit ``d + 1``.  At most ``⌈log_arity N⌉``
    partials are alive at any moment — the aggregator's whole state — so
    streaming registration over N = 10^6 clients holds a few dozen
    ciphertext vectors, never N, and the longest chain of dependent
    additions, :attr:`depth`, is O(arity · log N).  ``arity=None`` never
    carries: one running sum, the flat left-to-right fold, depth N − 1.

    Paillier addition (ciphertext multiplication mod ``n²``) is associative
    and commutative, so every arity yields the very same ciphertext
    integers; only the depth differs.  Duck-typed: anything with
    ``copy``/``add_`` folds, and pushed vectors are never mutated.

    Example
    -------
    >>> from repro.crypto import generate_keypair
    >>> public, private = generate_keypair(key_size=256)
    >>> agg = StreamingTreeAggregator(arity=2)
    >>> for i in range(4):
    ...     agg.push(PackedEncryptedVector.encrypt(public, [i / 4]))
    >>> agg.count, agg.depth
    (4, 2)
    >>> agg.combined().decrypt(private).tolist()
    [1.5]
    """

    def __init__(self, arity: Optional[int] = 2):
        if arity is not None and arity < 2:
            raise ValueError("tree arity must be at least 2")
        self.arity = arity
        self.count = 0
        # digit d: None, or [running partial, its depth, arrivals folded in]
        self._digits: list[Optional[list]] = []

    def push(self, vector) -> None:
        """Absorb one ciphertext vector (the vector itself is not mutated)."""
        self.count += 1
        carry, depth, owned = vector, 0, False
        d = 0
        while True:
            if d == len(self._digits):
                self._digits.append(None)
            digit = self._digits[d]
            if digit is None:
                digit = self._digits[d] = [carry if owned else carry.copy(), depth, 0]
            else:
                # every arrival at digit d is exactly as deep as the first
                digit[0].add_(carry)
                digit[1] += 1
            digit[2] += 1
            if digit[2] != self.arity:
                return
            # a complete digit: its partial (now owned) carries upwards
            self._digits[d] = None
            carry, depth, owned = digit[0], digit[1], True
            d += 1

    def _alive(self) -> list[list]:
        return [digit for digit in self._digits if digit is not None]

    def combined(self):
        """The sum of everything pushed so far (leaves the state intact)."""
        alive = self._alive()
        if not alive:
            raise ValueError("cannot combine an empty aggregator")
        total = alive[0][0].copy()
        for partial, _, _ in alive[1:]:
            total.add_(partial)
        return total

    @property
    def depth(self) -> int:
        """Longest chain of dependent additions in :meth:`combined`'s result."""
        alive = self._alive()
        if not alive:
            return 0
        depth = alive[0][1]
        for _, d, _ in alive[1:]:
            depth = max(depth, d) + 1
        return depth

    @property
    def partials(self) -> int:
        """Number of partial sums currently held (at most ``⌈log_arity N⌉``)."""
        return len(self._alive())

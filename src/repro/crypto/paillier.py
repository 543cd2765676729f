"""The Paillier additively homomorphic cryptosystem.

This is a from-scratch implementation of the scheme used by Dubhe (and by
secure FL frameworks such as FATE) to exchange label-distribution registries
without revealing them to the server.

Scheme summary
--------------
* **Key generation.** Choose primes ``p, q`` of equal length, let
  ``n = p * q`` and ``λ = lcm(p-1, q-1)``.  With the standard simplification
  ``g = n + 1`` the public key is ``n`` and the private key is ``(λ, μ)``
  where ``μ = λ^{-1} mod n``.
* **Encryption.** ``Enc(m; r) = g^m · r^n mod n²`` with a random
  ``r ∈ Z_n*``.
* **Decryption.** ``Dec(c) = L(c^λ mod n²) · μ mod n`` with
  ``L(x) = (x - 1) / n``.
* **Homomorphism.** ``Dec(Enc(a) · Enc(b) mod n²) = a + b mod n`` and
  ``Dec(Enc(a)^k mod n²) = k·a mod n``.

The implementation also provides the usual engineering refinements found in
production libraries: CRT-accelerated decryption and **key-holder noise**:
the encryption noise ``r^n mod n²`` has one definition and two spellings,
:meth:`PaillierPublicKey.raw_noise` (one full-size exponentiation, all a
public-key-only party can do) and :meth:`PaillierPrivateKey.raw_noise` (the
same integer by CRT over ``p²`` and ``q²``, Paillier 1999 §7, ~2–3× cheaper).
In Dubhe every encryptor is a client and the agent dispatches the whole key
pair to the clients (§5.1), so client-side encryption draws its noise from a
:class:`NoisePool` built on ``sk_t``; only the server lacks ``sk_t``, and it
never encrypts.  The shortcut changes nothing an observer can see: ``r`` is
drawn exactly as before and ``r^n mod n²`` is the same integer either way,
so ciphertexts are bit-identical and their distribution is unchanged.
"""

from __future__ import annotations

import math
import random
import secrets
import threading
from dataclasses import dataclass, field
from typing import Optional

from .primes import generate_distinct_primes

__all__ = [
    "PaillierPublicKey",
    "PaillierPrivateKey",
    "PaillierKeypair",
    "NoisePool",
    "generate_keypair",
    "DEFAULT_KEY_SIZE",
    "PAPER_KEY_SIZE",
]

#: Default modulus size (bits) used throughout the test-suite and reduced
#: scale benchmarks.  Large enough to hold encoded distribution values with
#: a wide safety margin while keeping the suite fast.
DEFAULT_KEY_SIZE = 256

#: Key size used in the paper's overhead study (§6.4), matching FATE and
#: BatchCrypt deployments.
PAPER_KEY_SIZE = 2048


class PaillierPublicKey:
    """Public half of a Paillier keypair.

    Encapsulates the modulus ``n`` and provides raw (integer) encryption and
    the homomorphic primitives on raw ciphertexts.  Higher-level float/vector
    handling lives in :mod:`repro.crypto.encoding` and
    :mod:`repro.crypto.vector`.
    """

    def __init__(self, n: int):
        if n <= 3:
            raise ValueError("invalid Paillier modulus")
        self.n = n
        self.nsquare = n * n
        self.g = n + 1
        # Maximum plaintext magnitude; values above max_int (as |x|) risk
        # overflow once sums of many ciphertexts are decrypted.
        self.max_int = n // 3 - 1

    # -- encryption ---------------------------------------------------------

    def get_random_lt_n(self, rng: Optional[random.Random] = None,
                        check_coprime: bool = True) -> int:
        """Draw a random element of ``Z_n*`` used as encryption noise.

        With ``check_coprime=False`` the gcd rejection loop is skipped.  For a
        well-formed modulus (a product of two large primes) a uniform draw
        from ``[1, n)`` fails to be coprime with probability
        ``(p + q - 1)/n ≈ 2^{1-n.bit_length()/2}`` — negligible for any real
        key size — so production deployments (FATE's batched encryptors)
        sample without the gcd check.
        """
        while True:
            if rng is None:
                r = secrets.randbelow(self.n - 1) + 1
            else:
                r = rng.randrange(1, self.n)
            if not check_coprime or math.gcd(r, self.n) == 1:
                return r

    def raw_encrypt(self, plaintext: int, r_value: Optional[int] = None,
                    rng: Optional[random.Random] = None,
                    rn_value: Optional[int] = None) -> int:
        """Encrypt an integer plaintext already reduced into ``Z_n``.

        With ``g = n + 1`` the term ``g^m mod n²`` simplifies to
        ``1 + n·m mod n²``, avoiding one modular exponentiation.

        Parameters
        ----------
        r_value:
            Explicit noise ``r``; ``r^n mod n²`` is still computed here
            (:meth:`raw_noise`).
        rn_value:
            Precomputed ``r^n mod n²`` (e.g. from a :class:`NoisePool`),
            skipping the modular exponentiation entirely — the dominant cost
            of Paillier encryption.
        """
        if not isinstance(plaintext, int):
            raise TypeError(f"plaintext must be int, got {type(plaintext).__name__}")
        m = plaintext % self.n
        gm = (1 + self.n * m) % self.nsquare
        if rn_value is not None:
            return (gm * rn_value) % self.nsquare
        r = r_value if r_value is not None else self.get_random_lt_n(rng)
        return (gm * self.raw_noise(r)) % self.nsquare

    def raw_noise(self, r: int) -> int:
        """The encryption noise term ``r^n mod n²`` for the random ``r``.

        The one place the full-size exponentiation is spelled.  A holder of
        the private key computes the same integer ~2–3× cheaper with
        :meth:`PaillierPrivateKey.raw_noise`.
        """
        return pow(r, self.n, self.nsquare)

    # -- misc ---------------------------------------------------------------

    @property
    def key_size(self) -> int:
        """Modulus size in bits."""
        return self.n.bit_length()

    def ciphertext_bytes(self) -> int:
        """Wire size of one ciphertext in bytes (an element of ``Z_{n²}``)."""
        return (self.nsquare.bit_length() + 7) // 8

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PaillierPublicKey) and other.n == self.n


class NoisePool:
    """A pool of precomputed encryption noise terms ``r^n mod n²``.

    The modular exponentiation behind each term dominates Paillier
    encryption cost (the ``g^m`` term is a single multiplication thanks to
    ``g = n + 1``).  Because the noise is independent of the plaintext it can
    be generated ahead of time — during idle periods, on other cores, or
    between protocol rounds — and consumed in O(1) per encryption.  This is
    the "advance obfuscation" optimisation of FATE/BatchCrypt-style
    deployments.  A pool that was never :meth:`refill`-ed is simply the
    inline path: :meth:`take_many` generates what it hands out.

    The pool is built on **the key half its owner holds** and calls that
    half's ``raw_noise``: a Dubhe client (which holds ``sk_t``) passes the
    private key and gets the CRT spelling, a public-key-only party passes
    the public key and pays the full exponentiation.  Same ``r`` sequence,
    same terms, in the same order, either way.  A pool built on the private
    key is client-side state and must never be handed to the server.

    The pool is thread-safe: one shared instance may feed several encryptors.

    Parameters
    ----------
    key:
        The :class:`PaillierPrivateKey` or :class:`PaillierPublicKey` whose
        modulus the noise is generated for.
    rng:
        Optional seeded RNG for reproducible pools in tests; secure
        randomness is used when omitted.
    check_coprime:
        Forwarded to :meth:`PaillierPublicKey.get_random_lt_n`; the default
        ``False`` uses the fast path that skips the gcd rejection loop.
    """

    def __init__(self, key: "PaillierPublicKey | PaillierPrivateKey",
                 rng: Optional[random.Random] = None,
                 check_coprime: bool = False):
        self.key = key
        self.public_key = (key if isinstance(key, PaillierPublicKey)
                           else key.public_key)
        self.rng = rng
        self.check_coprime = check_coprime
        self.generated = 0
        self._pool: list[int] = []
        self._lock = threading.Lock()

    def _generate(self, count: int) -> list[int]:
        draw = self.public_key.get_random_lt_n
        raw_noise = self.key.raw_noise
        return [raw_noise(draw(self.rng, check_coprime=self.check_coprime))
                for _ in range(count)]

    def refill(self, count: int) -> None:
        """Batch-generate *count* noise terms into the pool."""
        if count < 0:
            raise ValueError("count must be non-negative")
        fresh = self._generate(count)
        with self._lock:
            self._pool.extend(fresh)
            self.generated += count

    def take_many(self, count: int) -> list[int]:
        """Pop *count* noise terms, generating any shortfall in one batch."""
        if count < 0:
            raise ValueError("count must be non-negative")
        with self._lock:
            grabbed = self._pool[-count:] if count else []
            del self._pool[len(self._pool) - len(grabbed):]
        shortfall = count - len(grabbed)
        if shortfall:
            grabbed.extend(self._generate(shortfall))
            with self._lock:
                self.generated += shortfall
        return grabbed


class PaillierPrivateKey:
    """Private half of a Paillier keypair.

    Decryption uses the Chinese Remainder Theorem over the prime factors,
    which is roughly 4x faster than the textbook formula and is what
    production libraries (python-paillier, FATE) do.  :meth:`raw_noise`
    applies the same factorisation to the encryption noise term.
    """

    def __init__(self, public_key: PaillierPublicKey, p: int, q: int):
        if p * q != public_key.n:
            raise ValueError("p * q does not match the public modulus")
        if p == q:
            raise ValueError("p and q must be distinct")
        self.public_key = public_key
        # order so behaviour is independent of argument order
        self.p, self.q = (p, q) if p < q else (q, p)
        self.psquare = self.p * self.p
        self.qsquare = self.q * self.q
        self.p_inverse = pow(self.p, -1, self.q)
        self.psquare_inverse = pow(self.psquare, -1, self.qsquare)
        self.hp = self._h_function(self.p, self.psquare)
        self.hq = self._h_function(self.q, self.qsquare)

    # -- helpers ------------------------------------------------------------

    def _h_function(self, x: int, xsquare: int) -> int:
        """Precompute ``L(g^{x-1} mod x²)^{-1} mod x`` for CRT decryption."""
        g = self.public_key.g
        return pow(self._l_function(pow(g, x - 1, xsquare), x), -1, x)

    @staticmethod
    def _l_function(u: int, n: int) -> int:
        """The Paillier ``L`` function, ``L(u) = (u - 1) // n``."""
        return (u - 1) // n

    @staticmethod
    def _crt(mp: int, mq: int, p: int, q: int, p_inverse: int) -> int:
        """Recombine residues mod p and mod q into a value mod p*q."""
        u = ((mq - mp) * p_inverse) % q
        return mp + u * p

    # -- decryption ---------------------------------------------------------

    def raw_decrypt(self, ciphertext: int) -> int:
        """Decrypt a raw ciphertext to an integer in ``[0, n)``."""
        if not isinstance(ciphertext, int):
            raise TypeError(f"ciphertext must be int, got {type(ciphertext).__name__}")
        c = ciphertext % self.public_key.nsquare
        mp = (self._l_function(pow(c, self.p - 1, self.psquare), self.p) * self.hp) % self.p
        mq = (self._l_function(pow(c, self.q - 1, self.qsquare), self.q) * self.hq) % self.q
        return self._crt(mp, mq, self.p, self.q, self.p_inverse)

    # -- key-holder encryption noise -----------------------------------------

    def raw_noise(self, r: int) -> int:
        """``r^n mod n²`` by CRT — equal to the public key's for every ``r``.

        ``r^n = (r^q)^p``, and ``x^p mod p²`` depends only on ``x mod p``
        (every other term of ``(x + kp)^p`` carries ``p²``), so ``r^q`` is
        only needed modulo ``p`` — where Fermat reduces the exponent to
        ``q mod (p − 1)``.  That leaves two half-exponent, half-modulus
        exponentiations plus two quarter-size ones instead of one full-size
        one (Paillier 1999, §7).  No coprimality assumption: ``r ≡ 0 mod p``
        gives 0 on both sides.
        """
        p, q = self.p, self.q
        rp = pow(pow(r % p, q % (p - 1), p), p, self.psquare)
        rq = pow(pow(r % q, p % (q - 1), q), q, self.qsquare)
        return self._crt(rp, rq, self.psquare, self.qsquare,
                         self.psquare_inverse)


@dataclass(frozen=True)
class PaillierKeypair:
    """A public/private keypair produced by :func:`generate_keypair`."""

    public_key: PaillierPublicKey
    private_key: PaillierPrivateKey
    key_size: int = field(default=DEFAULT_KEY_SIZE)

    def __iter__(self):
        # allow ``pk, sk = generate_keypair(...)`` style unpacking
        yield self.public_key
        yield self.private_key


def generate_keypair(key_size: int = DEFAULT_KEY_SIZE,
                     rng: Optional[random.Random] = None) -> PaillierKeypair:
    """Generate a Paillier keypair with an *key_size*-bit modulus.

    Parameters
    ----------
    key_size:
        Bit length of the modulus ``n``.  The paper's overhead study uses
        2048-bit keys (:data:`PAPER_KEY_SIZE`); tests use a smaller modulus
        for speed — the homomorphic algebra is identical.
    rng:
        Optional seeded :class:`random.Random` for reproducible keys in tests.
        When omitted, cryptographically secure randomness is used.
    """
    if key_size < 16:
        raise ValueError(f"key_size too small: {key_size}")
    n = 0
    while n.bit_length() != key_size:
        p, q = generate_distinct_primes(key_size // 2, rng=rng)
        n = p * q
    public = PaillierPublicKey(n)
    private = PaillierPrivateKey(public, p, q)
    return PaillierKeypair(public, private, key_size)

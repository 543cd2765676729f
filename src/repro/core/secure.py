"""The encrypted registration / selection protocol (the HE side of Dubhe).

Roles, matching Figure 3/4 of the paper:

* **clients** hold plaintext label distributions, fill registries locally,
  and encrypt everything they transmit under the round key — they were
  dispatched the whole pair, so their noise comes from a
  :class:`~repro.crypto.paillier.NoisePool` built on ``sk_t`` (the CRT
  spelling of ``r^n mod n²``; same ciphertexts, about half the cost).  A
  client encrypts its ``p_l`` once per key epoch and *re-sends* that
  ciphertext on every tentative try it is drawn into (see
  :meth:`SecureClient.encrypted_distribution`);
* the **server** only ever touches ciphertexts: it sums the encrypted
  registries (or encrypted distributions during multi-time selection) and
  forwards aggregates — it never holds the private key, nor a noise pool
  built on it;
* the **agent** (a randomly chosen client) generates the round key-pair,
  dispatches it to clients, and performs decryption duties on aggregates.

The protocol classes below also meter every byte and message they move so
the §6.4 overhead study reads its numbers from the same code path the
selection uses.

Million-client scale
--------------------
Two orthogonal knobs push the round to large N (see ``docs/scaling.md``):

* the server folds every arrival through one
  :class:`~repro.crypto.packing.StreamingTreeAggregator`; with
  ``aggregation="tree"`` it carries every *arity* arrivals up a level, so
  the longest chain of dependent Paillier additions is O(log N) instead of
  N − 1 — the same ciphertexts, since Paillier addition is associative and
  commutative;
* :meth:`SecureRegistrationRound.run_stream` consumes client distributions
  in chunks, registering / encrypting / folding one batch at a time and
  discarding each batch's registries before the next, so peak memory is
  O(batch), never O(N).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from ..crypto.batch import AnyEncryptedVector, BatchCryptoExecutor, encrypt_one
from ..crypto.encoding import DEFAULT_BASE, DEFAULT_PRECISION
from ..crypto.keyagent import KeyAgent
from ..crypto.packing import (DEFAULT_MAX_WEIGHT, PackingScheme,
                              StreamingTreeAggregator)
from ..crypto.paillier import NoisePool, PaillierPrivateKey, PaillierPublicKey
from ..crypto.vector import plaintext_vector_bytes
from .config import DubheConfig, resolve_aggregation_mode
from .registry import BatchRegistration, RegistryCodebook

__all__ = [
    "ProtocolStats",
    "SecureAggregationServer",
    "SecureClient",
    "SecureRegistrationRound",
    "SecureDistributionAggregation",
    "StreamedRegistration",
    "iter_distribution_batches",
]


@dataclass
class ProtocolStats:
    """Bytes, messages and wall-time spent by one protocol execution.

    This is the protocol's one cost meter: every role books into it, and the
    §6.4 overhead study reads it.  The booking convention:

    * every message carries one vector's worth of ciphertexts, and a
      transmission is booked twice — once when the client sends it and once
      when the server receives it;
    * a registration round also books the N messages that synchronise the
      aggregate back to the clients, so it reads 3N messages;
    * ``plaintext_bytes`` counts each uploaded vector once, at the sender;
    * ``decrypt_seconds`` books the registry's decrypt and the agent's
      decrypt of every scored try.

    So ``ciphertext_bytes / messages`` is the per-vector ciphertext size and
    ``plaintext_bytes / uploads`` the per-vector plaintext size, while
    :attr:`expansion_factor` is bytes *moved* per plaintext byte: 3× the
    per-vector expansion for a registration, 2× for a scored try.

    Example
    -------
    >>> a = ProtocolStats(messages=2, plaintext_bytes=10, ciphertext_bytes=40)
    >>> b = a.merged_with(ProtocolStats(messages=1))
    >>> (b.messages, b.expansion_factor)
    (3, 4.0)
    """

    messages: int = 0
    plaintext_bytes: int = 0
    ciphertext_bytes: int = 0
    encrypt_seconds: float = 0.0
    decrypt_seconds: float = 0.0
    #: Offline cost of pre-generating ``r^n mod n²`` noise; kept separate
    #: from ``encrypt_seconds`` because it can run ahead of the round.
    noise_precompute_seconds: float = 0.0

    def merged_with(self, other: "ProtocolStats") -> "ProtocolStats":
        """A new :class:`ProtocolStats` holding the field-wise sums."""
        return ProtocolStats(
            messages=self.messages + other.messages,
            plaintext_bytes=self.plaintext_bytes + other.plaintext_bytes,
            ciphertext_bytes=self.ciphertext_bytes + other.ciphertext_bytes,
            encrypt_seconds=self.encrypt_seconds + other.encrypt_seconds,
            decrypt_seconds=self.decrypt_seconds + other.decrypt_seconds,
            noise_precompute_seconds=(self.noise_precompute_seconds
                                      + other.noise_precompute_seconds),
        )

    @property
    def expansion_factor(self) -> float:
        """Ciphertext bytes moved per plaintext byte uploaded.

        Not the per-vector ratio: a registration reads 3× it, a scored try
        2× (see the booking convention above).
        """
        if self.plaintext_bytes == 0:
            return 0.0
        return self.ciphertext_bytes / self.plaintext_bytes


class SecureAggregationServer:
    """The honest-but-curious server: aggregates ciphertexts, nothing else.

    The class deliberately has no attribute that could hold a private key and
    no decryption method — the trust-boundary tests walk the object graph of
    every live server and assert that no private key and no noise pool is
    reachable from it.

    Aggregation is *streaming*, so server memory never grows with N: every
    arrival folds through one
    :class:`~repro.crypto.packing.StreamingTreeAggregator`.  ``arity=None``
    (default) keeps one running sum (fold depth N − 1); an integer *arity*
    keeps O(log N) partial sums so the longest chain of dependent additions —
    :attr:`fold_depth` — is O(log N).  The ciphertexts are the same either
    way (Paillier addition is associative and commutative); the tree only
    matters for latency and pipelining at million-client scale.  An upload
    of another kind or packing scheme than the first one folded is refused
    when it arrives.

    Example
    -------
    >>> from repro.crypto.paillier import generate_keypair
    >>> from repro.crypto.vector import EncryptedVector
    >>> pk = generate_keypair(key_size=64).public_key
    >>> server = SecureAggregationServer(pk, arity=2)
    >>> server.receive(EncryptedVector.encrypt(pk, [1.0, 0.0]))
    >>> server.receive(EncryptedVector.encrypt(pk, [0.0, 1.0]))
    >>> (server.received_count, server.fold_depth)
    (2, 1)
    """

    def __init__(self, public_key: PaillierPublicKey, arity: Optional[int] = None):
        self.public_key = public_key
        self._fold = StreamingTreeAggregator(arity=arity)
        #: a copy of the first upload, which every later one must match
        self._first: Optional[AnyEncryptedVector] = None
        self.stats = ProtocolStats()

    def receive(self, ciphertext: AnyEncryptedVector) -> None:
        """Accept one client's encrypted vector and fold it into the sum."""
        if ciphertext.public_key != self.public_key:
            raise ValueError("ciphertext was produced under a different round key")
        if self._first is None:
            self._first = ciphertext.copy()
        else:
            self._first.check_compatible(ciphertext)
        self._fold.push(ciphertext)
        self.stats.messages += 1
        self.stats.ciphertext_bytes += ciphertext.nbytes()

    def aggregate(self) -> AnyEncryptedVector:
        """The homomorphic sum of every received vector (still encrypted).

        Returns a copy, so callers can keep (or mutate) the result while the
        server continues to fold in late arrivals.
        """
        if self._fold.count == 0:
            raise ValueError("no ciphertexts received")
        return self._fold.combined()

    @property
    def fold_depth(self) -> int:
        """Longest chain of dependent additions behind :meth:`aggregate`.

        ``N − 1`` for the flat fold, O(log N) for the tree — the scale suite
        asserts both.
        """
        return self._fold.depth

    @property
    def received_count(self) -> int:
        """How many client ciphertexts have been folded in."""
        return self._fold.count

    def reset(self) -> None:
        """Drop the running aggregate and start a fresh round."""
        self._fold.reset()
        self._first = None


class SecureClient:
    """A client's view of the secure protocol: encrypt before transmitting.

    Every vector a client transmits is BatchCrypt-style packed
    (``⌈l/slots⌉`` ciphertexts per vector).

    Parameters
    ----------
    max_weight:
        Packing headroom: how many clients' vectors the server may sum into
        the packed ciphertext.  Required before the first encryption.
    noise:
        Optional :class:`NoisePool` the client draws ``r^n mod n²`` terms
        from — in the protocol, one built on the dispatched ``sk_t``.

    The client owns the ciphertext of its ``p_l``: it keeps the last one it
    produced and transmits that again for as long as the key, the headroom
    and its own data are the ones the ciphertext was made for.

    Example
    -------
    >>> import numpy as np
    >>> from repro.crypto.paillier import generate_keypair
    >>> pk = generate_keypair(key_size=128).public_key
    >>> client = SecureClient(0, np.array([0.8, 0.2]), max_weight=4)
    >>> ciphertext = client.encrypted_distribution(pk)
    >>> client.encrypted_distribution(pk) is ciphertext   # re-sent, not redone
    True
    >>> client.stats.messages
    2
    """

    def __init__(self, client_id: int, distribution: np.ndarray,
                 max_weight: Optional[int] = None,
                 noise: Optional[NoisePool] = None):
        self.client_id = client_id
        self.distribution = np.asarray(distribution, dtype=float)
        self.max_weight = max_weight
        self.noise = noise
        self.stats = ProtocolStats()
        #: the last encrypted p_l, and the (key, headroom, row bytes) it is for
        self._upload: Optional[AnyEncryptedVector] = None
        self._upload_made_for: Optional[tuple] = None

    def encrypted_distribution(self, public_key: PaillierPublicKey) -> AnyEncryptedVector:
        """The encrypted label distribution sent during multi-time selection.

        Encrypted once, then re-sent: the ciphertext is kept under the key,
        the headroom and the exact bytes of the row it encrypts, so a new
        round key, another cohort size or changed data always re-encrypts.
        A re-send is a transmission like any other (one message, the same
        bytes on the wire) that costs no encryption time.
        """
        made_for = (public_key, self.max_weight, self.distribution.tobytes())
        seconds = 0.0
        if self._upload_made_for != made_for:
            if self.max_weight is None:
                raise ValueError("clients need max_weight (the cohort-size headroom)")
            start = perf_counter()
            # the same worker body the batch executor runs, so the client-side
            # and round-level encryption paths cannot drift apart
            self._upload = encrypt_one(
                public_key, self.distribution, packed=True,
                max_weight=self.max_weight, base=DEFAULT_BASE,
                precision=DEFAULT_PRECISION, max_abs_value=1.0,
                noise=self.noise, rng=None)
            self._upload_made_for = made_for
            seconds = perf_counter() - start
        self.stats.encrypt_seconds += seconds
        self.stats.messages += 1
        self.stats.plaintext_bytes += plaintext_vector_bytes(self.distribution)
        self.stats.ciphertext_bytes += self._upload.nbytes()
        return self._upload


def _client_noise_pool(private_key: PaillierPrivateKey) -> NoisePool:
    """The pool a round's clients draw ``r^n mod n²`` from.

    Built on the dispatched ``sk_t`` (the CRT spelling), and client-side
    state: it must never be handed to, or be reachable from, a
    :class:`SecureAggregationServer`.  It keeps the gcd check inline
    encryption always had — free next to the exponentiation, and what keeps
    toy-sized test keys decrypting correctly.
    """
    return NoisePool(private_key, check_coprime=True)


@dataclass(frozen=True)
class StreamedRegistration:
    """Everything a streaming registration round produces.

    Example
    -------
    >>> import numpy as np
    >>> from repro.core.registry import BatchRegistration
    >>> batch = BatchRegistration(np.array([1]), np.array([0]), 3)
    >>> s = StreamedRegistration(np.array([1.0, 0.0, 0.0]), batch,
    ...                          ProtocolStats(), 0, 1)
    >>> s.n_clients
    1
    """

    #: The decrypted overall registry ``R_A`` — bit-identical to the plaintext sum.
    overall: np.ndarray
    #: Per-client blocks/indices as compact int64 arrays (16 bytes/client).
    registration: BatchRegistration
    #: Aggregate overhead of every role.
    stats: ProtocolStats
    #: Longest chain of dependent ciphertext additions performed.
    fold_depth: int
    #: How many client chunks the stream was consumed in.
    num_batches: int

    @property
    def n_clients(self) -> int:
        """Total number of clients registered across all batches."""
        return len(self.registration)


def iter_distribution_batches(distributions: np.ndarray,
                              batch_size: int) -> Iterator[np.ndarray]:
    """Yield contiguous row chunks of a 2-D distribution array.

    The canonical way to feed an in-memory population to
    :meth:`SecureRegistrationRound.run_stream`; real deployments would yield
    chunks as cohorts arrive over the transport instead.

    Example
    -------
    >>> import numpy as np
    >>> [len(b) for b in iter_distribution_batches(np.zeros((5, 2)), 2)]
    [2, 2, 1]
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    distributions = np.asarray(distributions)
    if distributions.ndim != 2:
        raise ValueError("distributions must be 2-D")
    for start in range(0, distributions.shape[0], batch_size):
        yield distributions[start:start + batch_size]


@dataclass
class SecureRegistrationRound:
    """One full registration round: keygen → encrypt → aggregate → decrypt.

    :meth:`run_stream` returns the overall registry exactly as each client
    would decrypt it, plus the overhead statistics of every role.

    Parameters
    ----------
    packed:
        Transmit packed ciphertexts (``⌈l/slots⌉`` per registry, headroom for
        all N clients' additions).  Packed and per-component rounds decrypt
        to bit-identical overall registries.
    precompute_noise:
        Pre-generate every ``r^n mod n²`` term before the timed encryption
        phase (amortised/offline noise, booked as
        ``noise_precompute_seconds``).  The clients' :class:`NoisePool` on
        ``sk_t`` exists either way; left unfilled it generates inline.
    aggregation, arity:
        Server fold shape (:data:`repro.core.config.AGGREGATION_MODES`):
        ``"flat"`` is one running sum, ``"tree"`` bounds the fold depth to
        O(log N) with *arity*-way carries — the same ciphertexts either way.

    Example
    -------
    >>> import numpy as np
    >>> from repro.core.config import DubheConfig
    >>> config = DubheConfig(num_classes=2, reference_set=(1, 2),
    ...                      thresholds={1: 0.6, 2: 0.0}, key_size=64)
    >>> rng = np.random.default_rng(0)
    >>> population = rng.dirichlet((1.0, 1.0), size=8)
    >>> streamed = SecureRegistrationRound(config).run_stream(population)
    >>> plaintext = RegistryCodebook(config).register_batch(population)
    >>> bool((streamed.overall == plaintext.overall_registry()).all())
    True
    """

    config: DubheConfig
    agent: Optional[KeyAgent] = None
    packed: bool = False
    precompute_noise: bool = False
    aggregation: str = "flat"
    arity: int = 2

    def __post_init__(self) -> None:
        resolve_aggregation_mode(self.aggregation)
        if self.arity < 2:
            raise ValueError("tree arity must be at least 2")

    def run_stream(self,
                   batches: np.ndarray | Iterable[np.ndarray],
                   total_clients: Optional[int] = None) -> StreamedRegistration:
        """Execute the protocol over a *stream* of distribution chunks.

        Each chunk is registered (vectorised Algorithm 1), encrypted and
        folded into the server's aggregate, then discarded — peak memory is
        O(batch · codebook length) plus 16 bytes per client for the returned
        index arrays, never O(N · codebook length).  The decrypted overall
        registry is bit-identical to the plaintext sum of the same clients'
        registries (asserted by the streaming equivalence suite), and the
        packed path uses the integer
        count-packing scheme (:meth:`~repro.crypto.packing.PackingScheme.for_counts`),
        which needs ~2.3× fewer ciphertexts per registry than the float
        default.

        Parameters
        ----------
        batches:
            Either a 2-D ``(N, C)`` array — chunked internally by
            ``config.registration_batch_size`` — or an iterable of 2-D
            chunks (e.g. cohorts arriving over the transport).
        total_clients:
            Upper bound on the stream length.  Required for the packed path
            when *batches* is an iterable: it fixes the packing headroom
            (``max_weight``) before the first ciphertext is built.  The
            stream overrunning it is an error.
        """
        codebook = RegistryCodebook(self.config)
        if isinstance(batches, np.ndarray):
            if batches.ndim != 2:
                raise ValueError("client_distributions must be 2-D")
            if total_clients is None:
                total_clients = int(batches.shape[0])
            batches = iter_distribution_batches(
                batches, self.config.registration_batch_size)
        if total_clients is not None and total_clients < 1:
            raise ValueError("total_clients must be positive")
        if self.packed and total_clients is None:
            raise ValueError(
                "total_clients is required for packed streaming: it fixes the "
                "packing headroom (max_weight) before the first batch"
            )
        agent = self.agent or KeyAgent(key_size=self.config.key_size)
        keypair = agent.new_round()
        server = SecureAggregationServer(
            keypair.public_key,
            arity=self.arity if self.aggregation == "tree" else None)
        executor = BatchCryptoExecutor()
        scheme = (PackingScheme.for_counts(keypair.public_key, codebook.length,
                                           max_weight=total_clients)
                  if self.packed else None)
        noise = _client_noise_pool(keypair.private_key)
        stats = ProtocolStats()
        blocks_parts: list[np.ndarray] = []
        index_parts: list[np.ndarray] = []
        n_seen = 0
        num_batches = 0
        for chunk in batches:
            arr = np.ascontiguousarray(chunk, dtype=np.float64)
            if arr.ndim != 2 or arr.shape[1] != self.config.num_classes:
                raise ValueError(
                    f"every batch must have shape (b, {self.config.num_classes}),"
                    f" got {arr.shape}"
                )
            b = arr.shape[0]
            if b == 0:
                continue
            n_seen += b
            if total_clients is not None and n_seen > total_clients:
                raise ValueError(
                    f"stream delivered more than total_clients={total_clients} "
                    "distributions"
                )
            num_batches += 1
            reg = codebook.register_batch(arr)
            blocks_parts.append(reg.blocks)
            index_parts.append(reg.indices)
            # this batch's one-hot registries; freed before the next batch
            registries = np.zeros((b, codebook.length))
            registries[np.arange(b), reg.indices] = 1.0
            if self.precompute_noise:
                start = perf_counter()
                terms = (scheme.num_ciphertexts * b if scheme is not None
                         else codebook.length * b)
                noise.refill(terms)
                stats.noise_precompute_seconds += perf_counter() - start
            start = perf_counter()
            encrypted = executor.encrypt_many(
                keypair.public_key, registries, packed=self.packed,
                max_weight=(total_clients if total_clients is not None
                            else DEFAULT_MAX_WEIGHT),
                base=(2 if self.packed else DEFAULT_BASE),
                precision=(0 if self.packed else DEFAULT_PRECISION),
                noise=noise)
            stats.encrypt_seconds += perf_counter() - start
            for values, ciphertext in zip(registries, encrypted):
                # client-side accounting, as SecureClient books a transmission
                stats.messages += 1
                stats.plaintext_bytes += plaintext_vector_bytes(values)
                stats.ciphertext_bytes += ciphertext.nbytes()
                server.receive(ciphertext)
        if n_seen == 0:
            raise ValueError("stream contained no client distributions")
        encrypted_total = server.aggregate()
        fold_depth = server.fold_depth
        start = perf_counter()
        overall = encrypted_total.decrypt(keypair.private_key)
        stats.decrypt_seconds += perf_counter() - start
        stats = stats.merged_with(server.stats)
        # synchronising the aggregate back to N clients is N more messages
        stats.messages += n_seen
        stats.ciphertext_bytes += encrypted_total.nbytes() * n_seen
        registration = BatchRegistration(
            blocks=np.concatenate(blocks_parts),
            indices=np.concatenate(index_parts),
            length=codebook.length,
        )
        return StreamedRegistration(overall=overall, registration=registration,
                                    stats=stats, fold_depth=fold_depth,
                                    num_batches=num_batches)


class SecureDistributionAggregation:
    """The multi-time-selection data path: encrypted ``p_l`` aggregation.

    Per tentative try each of the K selected clients uploads its label
    distribution packed — ``⌈C/slots⌉`` ciphertexts (2 at a 256-bit key and
    C = 10, 1 from 512 bits up), not C; the server sums the K uploads and the
    agent decrypts the aggregate only.  Uploads carry headroom
    ``max_weight = K``: a slot absorbs exactly the K additions a try performs
    (a (K+1)-th raises :class:`OverflowError` at the fold rather than carry
    into the next slot), and the sums decrypt bit-identically to per-component
    encryption's.  Individual ``p_l`` are never visible to the server.

    One instance is one **key epoch**: it draws a fresh round key when built
    and keeps one :class:`SecureClient` per client id until it is dropped, so
    a client encrypts its ``p_l`` the first time a try draws it and re-sends
    that ciphertext on every later try (≤ N encryptions per epoch, however
    many rounds it lasts; the steady state of a try is fold + one decrypt).
    Messages and bytes per try do not change — the upload is transmitted
    again, only not recomputed.  ``docs/architecture.md`` §1 argues why the
    repeat shows the server nothing it did not know.

    Example
    -------
    >>> import numpy as np
    >>> from repro.core.config import DubheConfig
    >>> config = DubheConfig(num_classes=2, reference_set=(1, 2),
    ...                      thresholds={1: 0.6, 2: 0.0}, key_size=64)
    >>> aggregation = SecureDistributionAggregation(config)
    >>> distributions = np.array([[0.9, 0.1], [0.1, 0.9]])
    >>> aggregation.population(distributions, [0, 1]).round(6).tolist()
    [0.5, 0.5]
    >>> terms = aggregation.noise.generated      # both clients have encrypted
    >>> aggregation.population(distributions, [1, 0]).round(6).tolist()
    [0.5, 0.5]
    >>> (aggregation.noise.generated == terms, aggregation.stats.messages)
    (True, 8)
    """

    def __init__(self, config: DubheConfig, agent: Optional[KeyAgent] = None):
        self.config = config
        self.agent = agent or KeyAgent(key_size=config.key_size)
        self.keypair = self.agent.new_round()
        #: the selected clients' pool on ``sk_t``
        self.noise = _client_noise_pool(self.keypair.private_key)
        self.stats = ProtocolStats()
        #: client-side state, one per id drawn so far: each owns its upload
        self._clients: dict[int, SecureClient] = {}

    def _client(self, client_id: int, row: np.ndarray,
                max_weight: int) -> SecureClient:
        """The epoch's client *client_id*, holding *row* as its current data."""
        client = self._clients.get(client_id)
        if client is None:
            client = self._clients[client_id] = SecureClient(
                client_id, row, noise=self.noise)
            # every role books into the aggregation's one ledger, in place
            client.stats = self.stats
        # the matrix is the clients' data: a changed row (or cohort size)
        # no longer matches what the kept ciphertext was made for
        client.distribution = row
        client.max_weight = max_weight
        return client

    def population(self, client_distributions: np.ndarray,
                   selected: Sequence[int]) -> np.ndarray:
        """The cohort's ``p_o`` from the encrypted sum (zeros if it has no mass)."""
        distributions = np.asarray(client_distributions, dtype=float)
        selected = list(selected)
        if not selected:
            raise ValueError("cannot score an empty selection")
        public_key = self.keypair.public_key
        server = SecureAggregationServer(public_key)
        for k in selected:
            client = self._client(int(k), distributions[k], len(selected))
            server.receive(client.encrypted_distribution(public_key))
        aggregate = server.aggregate()
        start = perf_counter()
        decrypted = self.agent.decrypt_vector(aggregate)
        self.stats.decrypt_seconds += perf_counter() - start
        self.stats.messages += server.stats.messages
        self.stats.ciphertext_bytes += server.stats.ciphertext_bytes
        total = decrypted.sum()
        return decrypted / total if total > 0 else np.zeros_like(decrypted)

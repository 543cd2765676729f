"""The Dubhe registry: codebook construction and Algorithm 1 registration.

The registry (§5.1) is the one-hot encrypted vector through which a client
reveals — only in aggregate, never individually — which classes dominate its
local data.  Its codebook is the concatenation of one block per element
``i ∈ G``: block ``i`` has one slot per *combination* of ``i`` classes
(``C(C, i)`` slots), and a client whose ``i`` dominating classes are
``u = (c_1 < … < c_i)`` flips exactly the slot of that combination.

Algorithm 1 decides which block a client falls into: starting from the
smallest ``i ∈ G``, check whether the client's ``i``-th largest class
proportion reaches the threshold ``σ_i``; the first block that matches wins,
and the final block ``i = C`` (``σ_C = 0``) always matches, meaning "no
dominating classes / locally balanced".

Scale notes (million-client registries)
---------------------------------------
The codebook is **lazy** by default: a category's flat slot index is computed
by combinatorial (lexicographic) ranking — :func:`combination_rank` /
:func:`combination_from_rank` — instead of materialising all ``C(C, i)``
combinations in lookup tables, so a wide-``C`` block (say ``C(52, 26)``
slots) costs nothing to address; the property suite asserts the ranks
index-identical to an eager ``itertools.combinations`` table.
:meth:`RegistryCodebook.register_batch` runs Algorithm 1
for N clients as a handful of array operations per fixed-size block of rows
(no per-client Python work) and returns a compact :class:`BatchRegistration`
— two int64 arrays — rather than N one-hot vectors, which is what lets
registration stream to N = 1,000,000 with O(batch) peak memory (see
``docs/scaling.md``).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterator, Sequence

import numpy as np

from .config import DubheConfig

__all__ = [
    "BatchRegistration",
    "ClientCategory",
    "RegistryCodebook",
    "RegistrationResult",
    "combination_rank",
    "combination_from_rank",
]

#: Codebooks whose length fits comfortably in int64 rank with vectorised
#: Pascal-table lookups; anything larger falls back to exact Python ints.
_INT64_SAFE_LENGTH = 1 << 62

#: Codebooks this long or longer have slots beyond int64, the dtype of
#: :meth:`RegistryCodebook.register_batch`'s outputs.
_INT64_LIMIT = 1 << 63

#: Float64 elements per block of rows :meth:`RegistryCodebook.register_batch`
#: walks at a time (6 553 rows at C = 10): its scratch is this size, not N·C.
_REGISTER_BLOCK = 1 << 16


def combination_rank(classes: Sequence[int], num_classes: int) -> int:
    """Lexicographic rank of a sorted combination among ``C(C, k)`` peers.

    The rank is computed arithmetically (no table of combinations), which is
    what makes wide blocks addressable: ranking ``k`` classes costs ``O(k)``
    binomial evaluations regardless of how many ``C(C, k)`` combinations the
    block holds.

    Example
    -------
    >>> combination_rank((1, 2), 4)  # combos of 4 choose 2: (0,1) (0,2) (0,3) (1,2) ...
    3
    >>> [combination_rank(c, 4) for c in [(0, 1), (0, 2), (0, 3), (1, 2)]]
    [0, 1, 2, 3]
    """
    k = len(classes)
    rank = comb(num_classes, k) - 1
    for j, c in enumerate(classes):
        rank -= comb(num_classes - 1 - int(c), k - j)
    return rank


def combination_from_rank(rank: int, num_classes: int, size: int) -> tuple[int, ...]:
    """Inverse of :func:`combination_rank`: the combination at a given rank.

    Example
    -------
    >>> combination_from_rank(3, 4, 2)
    (1, 2)
    >>> combination_from_rank(combination_rank((2, 5, 7), 9), 9, 3)
    (2, 5, 7)
    """
    total = comb(num_classes, size)
    if not 0 <= rank < total:
        raise IndexError(f"rank {rank} outside [0, {total}) for C({num_classes}, {size})")
    classes = []
    remaining = total - 1 - rank  # combinations strictly after the target
    c = 0
    for j in range(size):
        # advance c until the suffix count drops to the remaining budget
        while comb(num_classes - 1 - c, size - j) > remaining:
            c += 1
        remaining -= comb(num_classes - 1 - c, size - j)
        classes.append(c)
        c += 1
    return tuple(classes)


@dataclass(frozen=True)
class ClientCategory:
    """A client's category ``u``: its dominating classes (sorted ascending).

    Example
    -------
    >>> ClientCategory((0, 3)).size
    2
    """

    classes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("a category must contain at least one class")
        if list(self.classes) != sorted(set(self.classes)):
            raise ValueError("category classes must be sorted and unique")

    @property
    def size(self) -> int:
        """Number of dominating classes (the block ``i`` the category lives in)."""
        return len(self.classes)


@dataclass(frozen=True)
class RegistrationResult:
    """Output of Algorithm 1 for one client.

    Example
    -------
    >>> import numpy as np
    >>> RegistrationResult(np.array([0.0, 1.0]), ClientCategory((1,)), 1, 1).index
    1
    """

    registry: np.ndarray          # the one-hot registry vector R^(t,k)
    category: ClientCategory      # the client category u^(t,k)
    block: int                    # which i ∈ G the client fell into
    index: int                    # flat index of the flipped slot


@dataclass(frozen=True)
class BatchRegistration:
    """Algorithm 1 output for N clients as two compact int64 arrays.

    16 bytes per client instead of a one-hot float vector (a
    :class:`RegistrationResult`) per client, so a million-client
    registration fits in ~16 MB.  Row ``k`` of the batch registered block
    ``blocks[k]`` at flat slot ``indices[k]``.

    Example
    -------
    >>> import numpy as np
    >>> batch = BatchRegistration(np.array([1, 10]), np.array([3, 55]), 56)
    >>> len(batch), int(batch.overall_registry().sum())
    (2, 2)
    """

    blocks: np.ndarray    # (N,) int64 — the i ∈ G each client fell into
    indices: np.ndarray   # (N,) int64 — flat slot index per client
    length: int           # codebook length the indices address

    def __len__(self) -> int:
        return int(self.indices.shape[0])

    def overall_registry(self) -> np.ndarray:
        """The dense overall registry ``R_A = Σ_k R^(t,k)`` via one bincount.

        Materialises one float per codebook slot: ``length`` is tens of
        slots for the paper's reference sets (56 for group 1 on 10 classes).
        """
        return np.bincount(self.indices, minlength=self.length).astype(float)


class RegistryCodebook:
    """Maps between client categories and registry vector positions.

    Lazy: slot indices come from combinatorial ranking and no
    per-combination table is built.

    Example
    -------
    >>> config = DubheConfig(num_classes=10, reference_set=(1, 2, 10),
    ...                      thresholds={1: 0.7, 2: 0.1, 10: 0.0})
    >>> RegistryCodebook(config).length
    56
    """

    def __init__(self, config: DubheConfig):
        if not config.has_all_thresholds():
            raise ValueError("all thresholds must be set before building the codebook")
        self.config = config
        self.num_classes = config.num_classes
        self.reference_set = config.reference_set
        # per-block offsets (Python ints: exact for arbitrarily wide blocks)
        self._block_offset: dict[int, int] = {}
        self._block_sizes: dict[int, int] = {}
        offset = 0
        for i in self.reference_set:
            self._block_offset[i] = offset
            self._block_sizes[i] = comb(self.num_classes, i)
            offset += self._block_sizes[i]
        self.length = offset
        # sorted (start, i) pairs for category_of's block search
        self._offset_order = sorted(
            (start, i) for i, start in self._block_offset.items()
        )

    # -- codebook geometry -------------------------------------------------------

    def block_length(self, i: int) -> int:
        """Number of slots in block ``i`` (the combination count ``C(C, i)``)."""
        if i not in self._block_sizes:
            raise KeyError(f"{i} is not in the reference set")
        return self._block_sizes[i]

    def block_slice(self, i: int) -> slice:
        """The slice of the flat registry covered by block ``i``."""
        if i not in self._block_offset:
            raise KeyError(f"{i} is not in the reference set")
        start = self._block_offset[i]
        return slice(start, start + self.block_length(i))

    def block_categories(self, i: int) -> Iterator[tuple[int, ...]]:
        """Iterate block ``i``'s categories in slot order without materialising.

        Slot ``block_slice(i).start + j`` belongs to the ``j``-th tuple
        yielded (lexicographic order — the order combinatorial ranking
        addresses).
        """
        if i not in self._block_offset:
            raise KeyError(f"{i} is not in the reference set")
        return combinations(range(self.num_classes), i)

    def index_of(self, category: ClientCategory | Sequence[int]) -> int:
        """Flat registry index of a category."""
        classes = tuple(category.classes if isinstance(category, ClientCategory) else
                        sorted(category))
        size = len(classes)
        if (size not in self._block_offset
                or len(set(classes)) != size
                or any(not 0 <= int(c) < self.num_classes for c in classes)):
            raise KeyError(f"category {classes} is not representable by this codebook")
        return self._block_offset[size] + combination_rank(classes, self.num_classes)

    def category_of(self, index: int) -> ClientCategory:
        """Inverse of :meth:`index_of`."""
        if not 0 <= index < self.length:
            raise IndexError("registry index out of range")
        starts = [start for start, _ in self._offset_order]
        position = bisect_right(starts, int(index)) - 1
        start, i = self._offset_order[position]
        return ClientCategory(combination_from_rank(int(index) - start,
                                                    self.num_classes, i))

    def empty_registry(self) -> np.ndarray:
        """An all-zero registry vector of the right length."""
        return np.zeros(self.length)

    # -- Algorithm 1 ----------------------------------------------------------------

    def register(self, distribution: np.ndarray) -> RegistrationResult:
        """Run Algorithm 1 on a client's label distribution.

        Walks the reference set in ascending order; for each candidate number
        of dominating classes ``i``, takes the top-``i`` classes of the
        distribution and checks whether the ``i``-th largest proportion
        reaches ``σ_i``.  The ``i = C`` bucket (``σ_C = 0``) always matches,
        so every client registers exactly once.
        """
        p = np.asarray(distribution, dtype=float)
        if p.shape != (self.num_classes,):
            raise ValueError(
                f"distribution must have shape ({self.num_classes},), got {p.shape}"
            )
        if np.any(p < 0) or not np.isclose(p.sum(), 1.0, atol=1e-6):
            raise ValueError("distribution must be a probability vector")
        # classes ordered by decreasing proportion (ties broken by class id,
        # matching the argmax scan in Algorithm 1)
        order = np.lexsort((np.arange(self.num_classes), -p))
        for i in self.reference_set:
            sigma = self.config.threshold_for(i)
            if i > self.num_classes:
                continue
            top = order[:i]
            m_i = p[top[-1]] if i <= len(order) else 0.0
            if i == self.num_classes or m_i >= sigma:
                category = ClientCategory(tuple(sorted(int(c) for c in top)))
                index = self.index_of(category)
                registry = self.empty_registry()
                registry[index] = 1.0
                return RegistrationResult(registry, category, block=i, index=index)
        raise RuntimeError("Algorithm 1 failed to register the client")  # pragma: no cover

    def register_batch(self, distributions: np.ndarray) -> BatchRegistration:
        """Run Algorithm 1 for every row of ``distributions`` vectorised.

        Algorithm 1 only ever reads a row's top ``k`` classes, ``k`` the
        largest ``i ∈ G`` below ``C`` (two for the paper's ``G = (1, 2, C)``),
        so no row is sorted: :meth:`_top_classes` finds them with ``k``
        first-occurrence ``argmax`` passes, each masking the previous winner,
        which breaks ties by ascending class id exactly as :meth:`register`
        does (the property suite asserts per-row equality between the two
        paths, ties and ``-0.0`` included).  The thresholds and the
        combination ranks then read those ids through flat 1-D gathers.

        The rows are walked in blocks of ``_REGISTER_BLOCK`` float64
        elements: each block is validated, masked in a block-sized scratch
        copy and ranked straight into the preallocated ``(N,)`` outputs.
        Returns a :class:`BatchRegistration` (flat indices, no one-hot
        vectors), so peak memory is O(N) int64 plus O(``_REGISTER_BLOCK``)
        float scratch, not O(N·C).
        """
        if self.length >= _INT64_LIMIT:
            raise ValueError(
                f"codebook length {self.length} does not fit int64 "
                f"registration indices (limit 2^63 = {_INT64_LIMIT})")
        p = np.ascontiguousarray(distributions, dtype=np.float64)
        if p.ndim != 2 or p.shape[1] != self.num_classes:
            raise ValueError(
                f"distributions must have shape (N, {self.num_classes}), got {p.shape}"
            )
        if p.shape[0] == 0:
            raise ValueError("distributions is empty")
        n, c = p.shape
        dominated = [i for i in self.reference_set if i < c]
        blocks = np.full(n, c, dtype=np.int64)
        indices = np.full(n, self._block_offset[c], dtype=np.int64)
        rows = max(1, _REGISTER_BLOCK // c)
        for start in range(0, n, rows):
            block = p[start:start + rows]
            # the np.allclose(sums, 1, atol=1e-6) bound, which NaN and inf fail
            if (np.any(block < 0)
                    or not np.all(np.abs(block.sum(axis=1) - 1.0) <= 1e-6 + 1e-5)):
                raise ValueError("every row must be a probability vector")
            if dominated:
                self._register_block(block, dominated, blocks[start:start + rows],
                                     indices[start:start + rows])
        return BatchRegistration(blocks=blocks, indices=indices, length=self.length)

    def _register_block(self, p: np.ndarray, dominated: list[int],
                        blocks: np.ndarray, indices: np.ndarray) -> None:
        """Algorithm 1 for validated rows ``p``, into their output slices."""
        n, c = p.shape
        top = self._top_classes(p, dominated[-1])
        flat = p.reshape(-1)
        row_start = np.arange(0, n * c, c)
        undecided = np.ones(n, dtype=bool)
        for i in dominated:
            m_i = flat[row_start + top[i - 1]]  # the i-th largest proportion
            matched = undecided & (m_i >= self.config.threshold_for(i))
            undecided &= ~matched
            members = np.flatnonzero(matched)
            blocks[members] = i
            ranks = self._rank_rows([ids[members] for ids in top[:i]])
            indices[members] = self._block_offset[i] + ranks

    @staticmethod
    def _top_classes(p: np.ndarray, k: int) -> np.ndarray:
        """``(k, N)`` ids: row ``j`` holds every client's ``(j+1)``-th largest class.

        Ties go to the smaller class id — the order of a stable argsort of
        ``-p`` — because ``argmax`` returns the first maximum and a winner is
        masked to ``-inf`` (below every proportion, ``-0.0`` included) only
        in a scratch copy.
        """
        n, c = p.shape
        top = np.empty((k, n), dtype=np.int64)
        scratch = p.copy()
        flat = scratch.reshape(-1)
        row_start = np.arange(0, n * c, c)
        for j in range(k):
            np.argmax(scratch, axis=1, out=top[j])
            if j + 1 < k:
                flat[row_start + top[j]] = -np.inf
        return top

    def _rank_rows(self, members: list[np.ndarray]) -> np.ndarray:
        """Vectorised :func:`combination_rank` of unsorted combinations.

        ``members[j]`` holds the ``j``-th class of every combination (the
        ``i = len(members)`` classes of a column are distinct, in any order);
        a class sits at sorted position ``s`` when ``s`` other members are
        smaller, so no sort is needed.
        """
        size = len(members)
        if self.length >= _INT64_SAFE_LENGTH:
            # exact-integer fallback for codebooks wider than int64 ranks
            return np.array([combination_rank(sorted(column), self.num_classes)
                             for column in np.stack(members, axis=1).tolist()],
                            dtype=object)
        table = self._comb_table()
        width = table.shape[1]
        suffix = np.zeros(members[0].shape, dtype=np.int64)
        for j, ids in enumerate(members):
            position = np.zeros(ids.shape, dtype=np.int64)
            for other in members[:j] + members[j + 1:]:
                position += other < ids
            # table[C - 1 - c_s, size - s] through one flat gather
            suffix += table.reshape(-1)[(self.num_classes - 1 - ids) * width
                                        + size - position]
        return table[self.num_classes, size] - 1 - suffix

    def _comb_table(self) -> np.ndarray:
        """Cached Pascal triangle ``table[n, k] = C(n, k)`` as int64."""
        table = getattr(self, "_comb_table_cache", None)
        if table is None:
            c = self.num_classes
            k_max = max(self.reference_set)
            table = np.zeros((c + 1, k_max + 1), dtype=np.int64)
            for n in range(c + 1):
                for k in range(min(n, k_max) + 1):
                    table[n, k] = comb(n, k)
            self._comb_table_cache = table
        return table

    def describe(self, overall_registry: np.ndarray, max_entries: int | None = None) -> list[dict]:
        """Human-readable view of an overall registry (Figure 10 style).

        Returns one record per non-zero slot: the category, its block and the
        client count, sorted by decreasing count.
        """
        overall = np.asarray(overall_registry)
        if overall.shape != (self.length,):
            raise ValueError("overall registry has the wrong length")
        entries = []
        for index in np.flatnonzero(overall):
            category = self.category_of(int(index))
            entries.append({
                "category": tuple(category.classes),
                "block": category.size,
                "count": float(overall[index]),
            })
        entries.sort(key=lambda e: -e["count"])
        if max_entries is not None:
            entries = entries[:max_entries]
        return entries

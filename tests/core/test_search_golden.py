"""The threshold search's output, pinned.

``search_thresholds`` scores every grid point by simulating ``H`` tentative
selections from one shared generator.  A SHA-256 over ``repr`` of its
``thresholds``, ``score`` and ``all_scores`` on three seeded federations —
one-shot selection (H = 1), H = 10, and a federation where every client
participates (N = K) — holds the whole search bit for bit: the registration,
eq. (6), the volunteer/top-up draw, the scorer and the RNG stream behind it.
"""

import hashlib

import numpy as np
import pytest

from repro.core.config import DubheConfig
from repro.core.parameter_search import search_thresholds

#: (clients, K, H, federation seed) → sha256 of :func:`search_digest`
GOLDEN_SEARCH_DIGESTS = {
    (200, 20, 1, 0): "8535888d692eb13c9f317dae4acbacfbb983d0b32318906f13704c1df3844a43",
    (200, 20, 10, 1): "d9893974cfa3d0d3d5edc05fb5d61ca44837b6e416ac5e8f4c8bd57ca4f8aead",
    (40, 40, 3, 2): "9dfda35342ac699a77064ea0c99593917401b418a0b47b5d8c19f0b08ed0505f",
}


def search_digest(clients: int, k: int, h: int, seed: int) -> str:
    distributions = np.random.default_rng(seed).dirichlet(
        np.full(10, 0.3), size=clients)
    config = DubheConfig(num_classes=10, reference_set=(1, 2, 10),
                         participants_per_round=k, tentative_selections=h)
    result = search_thresholds(distributions, config, seed=seed)
    text = repr((result.thresholds, result.score, result.all_scores))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN_SEARCH_DIGESTS))
def test_search_matches_golden_digest(case):
    assert search_digest(*case) == GOLDEN_SEARCH_DIGESTS[case]

"""Golden digests of the federations the partitioner builds.

A partition for a seed never changes: every experiment, ledger recipe and
benchmark rebuilds its federation from ``(ρ, EMD_avg, seed)``, so any change
to how clients are drawn must reproduce these bytes exactly.  Each digest is
the SHA-256 of the count matrix (dtype, shape, bytes), ``repr`` of the
calibrated mixing weight ``alpha`` and the bytes of
``client_distributions()``.
"""

import hashlib

import pytest

from repro import quick_federation
from repro.data.femnist import FEMNIST_PAPER_CLIENTS, make_femnist_federation


def digest(partition):
    counts = partition.client_class_counts
    h = hashlib.sha256()
    h.update(f"{counts.dtype.str}{counts.shape}".encode())
    h.update(counts.tobytes())
    h.update(repr(partition.metadata["alpha"]).encode())
    h.update(partition.client_distributions().tobytes())
    return h.hexdigest()


#: ``quick_federation(1000, seed=s)``; the dataset flavour picks the image
#: generator only, so mnist and cifar share one partition per seed
QUICK_GOLDEN = {
    0: "6e5d00fc74f46eb8f7d1a93f95985c88270660e1ec9ebc676f155827499f8242",
    1: "364e27ebfaabb5689560d5917a791c701448bbad742fa4eeb5e1c411d5d6a2a8",
    2: "982f2bd080aa07f5d7efa6369a39905da56b5eac776f13bfc7977a91cd48dc74",
}

#: the paper's FEMNIST shape: 8962 clients x 52 classes
FEMNIST_GOLDEN = "f3679026afd5fbd91102f107933cbc724997170fc5120edaa1737a5301daa4dd"


@pytest.mark.parametrize("dataset", ["mnist", "cifar"])
@pytest.mark.parametrize("seed", sorted(QUICK_GOLDEN))
def test_quick_federation_matches_golden_digest(seed, dataset):
    partition, _ = quick_federation(1000, seed=seed, dataset=dataset)
    assert digest(partition) == QUICK_GOLDEN[seed]


def test_paper_shape_femnist_matches_golden_digest():
    fed = make_femnist_federation(n_clients=FEMNIST_PAPER_CLIENTS, seed=0)
    assert fed.partition.client_class_counts.shape == (FEMNIST_PAPER_CLIENTS, 52)
    assert digest(fed.partition) == FEMNIST_GOLDEN

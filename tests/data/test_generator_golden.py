"""Golden digests of the synthetic generator's output.

Data for a seed never changes: every experiment, ledger and benchmark in the
repository reads its client data from ``SyntheticImageGenerator``, so any
change to how samples are drawn must reproduce these bytes exactly.  Each case
is a fixed sequence of generator calls; its golden value is the dtype, shape
and SHA-256 of ``tobytes()`` of every array the calls return, in order.
"""

import functools
import hashlib

import numpy as np
import pytest

from repro import quick_federation
from repro.data.femnist import make_femnist_federation
from repro.data.synthetic import (
    SyntheticImageGenerator,
    make_synthetic_cifar,
    make_synthetic_mnist,
    make_uniform_test_set,
)


@functools.lru_cache(maxsize=None)
def _mnist_federation():
    return quick_federation(1000, 64, seed=7)


def _federation_row(k):
    # the data seed FederatedSimulation.client() uses for row k at seed 7
    partition, gen = _mnist_federation()
    ds = gen.generate(partition.client_class_counts[k],
                      rng=np.random.default_rng(7 + 100_003 * k))
    return [ds.x, ds.y]


def _test_set():
    _, gen = _mnist_federation()
    ds = make_uniform_test_set(gen, 100, seed=8)
    return [ds.x, ds.y]


def _cifar():
    gen = make_synthetic_cifar(seed=3)
    ds = gen.generate([7, 0, 5, 1, 0, 9, 2, 0, 3, 4], rng=np.random.default_rng(11))
    return [ds.x, ds.y]


def _femnist():
    fed = make_femnist_federation(n_clients=4, samples_per_client=32, seed=2)
    ds = fed.generator.generate(fed.partition.client_class_counts[0],
                                rng=np.random.default_rng(12))
    return [ds.x, ds.y]


def _jitter(jitter, image_shape):
    gen = SyntheticImageGenerator(num_classes=4, image_shape=image_shape,
                                  jitter=jitter, seed=5)
    ds = gen.generate([3, 0, 2, 4], rng=np.random.default_rng(13))
    return [ds.x, ds.y]


def _counts(counts, shuffle=True):
    gen = make_synthetic_mnist(seed=4)
    ds = gen.generate(counts, rng=np.random.default_rng(14), shuffle=shuffle)
    return [ds.x, ds.y]


def _own_rng_sequence():
    gen = make_synthetic_mnist(seed=9)
    counts = [1, 0, 2, 3, 0, 1, 0, 0, 4, 1]
    first = gen.generate(counts)
    second = gen.generate(counts)
    return [first.x, first.y, second.x, second.y, gen.sample_class(3, 5)]


CASES = {
    "mnist_client_0": lambda: _federation_row(0),
    "mnist_client_1": lambda: _federation_row(1),
    "mnist_client_999": lambda: _federation_row(999),
    "mnist_test_set": _test_set,
    "cifar": _cifar,
    "femnist_52_classes": _femnist,
    "jitter_0": lambda: _jitter(0, (1, 8, 8)),
    "jitter_2": lambda: _jitter(2, (3, 6, 6)),
    "counts_with_zeros": lambda: _counts([0, 3, 0, 7, 0, 0, 0, 0, 0, 2]),
    "all_zero_counts": lambda: _counts([0] * 10),
    "no_shuffle": lambda: _counts([2, 5, 0, 1, 3, 0, 0, 4, 1, 2], shuffle=False),
    "own_rng_sequence": _own_rng_sequence,
}


def digest(arrays):
    """``(dtype, shape, sha256)`` of each array."""
    return [(a.dtype.str, a.shape, hashlib.sha256(a.tobytes()).hexdigest())
            for a in arrays]


GOLDEN = {
    "mnist_client_0": [
        ("<f4", (64, 1, 8, 8),
         "98be83f306cdf2080a95740155e8be0a074f2f112929ff17f8fb87ef6befc297"),
        ("<i8", (64,),
         "529f20f33caa9e0258a0f3cfb51fbd49e78dd1bdcc00c6a7e2ab4deb315c5f26"),
    ],
    "mnist_client_1": [
        ("<f4", (64, 1, 8, 8),
         "5e3ac4145de7435398219f6f7b7bcbe32685b7ecf3e9d79611df23d70420caa5"),
        ("<i8", (64,),
         "7b341ffeed7f4fe736f53b16cc698aaf0fbad5b8ee5781fc2746eac7071d9682"),
    ],
    "mnist_client_999": [
        ("<f4", (64, 1, 8, 8),
         "64ad399052f765a6fed22f1c0bcf9f56dd7612c0c1a507e9215716d879fdc0d5"),
        ("<i8", (64,),
         "120afc43c7182314e450a90725b285e0896d9178a4f35879aafd84a4349a3a64"),
    ],
    "mnist_test_set": [
        ("<f4", (1000, 1, 8, 8),
         "a826c914ebb1329ccf40b35cc71e303b094172bed81f26f18c999057056d8502"),
        ("<i8", (1000,),
         "75157d999dd05938c3f7f27611b999f074eac111772cffcaf955a6e74acd8e03"),
    ],
    "cifar": [
        ("<f4", (31, 3, 8, 8),
         "231f9ed90e85894249ae6a98670cf357095ee175c6eb5838ff18fe677111a961"),
        ("<i8", (31,),
         "2e1c0169161b61dc3616cf9e586dbaeed48dcb40c26a53d70fce2ce86be82de4"),
    ],
    "femnist_52_classes": [
        ("<f4", (32, 1, 8, 8),
         "687b971b2226a667db4f4d29872e2a00a3fab8fa8b712365ded90848cfe7d423"),
        ("<i8", (32,),
         "2890a57db041e031f4763a3893d7805fa994b7eb3d32ca40860c4c239708493e"),
    ],
    "jitter_0": [
        ("<f4", (9, 1, 8, 8),
         "66ab6c4ae3d0c706307d8b011b1bd3c9de6f0a0149373bd95860d16c30113429"),
        ("<i8", (9,),
         "0f8a4e061dc0b2570b000f9dbdfc310dc01a53231e0d0ae41744db8ccdc7e953"),
    ],
    "jitter_2": [
        ("<f4", (9, 3, 6, 6),
         "0d8fd22dfe52fb6142e9678b51b5dc8d27cc88ab698b5dccc52ce2b761b017ac"),
        ("<i8", (9,),
         "ff142cf688adbdba1917ee0994c5c6c08e5cb05df9fe5b817e193c4307782157"),
    ],
    "counts_with_zeros": [
        ("<f4", (12, 1, 8, 8),
         "94d0581fec4068786ff2ab9376ab96d21a479a7575f270fe32dc85f2fa99434f"),
        ("<i8", (12,),
         "165d0bd1015f97c134e9a2fbba2fc349af67a4e7426d742fc95e0b57964d473b"),
    ],
    "all_zero_counts": [
        ("<f4", (0, 1, 8, 8),
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("<i8", (0,),
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ],
    "no_shuffle": [
        ("<f4", (18, 1, 8, 8),
         "1ee2fc528c6321e8ce51ba871dde8538e78904046e831c10ab1790eda78c540e"),
        ("<i8", (18,),
         "05f65d9560b4dbec1078f1a6b65c00e6761507b7ebfa537ccfcb27094ac0918d"),
    ],
    "own_rng_sequence": [
        ("<f4", (12, 1, 8, 8),
         "6a2a0fb6cb65e3d2e925491c910ce12da422fb2af812881875893e64c53fc958"),
        ("<i8", (12,),
         "77aa0de5229fa4577aeb1458db937bea4aca57606da3235ac69cdf1d8246615f"),
        ("<f4", (12, 1, 8, 8),
         "c4c4fa07cb2ba9e8eed1954f30a9f2273bbc991e777de2f7fb40a943ed5da261"),
        ("<i8", (12,),
         "2c7709c194b7fa5bb731003d51c7632c6acf2c81024b0cc55050bef394f77121"),
        ("<f4", (5, 1, 8, 8),
         "972581a414c74ed82934de6c22424f998a9dfbfe44b09bf744bc489b5e8ffddc"),
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_generator_output_matches_golden_digest(name):
    assert digest(CASES[name]()) == GOLDEN[name]

"""A synthetic FEMNIST-like federated dataset.

The paper's third workload is FEMNIST (LEAF): the 52 handwritten-letter
classes, originally 3400 writers, split into **8962 clients** with an even
number of samples per client.  Table 1 reports the resulting statistics:
global imbalance ratio ``ρ = 13.64`` and average client discrepancy
``EMD_avg = 0.554``.

Real FEMNIST images are unavailable offline, so this module builds a
federation with the *same statistical fingerprint*:

* 52 classes with a global half-normal skew tuned to ``ρ ≈ 13.64``,
* per-client "writer style" heterogeneity — every client predominantly holds
  a handful of letters (as a real writer's sample does) with the mixture
  weight calibrated so that ``EMD_avg ≈ 0.554``, and
* an even number of samples per client (the paper equalises client sizes).

Images come from a :class:`~repro.data.synthetic.SyntheticImageGenerator`
with 52 prototype glyphs, so the classification task itself is learnable by
the same CNN the paper uses for FEMNIST.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .partition import ClientPartition, EMDTargetPartitioner
from .skew import half_normal_class_proportions
from .synthetic import SyntheticImageGenerator

__all__ = [
    "FEMNIST_NUM_CLASSES",
    "FEMNIST_PAPER_CLIENTS",
    "FEMNIST_PAPER_RHO",
    "FEMNIST_PAPER_EMD",
    "FemnistFederation",
    "make_femnist_federation",
]

#: Number of letter classes in the paper's FEMNIST experiment.
FEMNIST_NUM_CLASSES = 52

#: Client population used in the paper (Table 1).
FEMNIST_PAPER_CLIENTS = 8962

#: Global imbalance ratio reported in Table 1.
FEMNIST_PAPER_RHO = 13.64

#: Average client EMD reported in Table 1.
FEMNIST_PAPER_EMD = 0.554

@dataclass
class FemnistFederation:
    """A FEMNIST-like federation: partition statistics plus an image generator."""

    partition: ClientPartition
    generator: SyntheticImageGenerator
    samples_per_client: int

    @property
    def n_clients(self) -> int:
        return self.partition.n_clients

    @property
    def num_classes(self) -> int:
        return self.partition.num_classes

    def summary(self) -> dict:
        """Table-1-style statistics of this federation."""
        return {
            "dataset": "FEMNIST (synthetic reproduction)",
            "num_classes": self.num_classes,
            "n_clients": self.n_clients,
            "samples_per_client": self.samples_per_client,
            "rho": self.partition.achieved_rho(),
            "emd_avg": self.partition.achieved_emd_avg(),
        }


def make_femnist_federation(n_clients: int = 200, samples_per_client: int = 32,
                            rho: float = FEMNIST_PAPER_RHO,
                            emd_avg: float = FEMNIST_PAPER_EMD,
                            num_classes: int = FEMNIST_NUM_CLASSES,
                            image_size: int = 8,
                            dominating_classes: tuple[int, ...] = (1, 2),
                            writer_concentration: float = 0.5,
                            seed: Optional[int] = None) -> FemnistFederation:
    """Build a FEMNIST-like federation with the paper's statistical fingerprint.

    Parameters
    ----------
    n_clients:
        Number of clients.  The paper uses 8962; the default is scaled down so
        the test-suite stays fast.  Pass ``FEMNIST_PAPER_CLIENTS`` to match the
        paper exactly (selection-only experiments handle that size easily).
    samples_per_client:
        Per-client sample count (the paper equalises client sizes; its virtual
        client size for group 2 is ``N_VC = 32``).
    rho, emd_avg:
        Target global imbalance ratio and client discrepancy (defaults are the
        Table 1 values).
    dominating_classes:
        How many letters dominate a client's local data — real FEMNIST writers
        contribute a handful of over-represented letters.
    writer_concentration:
        Lower bound on the share of a client's data held by its dominating
        letters.  Real writers genuinely over-represent a few letters; with a
        52-class label space the small per-client sample counts put the
        *empirical* EMD above the Table 1 value regardless, so the paper's
        EMD target alone would leave clients with no dominating letters at
        all (and nothing for any selection method to exploit).
    seed:
        Master seed for the partition and the image prototypes.
    """
    if n_clients < 1:
        raise ValueError("n_clients must be positive")
    global_dist = half_normal_class_proportions(num_classes, rho)
    partitioner = EMDTargetPartitioner(
        n_clients=n_clients,
        samples_per_client=samples_per_client,
        emd_target=emd_avg,
        dominating_classes=dominating_classes,
        min_alpha=writer_concentration,
        seed=seed,
    )
    partition = partitioner.partition(global_dist)
    partition.metadata.update({"dataset": "femnist", "target_rho": rho, "target_emd": emd_avg})
    generator = SyntheticImageGenerator(
        num_classes=num_classes,
        image_shape=(1, image_size, image_size),
        noise_scale=0.4,
        class_overlap=0.35,
        jitter=1,
        seed=seed,
    )
    return FemnistFederation(partition, generator, samples_per_client)

"""Dataset and partitioning substrate for the Dubhe reproduction.

Public API
----------
* distribution utilities — :func:`emd`, :func:`imbalance_ratio`,
  :func:`average_emd`, :func:`uniform_distribution`.
* global skew — :func:`half_normal_class_proportions`.
* client partitioning — :class:`EMDTargetPartitioner`,
  :class:`ClientPartition`.
* datasets — :class:`ArrayDataset`, :class:`SyntheticImageGenerator`,
  :func:`make_synthetic_mnist`, :func:`make_synthetic_cifar`,
  :func:`make_femnist_federation`.
* cohort execution — :class:`DatasetCache` (bounded LRU pool of client
  datasets), :class:`CohortBuffer` (round-persistent dense
  ``(K, N_vc, …)`` stacking buffers for the vectorized back-end, with
  per-slot reuse).
"""

from .cohort import CohortBuffer, CohortShapeError, DatasetCache
from .dataset import ArrayDataset
from .distributions import (
    average_emd,
    emd,
    imbalance_ratio,
    label_counts,
    label_distribution,
    normalize_counts,
    population_distribution,
    uniform_distribution,
)
from .femnist import (
    FEMNIST_NUM_CLASSES,
    FEMNIST_PAPER_CLIENTS,
    FEMNIST_PAPER_EMD,
    FEMNIST_PAPER_RHO,
    FemnistFederation,
    make_femnist_federation,
)
from .partition import ClientPartition, EMDTargetPartitioner
from .skew import half_normal_class_proportions
from .synthetic import (
    SyntheticImageGenerator,
    make_synthetic_cifar,
    make_synthetic_mnist,
    make_uniform_test_set,
)

__all__ = [
    "ArrayDataset",
    "ClientPartition",
    "CohortBuffer",
    "CohortShapeError",
    "DatasetCache",
    "EMDTargetPartitioner",
    "FEMNIST_NUM_CLASSES",
    "FEMNIST_PAPER_CLIENTS",
    "FEMNIST_PAPER_EMD",
    "FEMNIST_PAPER_RHO",
    "FemnistFederation",
    "SyntheticImageGenerator",
    "average_emd",
    "emd",
    "half_normal_class_proportions",
    "imbalance_ratio",
    "label_counts",
    "label_distribution",
    "make_femnist_federation",
    "make_synthetic_cifar",
    "make_synthetic_mnist",
    "make_uniform_test_set",
    "normalize_counts",
    "population_distribution",
    "uniform_distribution",
]

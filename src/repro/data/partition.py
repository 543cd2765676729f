"""Client partitioning with controlled statistical heterogeneity.

The paper characterises a federated dataset by two knobs (§6.1.1, Table 1):

* the global imbalance ratio ``ρ`` (how skewed the union of all client data
  is), produced by :mod:`repro.data.skew`, and
* the average client discrepancy ``EMD_avg`` (how far each client's label
  distribution is from the population distribution), with
  ``EMD_avg ∈ {0, 0.5, 1.0, 1.5}`` in the experiments.

:class:`EMDTargetPartitioner` reproduces the construction: every client's
label distribution is a convex mixture

``p_l^k = (1 − α) · p_g + α · q_k``

of the global distribution ``p_g`` and a per-client concentrated distribution
``q_k`` (uniform over the client's 1–2 *dominating classes*).  The mixing
coefficient ``α`` is calibrated so that the *average* ``||p_l^k − p_g||₁``
matches the requested ``EMD_avg``: ``α = 0`` reproduces the IID extreme
(every client looks like the global data) and ``α = 1`` reproduces the
fully-concentrated extreme described in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .distributions import (
    average_emd,
    imbalance_ratio,
    normalize_counts,
    population_distribution,
)

__all__ = ["ClientPartition", "EMDTargetPartitioner"]


@dataclass
class ClientPartition:
    """The result of partitioning a dataset across federated clients.

    Attributes
    ----------
    client_class_counts:
        Integer array of shape ``(n_clients, n_classes)``; entry ``(k, c)``
        is the number of class-``c`` samples held by client ``k``.
    num_classes:
        Size of the label space ``C``.
    """

    client_class_counts: np.ndarray
    num_classes: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.client_class_counts = np.asarray(self.client_class_counts, dtype=int)
        if self.client_class_counts.ndim != 2:
            raise ValueError("client_class_counts must be 2-D (clients x classes)")
        if self.client_class_counts.shape[1] != self.num_classes:
            raise ValueError("class dimension does not match num_classes")
        if np.any(self.client_class_counts < 0):
            raise ValueError("negative sample counts")

    # -- basic accessors ------------------------------------------------------

    @property
    def n_clients(self) -> int:
        return self.client_class_counts.shape[0]

    def client_distributions(self) -> np.ndarray:
        """All client label distributions ``p_l^k`` stacked into ``(n_clients, C)``."""
        return normalize_counts(self.client_class_counts)

    def global_counts(self) -> np.ndarray:
        """Per-class counts of the union of all client data."""
        return self.client_class_counts.sum(axis=0).astype(float)

    def global_distribution(self) -> np.ndarray:
        """Global label distribution ``p_g``."""
        return normalize_counts(self.global_counts())

    # -- heterogeneity statistics ---------------------------------------------

    def achieved_rho(self) -> float:
        """Measured global imbalance ratio of this partition."""
        return imbalance_ratio(self.global_counts())

    def achieved_emd_avg(self) -> float:
        """Measured average client EMD against the global distribution."""
        return average_emd(self.client_distributions(), self.global_distribution())

    def selection_population(self, selected: Sequence[int]) -> np.ndarray:
        """Population distribution ``p_o`` of a selected subset of clients."""
        ids = np.asarray(selected, dtype=np.intp)
        outside = ids[(ids < 0) | (ids >= self.n_clients)]
        if outside.size:  # a negative id would wrap to a client from the end
            raise IndexError(f"client id {outside[0]} out of range for "
                             f"n_clients={self.n_clients}")
        return population_distribution(normalize_counts(self.client_class_counts[ids]))


class EMDTargetPartitioner:
    """Partition clients so that the average client EMD hits a target value.

    Parameters
    ----------
    n_clients:
        Number of (virtual) clients ``N``.
    samples_per_client:
        Samples held by each client (``N_VC`` in the paper; every virtual
        client has the same size).
    emd_target:
        Desired ``EMD_avg`` between client distributions and the global
        distribution (paper values: 0, 0.5, 1.0, 1.5).
    dominating_classes:
        Candidate numbers of dominating classes per client; each client draws
        one of these uniformly.  The default ``(1, 2)`` matches the reference
        set ``G = {1, 2, 10}`` used for MNIST/CIFAR10.
    """

    def __init__(self, n_clients: int, samples_per_client: int, emd_target: float,
                 dominating_classes: Sequence[int] = (1, 2),
                 min_alpha: float = 0.0,
                 seed: Optional[int] = None):
        if n_clients < 1:
            raise ValueError("n_clients must be positive")
        if samples_per_client < 1:
            raise ValueError("samples_per_client must be positive")
        if emd_target < 0 or emd_target > 2:
            raise ValueError("EMD target must lie in [0, 2]")
        if not dominating_classes or any(d < 1 for d in dominating_classes):
            raise ValueError("dominating_classes must contain positive integers")
        if not 0 <= min_alpha <= 1:
            raise ValueError("min_alpha must lie in [0, 1]")
        self.n_clients = n_clients
        self.samples_per_client = samples_per_client
        self.emd_target = emd_target
        self.dominating_classes = tuple(dominating_classes)
        #: lower bound on the concentration mixing weight; used when a
        #: federation must have genuinely dominating classes per client (e.g.
        #: writer-style FEMNIST) even if the EMD target alone would not
        #: require it (the empirical-EMD sampling floor can exceed the target).
        self.min_alpha = min_alpha
        self.rng = np.random.default_rng(seed)

    # -- internals ------------------------------------------------------------

    def _concentrated_distributions(self, global_dist: np.ndarray) -> np.ndarray:
        """Per-client concentrated component ``q_k`` (uniform over dominating classes).

        Dominating classes are handed out from a stratified quota pool whose
        per-class counts are proportional to the global distribution (largest-
        remainder rounding).  Compared with i.i.d. draws this keeps the
        aggregate of all clients very close to ``p_g``, so the measured global
        imbalance ratio of the partition tracks the requested one even for a
        52-class, heavily skewed federation.
        """
        num_classes = global_dist.size
        dominating = np.minimum(
            self.rng.choice(self.dominating_classes, size=self.n_clients), num_classes
        ).astype(int)
        total_draws = int(dominating.sum())
        raw = global_dist * total_draws
        quota = np.floor(raw).astype(int)
        deficit = total_draws - int(quota.sum())
        if deficit > 0:
            order = np.argsort(-(raw - np.floor(raw)))
            quota[order[:deficit]] += 1
        pool = np.repeat(np.arange(num_classes), quota)
        self.rng.shuffle(pool)
        # client k takes the next dominating[k] classes of the pool
        # (len(pool) == Σd); a client whose slice repeats a class redraws the
        # repeat among the classes it does not hold yet, in client order, and
        # keeps every class of its slice, so the scatter needs no undoing
        rows = np.repeat(np.arange(self.n_clients), dominating)
        keys = np.sort(rows * num_classes + pool)
        repeated = np.zeros(self.n_clients, dtype=bool)
        repeated[keys[1:][keys[1:] == keys[:-1]] // num_classes] = True
        q = np.zeros((self.n_clients, num_classes))
        q[rows, pool] = np.repeat(1.0 / dominating, dominating)
        starts = np.cumsum(dominating) - dominating
        for k in np.flatnonzero(repeated).tolist():
            chosen: list[int] = []
            for c in pool[starts[k] : starts[k] + dominating[k]].tolist():
                if c in chosen:
                    candidates = [x for x in range(num_classes) if x not in chosen]
                    c = candidates[int(self.rng.integers(len(candidates)))]
                chosen.append(c)
            q[k, chosen] = 1.0 / dominating[k]
        return q

    def _calibrate_alpha(self, q: np.ndarray, global_dist: np.ndarray) -> float:
        """Solve for the mixing coefficient that hits the EMD target on average.

        The measured ``EMD_avg`` of a finite partition has a *sampling-noise
        floor*: even perfectly IID clients (α = 0) show a positive empirical
        EMD because each client only holds ``samples_per_client`` samples.
        We therefore calibrate against the measured EMD of quickly simulated
        partitions at α = 0 and α = 1 and interpolate linearly; a target
        below the noise floor maps to α = 0 (as IID as achievable).
        """
        if self.emd_target == 0:
            return 0.0
        probe_rng = np.random.default_rng(self.rng.integers(2**32))
        n_probe = min(self.n_clients, 200)

        def _measured_emd(alpha: float) -> float:
            mixtures = (1 - alpha) * global_dist[None, :] + alpha * q[:n_probe]
            counts = probe_rng.multinomial(self.samples_per_client, mixtures)
            return average_emd(normalize_counts(counts), global_dist)

        e0 = _measured_emd(0.0)
        e1 = _measured_emd(1.0)
        if self.emd_target <= e0 or e1 <= e0:
            return self.min_alpha
        return float(max(self.min_alpha,
                         min(1.0, (self.emd_target - e0) / (e1 - e0))))

    # -- public API -----------------------------------------------------------

    def partition(self, global_distribution: np.ndarray) -> ClientPartition:
        """Create a partition whose global skew follows *global_distribution*."""
        global_dist = np.asarray(global_distribution, dtype=float)
        global_dist = global_dist / global_dist.sum()
        num_classes = global_dist.size
        q = self._concentrated_distributions(global_dist)
        alpha = self._calibrate_alpha(q, global_dist)
        mixtures = (1 - alpha) * global_dist[None, :] + alpha * q
        counts = self.rng.multinomial(self.samples_per_client, mixtures)
        return ClientPartition(
            counts,
            num_classes,
            metadata={
                "partitioner": "emd_target",
                "alpha": alpha,
                "emd_target": self.emd_target,
                "dominating_classes": self.dominating_classes,
            },
        )

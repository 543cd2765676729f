"""The per-client partition loops, kept as the equivalence reference.

What :mod:`repro.data.partition` ran before its row-wise array kernels: one
``normalize_counts`` per client row, one ``multinomial`` per client and per
calibration probe, and one Python pass per client over its slice of the
dominating-class pool.  The production kernels must return exactly these
values and leave the generator in exactly this state — references live in
``tests/``, not ``src/``.
"""

import numpy as np

from repro.data.partition import ClientPartition

__all__ = [
    "reference_achieved_emd_avg",
    "reference_client_distributions",
    "reference_partition",
    "reference_selection_population",
]


def _normalize(counts):
    """One count vector to a distribution; a zero vector maps to uniform."""
    arr = np.asarray(counts, dtype=float)
    total = arr.sum()
    if total == 0:
        return np.full(arr.size, 1.0 / arr.size)
    return arr / total


def reference_client_distributions(counts):
    """The per-row ``normalize_counts`` stack."""
    return np.vstack([_normalize(row) for row in np.asarray(counts)])


def reference_selection_population(counts, selected):
    """The per-client population: one normalised row per selected client."""
    return np.vstack([_normalize(np.asarray(counts)[k]) for k in selected]).mean(axis=0)


def reference_achieved_emd_avg(counts):
    """Mean per-client ``||p_l^k − p_g||₁``, one client at a time."""
    counts = np.asarray(counts)
    global_dist = _normalize(counts.sum(axis=0).astype(float))
    return float(np.mean([float(np.abs(p - global_dist).sum())
                          for p in reference_client_distributions(counts)]))


def _concentrated(partitioner, global_dist):
    """The per-client dominating-class loop over the shuffled quota pool."""
    rng = partitioner.rng
    num_classes = global_dist.size
    dominating = np.minimum(
        rng.choice(partitioner.dominating_classes, size=partitioner.n_clients), num_classes
    ).astype(int)
    total_draws = int(dominating.sum())
    raw = global_dist * total_draws
    quota = np.floor(raw).astype(int)
    deficit = total_draws - int(quota.sum())
    if deficit > 0:
        order = np.argsort(-(raw - np.floor(raw)))
        quota[order[:deficit]] += 1
    pool = np.repeat(np.arange(num_classes), quota)
    rng.shuffle(pool)
    q = np.zeros((partitioner.n_clients, num_classes))
    pos = 0
    for k, d in enumerate(dominating):
        take = list(pool[pos : pos + d])
        pos += d
        chosen = []
        for c in take:
            if c in chosen:
                candidates = [x for x in range(num_classes) if x not in chosen]
                c = int(rng.choice(candidates))
            chosen.append(int(c))
        while len(chosen) < d:  # never runs (len(pool) == Σd); kept verbatim
            candidates = [x for x in range(num_classes) if x not in chosen]
            chosen.append(int(rng.choice(candidates)))
        q[k, chosen] = 1.0 / d
    return q


def _calibrate_alpha(partitioner, q, global_dist):
    """α from two probe partitions, one ``multinomial`` per probe client."""
    if partitioner.emd_target == 0:
        return 0.0
    probe_rng = np.random.default_rng(partitioner.rng.integers(2**32))
    n_probe = min(partitioner.n_clients, 200)

    def _measured_emd(alpha):
        mixtures = (1 - alpha) * global_dist[None, :] + alpha * q[:n_probe]
        emds = []
        for k in range(n_probe):
            counts = probe_rng.multinomial(partitioner.samples_per_client, mixtures[k])
            p_k = counts / counts.sum()
            emds.append(np.abs(p_k - global_dist).sum())
        return float(np.mean(emds))

    e0 = _measured_emd(0.0)
    e1 = _measured_emd(1.0)
    if partitioner.emd_target <= e0 or e1 <= e0:
        return partitioner.min_alpha
    return float(max(partitioner.min_alpha,
                     min(1.0, (partitioner.emd_target - e0) / (e1 - e0))))


def reference_partition(partitioner, global_distribution):
    """``EMDTargetPartitioner.partition`` with one ``multinomial`` per client."""
    global_dist = np.asarray(global_distribution, dtype=float)
    global_dist = global_dist / global_dist.sum()
    num_classes = global_dist.size
    q = _concentrated(partitioner, global_dist)
    alpha = _calibrate_alpha(partitioner, q, global_dist)
    mixtures = (1 - alpha) * global_dist[None, :] + alpha * q
    counts = np.zeros((partitioner.n_clients, num_classes), dtype=int)
    for k in range(partitioner.n_clients):
        counts[k] = partitioner.rng.multinomial(partitioner.samples_per_client, mixtures[k])
    return ClientPartition(counts, num_classes, metadata={"alpha": alpha})

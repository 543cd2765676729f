"""Table 1 — the datasets used in the experiments.

Paper table:

    Dataset          ρ               EMD_avg              N
    MNIST/CIFAR10    10, 5, 2, 1     0.0, 0.5, 1.0, 1.5   1000
    FEMNIST          13.64           0.554                8962

This benchmark regenerates every federation of the table (at the paper's
client counts — building partitions involves no training, so full scale is
cheap) and reports the *achieved* ρ and EMD_avg next to the targets.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import print_table
from repro.data import (
    EMDTargetPartitioner,
    FEMNIST_PAPER_CLIENTS,
    FEMNIST_PAPER_EMD,
    FEMNIST_PAPER_RHO,
    half_normal_class_proportions,
    make_femnist_federation,
)

GROUP1_CLIENTS = 1000
RHO_GRID = (10.0, 5.0, 2.0, 1.0)
EMD_GRID = (0.0, 0.5, 1.0, 1.5)


def paper_scale() -> dict:
    return {"group1": {"n_clients": 1000, "rho": RHO_GRID, "emd": EMD_GRID},
            "femnist": {"n_clients": FEMNIST_PAPER_CLIENTS, "rho": FEMNIST_PAPER_RHO,
                        "emd": FEMNIST_PAPER_EMD}}


@pytest.mark.benchmark(group="table1")
def test_table1_group1_grid(benchmark):
    """The MNIST/CIFAR10 synthetic grid: every (ρ, EMD_avg) combination."""

    def experiment():
        rows = []
        for rho in RHO_GRID:
            global_dist = half_normal_class_proportions(10, rho)
            for emd in EMD_GRID:
                partition = EMDTargetPartitioner(
                    GROUP1_CLIENTS, 128, emd, seed=9
                ).partition(global_dist)
                rows.append({
                    "dataset": f"MNIST/CIFAR10-{rho:g}/{emd:g}",
                    "target_rho": rho,
                    "achieved_rho": round(partition.achieved_rho(), 2),
                    "target_emd": emd,
                    "achieved_emd": round(partition.achieved_emd_avg(), 3),
                    "N": partition.n_clients,
                })
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    print_table("Table 1 (group 1): achieved dataset statistics", rows)

    for row in rows:
        assert row["N"] == GROUP1_CLIENTS
        # achieved global skew tracks the target (ρ = 1 must stay balanced)
        if row["target_rho"] == 1.0:
            assert row["achieved_rho"] < 1.5
        else:
            assert row["achieved_rho"] == pytest.approx(row["target_rho"], rel=0.5)
        # achieved EMD tracks the target above the sampling-noise floor
        assert row["achieved_emd"] >= row["target_emd"] - 0.15
        if row["target_emd"] >= 1.0:
            assert row["achieved_emd"] == pytest.approx(row["target_emd"], abs=0.25)

    # EMD is monotone in the target at fixed rho
    by_rho = {}
    for row in rows:
        by_rho.setdefault(row["target_rho"], []).append(row["achieved_emd"])
    for achieved in by_rho.values():
        assert all(a <= b + 0.05 for a, b in zip(achieved, achieved[1:]))


@pytest.mark.benchmark(group="table1")
def test_table1_femnist(benchmark):
    """The FEMNIST federation at the paper's full client count."""

    def experiment():
        federation = make_femnist_federation(
            n_clients=FEMNIST_PAPER_CLIENTS, samples_per_client=32, seed=9
        )
        return federation.summary()

    summary = benchmark.pedantic(experiment, rounds=1, iterations=1)
    print_table("Table 1 (FEMNIST): achieved statistics", [{
        "dataset": "FEMNIST",
        "target_rho": FEMNIST_PAPER_RHO,
        "achieved_rho": round(summary["rho"], 2),
        "target_emd": FEMNIST_PAPER_EMD,
        "achieved_emd": round(summary["emd_avg"], 3),
        "N": summary["n_clients"],
    }])

    assert summary["n_clients"] == FEMNIST_PAPER_CLIENTS
    assert summary["num_classes"] == 52
    # global skew close to the paper's 13.64
    assert summary["rho"] == pytest.approx(FEMNIST_PAPER_RHO, rel=0.5)
    # the empirical EMD sits above the paper's value because of the per-client
    # sampling floor and the writer-style concentration (docs/paper_mapping.md,
    # "Where the models and data depart from the paper")
    assert 0.3 <= summary["emd_avg"] <= 1.6

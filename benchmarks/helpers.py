"""Shared output for the reproduction benchmarks: :func:`print_table`.

Every benchmark file regenerates one table or figure of the paper and prints
it as an aligned text table.  The training figures (2, 6, 7, 8 and Table 2)
build each run through the ledger recipe ``repro.ledger.recipes:federation``
and drive it with ``repro.Session``, so every figure run can be recorded,
replayed and verified like any other ledgered run.

Scale note
----------
The paper trains ResNet18/CNNs on real MNIST/CIFAR10/FEMNIST for up to 1500
rounds on a GPU.  The benchmarks default to a reduced scale (documented in
each file): fewer clients, fewer rounds, an MLP on synthetic data.  The
*shape* of each result — which method wins, how the ordering changes with
ρ, EMD_avg, K and H — is what the reproduction checks.  ``paper_scale()`` in
each benchmark file records the full-size configuration for reference.
"""

from __future__ import annotations

__all__ = ["print_table"]


def print_table(title: str, rows: list[dict]) -> None:
    """Print a list of dict rows as an aligned text table (benchmark output)."""
    print(f"\n=== {title} ===")
    if not rows:
        print("(no rows)")
        return
    columns = list(rows[0].keys())
    widths = {c: max(len(str(c)), max(len(str(r.get(c, ""))) for r in rows)) for c in columns}
    header = "  ".join(str(c).ljust(widths[c]) for c in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns))

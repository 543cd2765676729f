"""The eager slot table, kept as the equivalence reference for the codebook.

What :class:`~repro.core.registry.RegistryCodebook` built before it ranked
combinations arithmetically: every block ``i ∈ G`` enumerated with
``itertools.combinations`` in lexicographic order, the blocks laid out one
after another.  The lazy ranks must address exactly these slots.
"""

from itertools import combinations

__all__ = ["slot_table"]


def slot_table(config) -> dict[tuple[int, ...], int]:
    """The flat registry index of every category of *config*'s codebook."""
    table = {}
    for i in config.reference_set:
        for combo in combinations(range(config.num_classes), i):
            table[combo] = len(table)
    return table

"""Equivalence references: the slow, readable paths ``src/`` must match.

Each module keeps an implementation the production code replaced, so the
property suite can hold the fast path to it exactly:

* :mod:`reference.per_component_scorer` — multi-time scoring with one
  Paillier ciphertext per class, against the packed scorer;
* :mod:`reference.synthetic_generator` — the per-sample ``np.roll`` image
  generator, against the table-gather kernel;
* :mod:`reference.combination_table` — the eager ``itertools.combinations``
  slot table, against the codebook's lazy combinatorial ranks;
* :mod:`reference.partition_loops` — the per-client partition, distribution
  and population loops, against the row-wise partition kernels;
* :mod:`reference.sequential_nn` — per-layer forward/backward, loss,
  optimisers, loader, local update and evaluation loop, one client and one
  mini-batch at a time, against the batched layer chain.

References live in ``tests/``, not ``src/``.
"""

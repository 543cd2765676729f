"""The built-in run recipe: one importable factory for every replayable run.

A ledger row can store everything about a run *except* the live Python
objects a :class:`~repro.federated.FederatedSimulation` is built from — the
partition, data generator, model factory, selector and test set.  A
:class:`~repro.ledger.codec.RunRecipe` bridges that gap by naming a factory
function (``"package.module:function"``) plus its keyword arguments.
:func:`federation` is that factory for the paper's experiments, each named
by its federation ``<dataset>-ρ/EMD_avg`` plus a selector and K/H: the
examples, the figure benchmarks, the CI ledger-smoke gate and the CLI's
cold-process ``verify``/``resume`` all build their runs through it.

A recipe factory must be **deterministic given its kwargs**: the same
arguments must rebuild a federation whose selections and training match the
recorded run bit-for-bit, which :func:`federation` guarantees by seeding all
randomness from its ``seed`` (and ``model_seed``) arguments.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["federation"]

#: Dubhe's threshold grid for FEMNIST's G = (1, 52), which has no published
#: optimum: its one free threshold is searched over these values.
FEMNIST_SIGMA_GRID = (0.1, 0.2, 0.3, 0.5)


def federation(dataset: str = "mnist", rho: float = 10.0,
               emd_avg: float = 1.5, n_clients: int = 32,
               samples_per_client: int = 16, participants: int = 4,
               tries: int = 1, selector: str = "random", hidden: int = 16,
               test_per_class: int = 4, seed: Optional[int] = 0,
               model_seed: Optional[int] = None) -> dict:
    """The ``<dataset>-rho/emd_avg`` federation with one selector and an MLP.

    Returns the five simulation components keyed exactly as
    :class:`~repro.federated.FederatedSimulation` expects them:

    * ``dataset`` — ``"mnist"`` or ``"cifar"`` (a 10-class synthetic task
      through :func:`repro.quick_federation`) or ``"femnist"`` (52 classes
      through :func:`repro.data.make_femnist_federation`);
    * ``selector`` — ``"random"``, ``"greedy"`` or ``"dubhe"`` picking
      ``participants`` clients a round.  Dubhe runs ``tries`` tentative
      selections on G = (1, 2, C) with the paper's group-1 thresholds
      (Fig. 10), or on FEMNIST's G = (1, 52) with its threshold searched
      over :data:`FEMNIST_SIGMA_GRID`;
    * the model is an MLP with one ``hidden``-unit layer, initialised from
      ``model_seed`` (``seed`` when ``None``), and the test set holds
      ``test_per_class`` samples of every class.

    Partition, prototypes, selector and test set derive from *seed*, so two
    processes building this recipe with the same kwargs run identically.

    Example
    -------
    >>> components = federation(n_clients=16, participants=4, seed=0)
    >>> components["partition"].n_clients
    16
    >>> federation("femnist", n_clients=8)["partition"].num_classes
    52
    """
    from .. import make_uniform_test_set, quick_federation
    from ..core import DubheConfig, DubheSelector, GreedySelector, RandomSelector
    from ..core.parameter_search import search_thresholds
    from ..data import make_femnist_federation
    from ..nn.models import MLP

    if dataset not in ("mnist", "cifar", "femnist"):
        raise ValueError("dataset must be 'mnist', 'cifar' or 'femnist', "
                         f"got {dataset!r}")
    if selector not in ("random", "greedy", "dubhe"):
        raise ValueError("selector must be 'random', 'greedy' or 'dubhe', "
                         f"got {selector!r}")
    if dataset == "femnist":
        built = make_femnist_federation(
            n_clients=n_clients, samples_per_client=samples_per_client,
            rho=rho, emd_avg=emd_avg, seed=seed)
        partition, generator = built.partition, built.generator
    else:
        partition, generator = quick_federation(
            n_clients=n_clients, samples_per_client=samples_per_client,
            rho=rho, emd_avg=emd_avg, dataset=dataset, seed=seed)
    distributions = partition.client_distributions()
    classes = partition.num_classes
    if selector == "random":
        chosen = RandomSelector(distributions, participants, seed=seed)
    elif selector == "greedy":
        chosen = GreedySelector(distributions, participants, seed=seed)
    elif dataset == "femnist":
        unsettled = DubheConfig(num_classes=classes, reference_set=(1, classes),
                                participants_per_round=participants,
                                tentative_selections=tries, seed=seed)
        settled = search_thresholds(distributions, unsettled,
                                    sigma_grid=FEMNIST_SIGMA_GRID, seed=seed)
        chosen = DubheSelector(distributions, settled.config, seed=seed)
    else:
        config = DubheConfig(num_classes=classes, reference_set=(1, 2, classes),
                             thresholds={1: 0.7, 2: 0.1, classes: 0.0},
                             participants_per_round=participants,
                             tentative_selections=tries, seed=seed)
        chosen = DubheSelector(distributions, config, seed=seed)
    model_seed = (seed or 0) if model_seed is None else model_seed
    return {
        "partition": partition,
        "generator": generator,
        "model_factory": lambda: MLP(generator.flat_feature_dim(), classes,
                                     hidden=(hidden,), seed=model_seed),
        "selector": chosen,
        "test_set": make_uniform_test_set(generator,
                                          samples_per_class=test_per_class,
                                          seed=(seed or 0) + 1),
    }

"""Integration tests: the full Dubhe pipeline across substrates.

These tests exercise the paths the paper's experiments rely on:
secure registration feeding a Dubhe selector, all three selectors plugged
into the federated simulation, and the headline qualitative claim (Dubhe and
greedy beat random on skewed data in terms of population bias).
"""

import random

import numpy as np
import pytest

from repro import quick_federation
from repro.core.config import DubheConfig
from repro.core.parameter_search import search_thresholds
from repro.core.probability import participation_probabilities
from repro.core.registry import RegistryCodebook
from repro.core.secure import SecureRegistrationRound
from repro.core.selectors import DubheSelector, GreedySelector, RandomSelector
from repro.crypto.keyagent import KeyAgent
from repro.data.synthetic import make_uniform_test_set
from repro.federated.client import LocalTrainingConfig
from repro.federated.simulation import FederatedConfig, FederatedSimulation
from repro.nn.models import MLP


@pytest.fixture(scope="module")
def federation():
    partition, generator = quick_federation(
        n_clients=60, samples_per_client=24, rho=10.0, emd_avg=1.5, seed=0
    )
    return partition, generator


def settled_config(k=10, h=1, key_size=128):
    return DubheConfig(num_classes=10, reference_set=(1, 2, 10),
                       thresholds={1: 0.7, 2: 0.1, 10: 0.0},
                       participants_per_round=k, tentative_selections=h,
                       key_size=key_size)


class TestSecureSelectionPipeline:
    def test_probabilities_from_encrypted_registry_match_plaintext(self, federation):
        partition, _ = federation
        distributions = partition.client_distributions()[:15]
        config = settled_config(k=5)
        agent = KeyAgent(key_size=128, rng=random.Random(0))
        streamed = SecureRegistrationRound(config, agent=agent).run_stream(distributions)
        codebook = RegistryCodebook(config)
        registrations = streamed.registration
        secure_probs = participation_probabilities(codebook, registrations,
                                                   np.round(streamed.overall), 5)
        plain = codebook.register_batch(distributions)
        plain_probs = participation_probabilities(codebook, plain,
                                                  plain.overall_registry(), 5)
        np.testing.assert_allclose(secure_probs, plain_probs, atol=1e-9)


class TestSelectorsInsideSimulation:
    @pytest.mark.parametrize("selector_name", ["random", "greedy", "dubhe"])
    def test_each_selector_drives_training(self, federation, selector_name):
        partition, generator = federation
        distributions = partition.client_distributions()
        if selector_name == "random":
            selector = RandomSelector(distributions, 8, seed=0)
        elif selector_name == "greedy":
            selector = GreedySelector(distributions, 8, seed=0)
        else:
            selector = DubheSelector(distributions, settled_config(k=8), seed=0)
        test_set = make_uniform_test_set(generator, samples_per_class=4, seed=1)
        sim = FederatedSimulation(
            partition=partition,
            generator=generator,
            model_factory=lambda: MLP(64, 10, hidden=(16,), seed=11),
            selector=selector,
            test_set=test_set,
            config=FederatedConfig(rounds=2, eval_every=1,
                                   local=LocalTrainingConfig(learning_rate=1e-3), seed=0),
        )
        history = sim.run()
        assert len(history) == 2
        assert history.final_accuracy() >= 0.0
        assert all(len(r.selected_clients) == 8 for r in history.records)

    def test_dubhe_and_greedy_reduce_round_bias_vs_random(self, federation):
        partition, _ = federation
        distributions = partition.client_distributions()
        random_selector = RandomSelector(distributions, 10, seed=3)
        greedy_selector = GreedySelector(distributions, 10, seed=3)
        dubhe_selector = DubheSelector(distributions, settled_config(k=10, h=5), seed=3)
        rounds = 25
        rand_bias = np.mean([random_selector.bias_of(random_selector.select(r))
                             for r in range(rounds)])
        greedy_bias = np.mean([greedy_selector.bias_of(greedy_selector.select(r))
                               for r in range(rounds)])
        dubhe_bias = np.mean([dubhe_selector.bias_of(dubhe_selector.select(r))
                              for r in range(rounds)])
        # the paper's qualitative ordering: greedy <= dubhe < random
        assert dubhe_bias < rand_bias
        assert greedy_bias < rand_bias
        assert greedy_bias <= dubhe_bias + 0.05

    def test_parameter_search_feeds_simulation(self, federation):
        partition, generator = federation
        distributions = partition.client_distributions()
        unsettled = DubheConfig(num_classes=10, reference_set=(1, 2, 10),
                                participants_per_round=8, tentative_selections=3, seed=0)
        result = search_thresholds(distributions, unsettled, sigma_grid=(0.1, 0.5, 0.9), seed=0)
        selector = DubheSelector(distributions, result.config, seed=0)
        selected = selector.select(0)
        assert len(selected) == 8

"""Unit tests of the client's capped, jittered reconnect policy.

The regression at the heart of this file: the transport client's original
reconnect loop slept ``backoff * 2**attempt`` with no cap, so a fleet that
outlived a long outage would back off for hours.  :class:`RetryPolicy`
bounds every delay by ``max_backoff`` and jitters it *downward* (subtractive
jitter keeps the cap a true upper bound), deterministically per
``(seed, attempt)``.
"""

import numpy as np
import pytest

from repro.core.retry import RetryPolicy



def schedule(policy):
    """The full backoff schedule: one delay per allowed retry."""
    return [policy.delay(attempt) for attempt in range(policy.retries)]

class TestCap:
    def test_no_delay_ever_exceeds_max_backoff(self):
        policy = RetryPolicy(retries=40, backoff=0.05, max_backoff=2.0)
        delays = schedule(policy)
        assert len(delays) == policy.retries
        assert all(d <= policy.max_backoff for d in delays)

    def test_uncapped_exponential_regression(self):
        # the old transport/client.py bug: attempt 30 at backoff=0.05 meant
        # a ~54e6-second sleep; the policy keeps the whole schedule bounded
        policy = RetryPolicy(retries=30, backoff=0.05, max_backoff=2.0)
        assert policy.delay(30) <= 2.0
        assert sum(schedule(policy)) <= policy.retries * policy.max_backoff

    def test_exponential_growth_until_the_cap(self):
        policy = RetryPolicy(backoff=0.05, max_backoff=1.0, jitter=0.0)
        assert [policy.delay(a) for a in range(7)] == [
            0.05, 0.1, 0.2, 0.4, 0.8, 1.0, 1.0]


class TestJitter:
    def test_jitter_is_subtractive(self):
        policy = RetryPolicy(backoff=0.5, max_backoff=4.0, jitter=0.25, seed=3)
        for attempt in range(policy.attempts):
            base = min(policy.backoff * 2 ** attempt, policy.max_backoff)
            delay = policy.delay(attempt)
            assert base * (1 - policy.jitter) <= delay <= base

    def test_same_seed_same_schedule(self):
        a = RetryPolicy(seed=9)
        b = RetryPolicy(seed=9)
        assert schedule(a) == schedule(b)

    def test_different_seeds_desynchronise(self):
        a = schedule(RetryPolicy(seed=0, jitter=0.5))
        b = schedule(RetryPolicy(seed=1, jitter=0.5))
        assert a != b  # a fleet of clients must not retry in lockstep

    def test_zero_jitter_is_exact(self):
        policy = RetryPolicy(backoff=0.1, jitter=0.0)
        assert policy.delay(1) == 0.2


class TestValidationAndWiring:
    @pytest.mark.parametrize("kwargs", [
        dict(retries=-1),
        dict(backoff=-0.1),
        dict(max_backoff=0.0),
        dict(jitter=-0.1),
        dict(jitter=1.0),
        dict(jitter=1.5),
    ])
    def test_invalid_knobs_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_attempts_counts_the_first_try(self):
        assert RetryPolicy(retries=5).attempts == 6

    def test_transport_client_reconnects_under_the_policy(self):
        # the client seeds its policy with its own id so a fleet staggers
        from types import SimpleNamespace

        from repro.transport.client import TransportClient

        peers = [
            TransportClient(SimpleNamespace(client_id=cid, num_classes=10,
                                            num_samples=5),
                            lambda: None, "127.0.0.1", 9,
                            retries=20, backoff=0.05, max_backoff=2.0)
            for cid in (0, 1)
        ]
        for peer in peers:
            assert all(d <= 2.0 for d in schedule(peer.policy))
        assert (schedule(peers[0].policy)
                != schedule(peers[1].policy))

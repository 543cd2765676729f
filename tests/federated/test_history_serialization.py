"""Round-trip serialization of RoundRecord.

The run ledger stores every round as ``RoundRecord.to_dict()`` JSON, so the
round trip ``from_dict(json.loads(json.dumps(to_dict(r))))`` must reproduce
every field exactly — including numpy scalars (which must become native
Python numbers) and the NaN survivor-bias a scenario round can record.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings

from strategies import STANDARD, round_records, scaled_max_examples
from repro.federated.history import RoundRecord


def scalar_equal(left, right) -> bool:
    if left is None or right is None:
        return left is right
    if isinstance(left, float) and isinstance(right, float):
        if math.isnan(left) or math.isnan(right):
            return math.isnan(left) and math.isnan(right)
    return left == right


def assert_records_equal(left: RoundRecord, right: RoundRecord) -> None:
    assert left.round_index == right.round_index
    assert left.selected_clients == right.selected_clients
    np.testing.assert_array_equal(
        np.asarray(left.population_distribution, dtype=float),
        np.asarray(right.population_distribution, dtype=float))
    assert scalar_equal(left.population_bias, right.population_bias)
    assert scalar_equal(left.test_accuracy, right.test_accuracy)
    assert left.actual_clients == right.actual_clients
    assert dict(left.failures) == dict(right.failures)
    assert left.fallback_reason == right.fallback_reason
    assert left.aggregation_skipped == right.aggregation_skipped
    assert scalar_equal(left.actual_population_bias,
                        right.actual_population_bias)
    assert scalar_equal(left.round_delay, right.round_delay)


class TestRoundRecordRoundTrip:
    @settings(STANDARD, max_examples=scaled_max_examples(100))
    @given(record=round_records())
    def test_dict_round_trip_is_exact(self, record):
        assert_records_equal(record, RoundRecord.from_dict(record.to_dict()))

    @settings(STANDARD, max_examples=scaled_max_examples(100))
    @given(record=round_records())
    def test_json_round_trip_is_exact(self, record):
        # the exact path the run ledger uses: to_dict -> json -> from_dict
        payload = json.loads(json.dumps(record.to_dict()))
        assert_records_equal(record, RoundRecord.from_dict(payload))

    @settings(STANDARD, max_examples=scaled_max_examples(50))
    @given(record=round_records())
    def test_to_dict_is_json_native(self, record):
        def check(value):
            assert not isinstance(value, (np.generic, np.ndarray)), value
            if isinstance(value, dict):
                for key, inner in value.items():
                    assert isinstance(key, str)
                    check(inner)
            elif isinstance(value, (list, tuple)):
                for inner in value:
                    check(inner)
            else:
                assert value is None or isinstance(value, (str, int, float, bool))

        check(record.to_dict())

    def test_numpy_scalars_become_native(self):
        record = RoundRecord(
            round_index=np.int64(3),
            selected_clients=(np.int64(1), np.int64(2)),
            population_distribution=np.array([0.25, 0.75], dtype=np.float32),
            population_bias=np.float64(0.5),
            test_accuracy=np.float32(0.875),
            failures={np.int64(1): "dropout"},
        )
        payload = record.to_dict()
        assert type(payload["round_index"]) is int
        assert all(type(c) is int for c in payload["selected_clients"])
        assert type(payload["population_bias"]) is float
        assert payload["failures"] == {"1": "dropout"}
        json.dumps(payload)  # must not need a custom encoder

    @pytest.mark.parametrize("flag", [False, True])
    def test_old_payload_with_the_retired_drift_flag_loads(self, flag):
        # ledgers recorded before label drift was removed carry the flag; a
        # record ignores it either way (a run that drifted is refused by its
        # config, see repro.ledger.codec.RETIRED_KEYS)
        record = RoundRecord(0, (3, 1), np.array([0.5, 0.5]), 0.25, 0.9)
        payload = record.to_dict()
        assert "drift_applied" not in payload
        old = json.loads(json.dumps(dict(payload, drift_applied=flag)))
        assert_records_equal(record, RoundRecord.from_dict(old))

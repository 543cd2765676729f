"""Named hypothesis settings and the suite-wide example-count multiplier.

Each test keeps its own example count and wraps it in
:func:`scaled_max_examples`, so one environment variable raises the whole
property-testing surface: the nightly workflow sets
``HYPOTHESIS_EXAMPLES_MULTIPLIER=10`` to hunt for rare counterexamples,
while interactive and CI runs keep the per-test counts (multiplier 1).
"""

import os

from hypothesis import HealthCheck, settings

__all__ = ["DETERMINISM", "STANDARD", "scaled_max_examples"]

#: a property whose one example may generate a key, a registry or a model:
#: no per-example deadline
STANDARD = settings(deadline=None)

#: a bit-identity or round-trip property over large drawn inputs (states,
#: frames, generator outputs): no deadline, and slow data generation is the
#: point rather than a smell
DETERMINISM = settings(deadline=None,
                       suppress_health_check=[HealthCheck.too_slow])


def scaled_max_examples(base: int) -> int:
    """*base* examples scaled by ``HYPOTHESIS_EXAMPLES_MULTIPLIER`` (>= 1)."""
    try:
        multiplier = float(os.environ.get("HYPOTHESIS_EXAMPLES_MULTIPLIER", "1"))
    except ValueError:
        multiplier = 1.0
    return max(1, int(round(base * multiplier)))

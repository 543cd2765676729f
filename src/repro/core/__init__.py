"""Dubhe: the paper's client-selection system (the core contribution).

Public API
----------
* :class:`DubheConfig` — reference set ``G``, thresholds ``σ_i``, ``K``, ``H``.
* :class:`RegistryCodebook`, :class:`RegistrationResult`,
  :class:`ClientCategory` — the registry and Algorithm 1.
* probability rules — :func:`participation_probability`,
  :func:`expected_participants`, :class:`VolunteerDraw`.
* selectors — :class:`RandomSelector`, :class:`GreedySelector`,
  :class:`DubheSelector`.
* multi-time selection — :func:`multi_time_selection`,
  :class:`MultiTimeResult`.
* parameter search — :func:`search_thresholds`,
  :class:`ParameterSearchResult`.
* secure protocol — :class:`SecureRegistrationRound`,
  :class:`SecureDistributionAggregation`, :class:`SecureAggregationServer`,
  :class:`SecureClient`, :class:`ProtocolStats` (the protocol's one cost
  meter, which the §6.4 overhead study reads).
"""

from .config import (
    GROUP1_REFERENCE_SET,
    GROUP2_REFERENCE_SET,
    RUN_MODES,
    DubheConfig,
    resolve_run_mode,
)
from .multitime import MultiTimeResult, TentativeTry, multi_time_selection
from .parameter_search import ParameterSearchResult, default_sigma_grid, search_thresholds
from .probability import (
    VolunteerDraw,
    expected_category_count,
    expected_participants,
    participation_probabilities,
    participation_probability,
)
from .registry import ClientCategory, RegistrationResult, RegistryCodebook
from .secure import (
    ProtocolStats,
    SecureAggregationServer,
    SecureClient,
    SecureDistributionAggregation,
    SecureRegistrationRound,
)
from .secure_selector import SecureDubheSelector
from .selectors import ClientSelector, DubheSelector, GreedySelector, RandomSelector

__all__ = [
    "ClientCategory",
    "ClientSelector",
    "DubheConfig",
    "DubheSelector",
    "GROUP1_REFERENCE_SET",
    "GROUP2_REFERENCE_SET",
    "GreedySelector",
    "MultiTimeResult",
    "ParameterSearchResult",
    "ProtocolStats",
    "RUN_MODES",
    "RandomSelector",
    "RegistrationResult",
    "RegistryCodebook",
    "SecureAggregationServer",
    "SecureClient",
    "SecureDistributionAggregation",
    "SecureDubheSelector",
    "SecureRegistrationRound",
    "TentativeTry",
    "VolunteerDraw",
    "default_sigma_grid",
    "expected_category_count",
    "expected_participants",
    "multi_time_selection",
    "participation_probabilities",
    "participation_probability",
    "resolve_run_mode",
    "search_thresholds",
]

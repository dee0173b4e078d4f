"""Load-shedding policies: LIRA and the paper's three baselines.

:data:`POLICIES` is the one name → policy table.  Each entry builds a
shard's plan source beside the shard's shedder, its z controller; LIRA
(:class:`~repro.core.LiraLoadShedder`) *is* that shedder.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.shedding.lira_grid import LiraGridPolicy
from repro.shedding.policy import SheddingPolicy
from repro.shedding.random_drop import RandomDropPolicy
from repro.shedding.uniform import UniformDeltaPolicy

if TYPE_CHECKING:
    from repro.core.reduction import ReductionFunction
    from repro.core.shedder import LiraLoadShedder

#: Builds a policy from a shard's shedder and the reduction function f(Δ).
PolicyFactory = Callable[["LiraLoadShedder", "ReductionFunction"], SheddingPolicy]

POLICIES: dict[str, PolicyFactory] = {
    "lira": lambda shedder, reduction: shedder,
    "lira-grid": lambda shedder, reduction: LiraGridPolicy(shedder.config, reduction),
    "uniform": lambda shedder, reduction: UniformDeltaPolicy(reduction),
    "random-drop": lambda shedder, reduction: RandomDropPolicy(shedder.config.delta_min),
}


def policy_factory(policy: str | PolicyFactory) -> PolicyFactory:
    """The factory :data:`POLICIES` holds under the name ``policy``, or
    ``policy`` itself when it already is one."""
    if not isinstance(policy, str):
        return policy
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {sorted(POLICIES)}")
    return POLICIES[policy]


__all__ = [
    "POLICIES",
    "LiraGridPolicy",
    "PolicyFactory",
    "RandomDropPolicy",
    "SheddingPolicy",
    "UniformDeltaPolicy",
    "policy_factory",
]

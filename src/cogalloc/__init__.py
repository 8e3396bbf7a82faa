"""cogalloc: joint sensing design, user selection, and transmission-time
allocation for a price-based opportunistic cognitive radio network.

The library is organized around five layers:

- :mod:`cogalloc.sensing` — closed-form local/fused detection statistics.
- :mod:`cogalloc.economics` — radio/price constants, access rates, frame budget.
- :mod:`cogalloc.allocator` — the pricing kernel (effective rates, time
  bounds, priorities, greedy fill), case classification, and
  elimination/exchange user selection at a fixed design.
- :mod:`cogalloc.optimizer` — the outer design grid search, the
  exhaustive oracle, the non-joint baseline, and the quasiconcavity probe.
- :mod:`cogalloc.simkit` — multi-frame Monte-Carlo traffic/delay simulation.

``cogalloc.cli`` exposes the same functionality as subcommands.
"""

from .allocator import (
    AllocationResult,
    CaseLabel,
    greedy_topup,
    select_and_allocate,
)
from .economics import (
    SecondaryUser,
    SystemParams,
    default_system_params,
    effective_time,
)
from .optimizer import (
    DesignGrid,
    HessianProbeConfig,
    OptimizationOutcome,
    count_negative_utility,
    exhaustive_oracle,
    joint_optimize,
    nonjoint_baseline,
    quasiconcavity_probe,
)
from .sensing import (
    SensingDesign,
    SensingGeometry,
    global_pd,
    global_pfa,
    local_pd,
    min_active_users,
    q_function,
    q_inverse,
    threshold_from_pfa,
)
from .simkit import (
    DelayStats,
    FrameTrace,
    StreamFactory,
    TrafficModel,
    UserProfile,
    jain_index,
    run_episode,
    run_episodes,
)
from .units import db_to_linear, dbm_to_watts

__version__ = "0.1.0"

__all__ = [
    "AllocationResult",
    "CaseLabel",
    "DelayStats",
    "DesignGrid",
    "FrameTrace",
    "HessianProbeConfig",
    "OptimizationOutcome",
    "SecondaryUser",
    "SensingDesign",
    "SensingGeometry",
    "StreamFactory",
    "SystemParams",
    "TrafficModel",
    "UserProfile",
    "count_negative_utility",
    "db_to_linear",
    "dbm_to_watts",
    "default_system_params",
    "effective_time",
    "exhaustive_oracle",
    "global_pd",
    "global_pfa",
    "greedy_topup",
    "jain_index",
    "joint_optimize",
    "local_pd",
    "min_active_users",
    "nonjoint_baseline",
    "q_function",
    "q_inverse",
    "quasiconcavity_probe",
    "run_episode",
    "run_episodes",
    "select_and_allocate",
    "threshold_from_pfa",
]

"""mutegossip: push gossip with a muting parameter on the complete graph.

Simulate dissemination, replay source-location attacks on what curious
nodes observe, and cross-check Monte Carlo estimates against closed-form
privacy and spreading-time formulas.
"""

__version__ = "0.1.0"

from .adversary import (
    AttackOutcome,
    map_attack,
    multi_rumor_attack,
    observe,
    observe_timed,
    silence_attack,
    silence_window,
)
from .bounds import (
    MeanDynamics,
    PrivacyReport,
    mean_fixed_point,
    optimal_c,
    optimal_delta,
    param_c,
    param_delta_bound,
    param_delta_exact,
    source_disclosure_prob,
    spreading_round_bound,
    strong_adversary_bounds,
)
from .core import (
    ExecutionTrace,
    GossipConfig,
    ObservedSequence,
    RoundTrace,
    default_step_cap,
    spawn_stream,
    split_stream,
)
from .estimators import (
    EstimateResult,
    EventSpec,
    MapAttackSpec,
    MultiRumorAttackSpec,
    SilenceAttackSpec,
    SpreadingSummary,
    estimate_attack_precision,
    estimate_dp_gap,
    estimate_event,
    estimate_events,
    estimate_source_disclosure,
    estimate_spreading,
)
from .protocols import run_sync, run_trace

__all__ = [
    "AttackOutcome",
    "EstimateResult",
    "EventSpec",
    "ExecutionTrace",
    "GossipConfig",
    "MapAttackSpec",
    "MeanDynamics",
    "MultiRumorAttackSpec",
    "ObservedSequence",
    "PrivacyReport",
    "RoundTrace",
    "SilenceAttackSpec",
    "SpreadingSummary",
    "default_step_cap",
    "estimate_attack_precision",
    "estimate_dp_gap",
    "estimate_event",
    "estimate_events",
    "estimate_source_disclosure",
    "estimate_spreading",
    "map_attack",
    "mean_fixed_point",
    "multi_rumor_attack",
    "observe",
    "observe_timed",
    "optimal_c",
    "optimal_delta",
    "param_c",
    "param_delta_bound",
    "param_delta_exact",
    "run_sync",
    "run_trace",
    "silence_attack",
    "silence_window",
    "source_disclosure_prob",
    "spawn_stream",
    "split_stream",
    "spreading_round_bound",
    "strong_adversary_bounds",
]

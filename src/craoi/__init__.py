"""Age-optimal opportunistic spectrum access under a collision constraint.

Computes, analyzes, and empirically validates transmission policies for a
slotted secondary device sharing a channel with an unsynchronized primary
user: a truncated CMDP solver, exact closed forms for threshold and
randomized-threshold policies, the throughput-optimal Bernoulli baseline, and
a deterministic Monte-Carlo simulator.
"""

from .analysis import (
    AgeOptimalPolicy,
    SpectralConstants,
    SystemParams,
    age_optimal_policy,
    average_aoi_closed_form,
    average_aoi_series,
    collision_probability,
    lambert_w0,
    mixed_policy_metrics,
    mixed_policy_steady_state,
    optimal_thresholds,
    randomization_mu,
    steady_state,
    theta_1_0,
)
from .baseline import (
    average_aoi_bernoulli,
    bernoulli_steady_state,
    optimal_transmit_probability,
    throughput,
)
from .channel import (
    BUSY,
    IDLE,
    ChannelTransition,
    PuRates,
    convert_collision_budget,
    expected_cycle_length,
    idle_probability,
    slot_transition_matrix,
    transition_matrix_power,
)
from .policies import (
    BernoulliAccessPolicy,
    RandomizedThresholdPolicy,
    TabularPolicy,
    ThresholdPolicy,
)
from .sim import (
    PuTrajectory,
    ReplicatedResult,
    SimConfig,
    SimResult,
    generate_pu_trajectory,
    replicate,
    run_config,
    run_policy,
    split_seed,
)
from .solver import (
    ConstrainedSolution,
    SolvedPolicy,
    TruncatedModel,
    extract_threshold,
    lambda_bisection,
    policy_cost_evaluate,
    rvi_solve,
)

__version__ = "0.1.0"

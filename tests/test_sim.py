"""Simulator tests: determinism, hand-checkable bookkeeping, statistical agreement."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from craoi import (
    BernoulliAccessPolicy,
    PuRates,
    PuTrajectory,
    RandomizedThresholdPolicy,
    SimConfig,
    SystemModel,
    SystemParams,
    TabularPolicy,
    ThresholdPolicy,
    average_aoi_series,
    collision_probability,
    generate_pu_trajectory,
    idle_probability,
    policy_cost_evaluate,
    replicate,
    run_config,
    run_policy,
    split_seed,
)
from craoi.experiments import FIG4_SIM_GAMMAS

from .conftest import oracle_run_policy

CANON = SystemParams(rates=PuRates(0.02, 0.4), phi_s=0.2, eta_s=0.0005)


class TestSplitSeed:
    def test_deterministic(self):
        assert split_seed(42, 3) == split_seed(42, 3)

    def test_distinct_children(self):
        children = {split_seed(42, i) for i in range(1000)}
        assert len(children) == 1000

    def test_range(self):
        for s in (0, 1, 2**63, 2**64 - 1):
            child = split_seed(s, 7)
            assert 0 <= child < 2**64

    def test_documented_rule(self):
        # reproduce the documented splitting rule from scratch
        base, index = 987654321, 5
        z = (base + (index + 1) * 0x9E3779B97F4A7C15) % 2**64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        z = (z ^ (z >> 31)) % 2**64
        assert split_seed(base, index) == z


class TestTrajectory:
    def test_deterministic(self):
        a = generate_pu_trajectory(CANON.rates, 100, seed=9)
        b = generate_pu_trajectory(CANON.rates, 100, seed=9)
        assert np.array_equal(a.durations, b.durations)
        # inverse-CDF sojourns of the seed's uniform stream, idle first
        u = np.random.Generator(np.random.PCG64(9)).random(2)
        assert a.durations[0] == pytest.approx(-math.log1p(-u[0]) / 0.02, rel=1e-12)
        assert a.durations[1] == pytest.approx(-math.log1p(-u[1]) / 0.4, rel=1e-12, abs=0)

    def test_segment_count_and_positivity(self):
        traj = generate_pu_trajectory(CANON.rates, 123, seed=5)
        assert len(traj.durations) == 2 * 123 + 1
        assert np.all(traj.durations > 0)

    def test_empirical_idle_mean(self):
        # idle sojourns (even segments) have mean 1/alpha, busy ones 1/beta
        traj = generate_pu_trajectory(CANON.rates, 100_000, seed=20)
        for segments, mean in ((traj.durations[0::2], 50.0), (traj.durations[1::2], 2.5)):
            se = segments.std(ddof=1) / math.sqrt(len(segments))
            assert abs(segments.mean() - mean) <= 3 * se

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_pu_trajectory(CANON.rates, 0, seed=1)


class TestHandBuiltReplay:
    """Replay over a trajectory with known sojourns, checked by hand.

    Idle on [0, 2.5), busy on [2.5, 3.5), idle on [3.5, 6.5): slots 0 and 1
    are clean idle, slot 2 is idle-sensed with a busy entry inside, slot 3 is
    busy-sensed, slots 4 and 5 are clean idle.
    """

    def _trajectory(self):
        return PuTrajectory(durations=np.array([2.5, 1.0, 3.0]))

    def test_greedy_no_outage(self):
        params = SystemModel(rates=PuRates(0.02, 0.4), phi_s=0.0)
        res = run_policy(self._trajectory(), params, ThresholdPolicy(1), seed=0)
        assert res.slots == 6
        assert res.transmit_count == 5
        assert res.collision_count == 1
        assert res.collision_slots == (2,)
        assert res.success_count == 4
        assert res.idle_sensed_count == 5
        # ages per slot: 1, 1, 1, 2, 3, 1
        assert res.avg_aoi == pytest.approx(9.0 / 6.0)

    def test_never_transmit(self):
        params = SystemModel(rates=PuRates(0.02, 0.4), phi_s=0.0)
        res = run_policy(
            self._trajectory(), params, TabularPolicy((0.0,)), seed=0, age_ceiling=3
        )
        assert res.transmit_count == 0
        assert res.psi_s_hat == 0.0
        assert res.aoi_divergence_flag
        # ages 1..6
        assert res.avg_aoi == pytest.approx(21.0 / 6.0)

    def test_threshold_gates_by_age(self):
        params = SystemModel(rates=PuRates(0.02, 0.4), phi_s=0.0)
        res = run_policy(self._trajectory(), params, ThresholdPolicy(3), seed=0)
        # age reaches 3 at slot 2 (idle, collides), 5 at slot 4 (succeeds),
        # and is back to 1 at slot 5 (below threshold, no transmission)
        assert res.transmit_count == 2
        assert res.collision_count == 1
        assert res.collision_slots == (2,)
        assert res.success_count == 1


class TestIntegerBoundaries:
    """A busy entry exactly at a slot start: that slot is sensed busy, none is prone.

    Idle on [0, 2), busy from 2.0 for 1.0 or 0.5, idle to 6.0: slots 0, 1 and
    3..5 are clean idle, slot 2 is busy-sensed, and slot 1 ends exactly as the
    PU enters busy, so it does not collide.
    """

    @pytest.mark.parametrize("durations", [(2.0, 1.0, 3.0), (2.0, 0.5, 3.5)])
    def test_greedy_no_outage(self, durations):
        traj = PuTrajectory(durations=np.array(durations))
        params = SystemModel(rates=PuRates(0.02, 0.4), phi_s=0.0)
        res = run_policy(traj, params, ThresholdPolicy(1), seed=0)
        assert res.slots == 6
        assert res.success_count == 5
        assert res.transmit_count == 5
        assert res.collision_count == 0
        assert res.collision_slots == ()
        assert res.idle_sensed_count == 5
        # ages per slot: 1, 1, 1, 2, 1, 1
        assert res.avg_aoi == pytest.approx(7.0 / 6.0)


ORACLE_POLICIES = (
    [ThresholdPolicy(g) for g in FIG4_SIM_GAMMAS]
    + [RandomizedThresholdPolicy(gamma1=5, mu=mu) for mu in (0.0, 0.3, 1.0)]
    + [BernoulliAccessPolicy(p0) for p0 in (1.0, 0.5, 0.01)]
    + [TabularPolicy((0.0, 0.7, 1.0, 0.2, 0.0))]
    # a positive run longer than one age, and a dense head before the tail
    + [TabularPolicy((0.0, 0.4, 0.4, 0.4, 1.0)), TabularPolicy((0.001,) * 2000 + (1.0,))]
)


def _policy_id(policy) -> str:
    # a threshold policy's case ids predate its field's rename to gamma1
    if isinstance(policy, ThresholdPolicy):
        return f"ThresholdPolicy(gamma={policy.gamma1})"
    if isinstance(policy, TabularPolicy) and len(policy.probs) > 12:  # a long table by its runs
        runs = [f"({p},) * {len(list(ps))}" for p, ps in itertools.groupby(policy.probs)]
        return f"TabularPolicy({' + '.join(runs)})"
    return repr(policy)


class TestOracleEquivalence:
    """The event-skipping replay equals the slot-by-slot oracle, field for field."""

    @pytest.mark.parametrize("policy", ORACLE_POLICIES, ids=_policy_id)
    @pytest.mark.parametrize("horizon", [7, 20_000, None], ids=["7", "20000", "cycles"])
    def test_matches_oracle(self, policy, horizon):
        traj = generate_pu_trajectory(CANON.rates, 600, seed=8)
        args = (traj, CANON, policy, 17, horizon)
        for age_ceiling in (5, 10**7):
            res = run_policy(*args, age_ceiling=age_ceiling)
            assert res == oracle_run_policy(*args, age_ceiling=age_ceiling)

    @pytest.mark.parametrize(
        "durations,max_slots,message",
        [((0.5,), None, "shorter than one slot"), ((3.0, 1.0, 2.5), 7, "need 7")],
    )
    def test_short_trajectory_rejected_alike(self, durations, max_slots, message):
        traj = PuTrajectory(durations=np.array(durations))
        for replay in (run_policy, oracle_run_policy):
            with pytest.raises(ValueError, match=message):
                replay(traj, CANON, ThresholdPolicy(3), 1, max_slots=max_slots)

    @settings(deadline=None, max_examples=100)
    @given(
        alpha=st.floats(min_value=0.01, max_value=3.0),
        beta=st.floats(min_value=0.01, max_value=3.0),
        phi_s=st.floats(min_value=0.0, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        head=st.lists(st.sampled_from([0.0, 0.05, 0.3, 0.9, 1.0]), min_size=1, max_size=12),
        slots=st.integers(min_value=1, max_value=3_000),
        age_ceiling=st.integers(min_value=1, max_value=50),
    )
    def test_random_tabular_policies(
        self, alpha, beta, phi_s, seed, head, slots, age_ceiling
    ):
        params = SystemModel(rates=PuRates(alpha, beta), phi_s=phi_s)
        n_cycles = int(1.5 * slots / (1.0 / alpha + 1.0 / beta)) + 8
        traj = generate_pu_trajectory(params.rates, n_cycles, seed)
        # a slot horizon when the trajectory covers it, else the whole trajectory
        max_slots = slots if math.floor(traj.boundaries[-1]) >= slots else None
        args = (traj, params, TabularPolicy(tuple(head)), seed)
        kwargs = {"max_slots": max_slots, "age_ceiling": age_ceiling}
        assert run_policy(*args, **kwargs) == oracle_run_policy(*args, **kwargs)


class TestTailAge:
    @pytest.mark.parametrize(
        "policy,tail_age",
        [
            (ThresholdPolicy(7), 7),
            (RandomizedThresholdPolicy(gamma1=7, mu=0.4), 8),
            (BernoulliAccessPolicy(0.3), 1),
            (TabularPolicy((0.0, 0.5, 1.0, 0.25)), 4),
            (RandomizedThresholdPolicy(gamma1=7, mu=1.0), 7),
        ],
    )
    def test_constant_from_tail_age(self, policy, tail_age):
        assert policy.tail_age == tail_age
        p_tail = policy.transmit_probability(tail_age)
        ages = range(tail_age, tail_age + 100)
        assert all(policy.transmit_probability(a) == p_tail for a in ages)


class TestThresholdIsRandomizedAtOne:
    @pytest.mark.parametrize("gamma", FIG4_SIM_GAMMAS)
    def test_same_policy_and_replay(self, gamma):
        threshold, mixed = ThresholdPolicy(gamma), RandomizedThresholdPolicy(gamma, 1.0)
        assert isinstance(threshold, RandomizedThresholdPolicy)
        assert threshold.mu == 1.0
        assert threshold.tail_age == gamma
        ages = range(1, gamma + 3)
        assert [threshold.transmit_probability(a) for a in ages] == [
            mixed.transmit_probability(a) for a in ages
        ]
        policies = [threshold, mixed] + ([BernoulliAccessPolicy(1.0)] if gamma == 1 else [])
        replays = [
            run_config(SimConfig(params=CANON, policy=policy, seed=31 + gamma, slots=20_000))
            for policy in policies
        ]
        # dataclass equality compares every field, collision_slots included
        assert all(res == replays[0] for res in replays[1:])


class TestPolicyValidation:
    @pytest.mark.parametrize("make", [
        lambda gamma: ThresholdPolicy(gamma),
        lambda gamma: RandomizedThresholdPolicy(gamma, 0.5),
    ], ids=["threshold", "randomized"])  # fmt: skip
    def test_threshold_must_be_an_integer(self, make):
        # the replay reads the table up to the tail age with range(), which a
        # fractional threshold would fail deep inside run_config
        for gamma in (2.5, 0, math.inf, math.nan):
            with pytest.raises(ValueError, match="integer"):
                make(gamma)
        for gamma in (np.int64(3), 3.0):
            assert make(gamma).tail_age >= 3

    @pytest.mark.parametrize("make", [
        lambda gamma: ThresholdPolicy(gamma),
        lambda gamma: RandomizedThresholdPolicy(gamma, 0.5),
    ], ids=["threshold", "randomized"])  # fmt: skip
    def test_whole_float_threshold_replays_as_its_int(self, make):
        policy, twin = make(3.0), make(3)
        configs = [SimConfig(params=CANON, policy=p, seed=5, slots=5_000) for p in (policy, twin)]
        assert run_config(configs[0]) == run_config(configs[1])
        assert policy == twin and type(policy.gamma1) is int


class TestRunConfig:
    def test_deterministic(self):
        cfg = SimConfig(params=CANON, policy=ThresholdPolicy(20), seed=77, slots=50_000)
        assert run_config(cfg) == run_config(cfg)

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            SimConfig(params=CANON, policy=ThresholdPolicy(20), seed=1)
        with pytest.raises(ValueError):
            SimConfig(params=CANON, policy=ThresholdPolicy(20), seed=1, slots=10, cycles=10)

    @pytest.mark.parametrize("field,horizon", [("slots", 1_000), ("cycles", 40)])
    def test_whole_float_horizon_replays_as_its_int(self, field, horizon):
        # the replay counts slots and cycles with range() and numpy sizes, which
        # a float horizon would fail deep inside run_config
        make = lambda h: SimConfig(params=CANON, policy=ThresholdPolicy(5), seed=9, **{field: h})
        config, twin = make(float(horizon)), make(horizon)
        assert config == twin and type(getattr(config, field)) is int
        assert run_config(config) == run_config(twin)
        for bad in (2.5, math.nan, 0):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                make(bad)

    def test_slot_horizon_exact(self):
        cfg = SimConfig(params=CANON, policy=ThresholdPolicy(20), seed=3, slots=12_345)
        assert run_config(cfg).slots == 12_345

    @pytest.mark.parametrize("alpha", [709.0, 746.0, 1000.0])
    def test_extreme_pu_rates_replay(self, alpha):
        # the closed form rejects these rates; the replay needs no success
        # probability and still runs: idle sojourns last about 1/alpha, so
        # every idle-sensed transmission collides
        params = SystemModel(rates=PuRates(alpha, 0.4), phi_s=0.2)
        res = run_config(SimConfig(params=params, policy=ThresholdPolicy(1), seed=3, slots=500))
        assert res.slots == 500
        assert res.success_count == 0

    def test_cycle_horizon(self):
        cfg = SimConfig(params=CANON, policy=ThresholdPolicy(20), seed=3, cycles=200)
        res = run_config(cfg)
        assert res.cycles >= 1
        assert res.slots >= 1


class TestReplicate:
    def _config(self):
        return SimConfig(params=CANON, policy=ThresholdPolicy(20), seed=11, slots=20_000)

    def test_single_rep_equals_run_config(self):
        cfg = self._config()
        rep = replicate(cfg, n_reps=1)
        assert rep.results[0] == run_config(cfg)
        assert rep.stderr["avg_aoi"] == 0.0

    def test_parallel_equals_serial(self):
        cfg = self._config()
        serial = replicate(cfg, n_reps=6, n_workers=1)
        parallel = replicate(cfg, n_reps=6, n_workers=3)
        assert serial.results == parallel.results
        assert serial.mean == parallel.mean
        assert serial.stderr == parallel.stderr

    def test_stderr_shrinks_with_reps(self):
        cfg = SimConfig(params=CANON, policy=ThresholdPolicy(20), seed=13, slots=5_000)
        errs = [replicate(cfg, n_reps=n).stderr["avg_aoi"] for n in (4, 16, 64)]
        assert errs[2] < errs[0]
        # roughly 1/sqrt(n): a factor-4 rep increase should at least halve it
        assert errs[2] < errs[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            replicate(self._config(), n_reps=0)
        for bad in (2.5, math.nan):
            with pytest.raises(ValueError, match="n_reps must be an integer"):
                replicate(self._config(), n_reps=bad)

    def test_whole_float_reps_run_as_their_int(self):
        cfg = SimConfig(params=CANON, policy=ThresholdPolicy(20), seed=11, slots=2_000)
        assert replicate(cfg, 2.0) == replicate(cfg, 2)


class TestStatisticalAgreement:
    def test_threshold_policy_matches_analysis(self):
        gamma = 20
        cfg = SimConfig(params=CANON, policy=ThresholdPolicy(gamma), seed=101, slots=100_000)
        rep = replicate(cfg, n_reps=8)
        assert rep.mean["avg_aoi"] == pytest.approx(
            average_aoi_series(gamma, CANON), rel=0.02
        )
        psi = collision_probability(gamma, CANON)
        assert abs(rep.mean["psi_s_hat"] - psi) <= 3 * max(rep.stderr["psi_s_hat"], 1e-6)

    def test_bernoulli_throughput_matches(self):
        p0 = 0.1
        cfg = SimConfig(params=CANON, policy=BernoulliAccessPolicy(p0), seed=55, slots=100_000)
        rep = replicate(cfg, n_reps=8)
        expected = idle_probability(CANON.rates) * p0
        assert abs(rep.mean["throughput_hat"] - expected) <= 3 * max(
            rep.stderr["throughput_hat"], 1e-5
        )

    @pytest.mark.parametrize("policy", [
        BernoulliAccessPolicy(0.5),
        BernoulliAccessPolicy(0.024),
        TabularPolicy((0.0, 0.0, 0.7, 0.2, 1.0)),
        TabularPolicy((0.3, 0.0, 0.0, 0.0, 0.0, 0.9, 0.05)),
    ], ids=["bernoulli-0.5", "bernoulli-0.024", "tabular-rising", "tabular-dip"])  # fmt: skip
    def test_matches_exact_evaluator(self, policy):
        # the evaluator reads the same table as the replay: ages 1..tail_age
        table = [policy.transmit_probability(a) for a in range(1, policy.tail_age + 1)]
        exact_aoi, exact_psi = policy_cost_evaluate(table, CANON)
        rep = replicate(SimConfig(params=CANON, policy=policy, seed=11, slots=100_000), n_reps=10)
        assert rep.mean["avg_aoi"] == pytest.approx(exact_aoi, rel=0.02)
        se = max(rep.stderr["psi_s_hat"], 1e-12)
        assert abs(rep.mean["psi_s_hat"] - exact_psi) <= 3 * se

    def test_randomized_threshold_between_neighbors(self):
        pol = RandomizedThresholdPolicy(gamma1=20, mu=0.5)
        cfg = SimConfig(params=CANON, policy=pol, seed=31, slots=200_000)
        rep = replicate(cfg, n_reps=4)
        lo = average_aoi_series(20, CANON)
        hi = average_aoi_series(21, CANON)
        assert lo - 0.2 < rep.mean["avg_aoi"] < hi + 0.2

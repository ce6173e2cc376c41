"""Simulator tests: determinism, hand-checkable bookkeeping, statistical agreement."""

import math

import numpy as np
import pytest

from craoi import (
    BUSY,
    IDLE,
    BernoulliAccessPolicy,
    PuRates,
    PuTrajectory,
    RandomizedThresholdPolicy,
    SimConfig,
    SystemParams,
    TabularPolicy,
    ThresholdPolicy,
    average_aoi_series,
    collision_probability,
    generate_pu_trajectory,
    replicate,
    run_config,
    run_policy,
    split_seed,
    throughput,
)

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
        assert a.durations[1] == pytest.approx(-math.log1p(-u[1]) / 0.4, rel=1e-12)

    def test_segment_count_and_positivity(self):
        traj = generate_pu_trajectory(CANON.rates, 123, seed=5)
        assert traj.total_cycles == 123
        assert len(traj.durations) == 2 * 123 + 1
        assert np.all(traj.durations > 0)

    def test_occupancy_alternates(self):
        traj = generate_pu_trajectory(CANON.rates, 3, seed=5, initial_occupancy=BUSY)
        assert [traj.occupancy_of_segment(k) for k in range(4)] == [BUSY, IDLE, BUSY, IDLE]

    def test_empirical_idle_mean(self):
        # idle sojourns (even segments) have mean 1/alpha, busy ones 1/beta
        traj = generate_pu_trajectory(CANON.rates, 100_000, seed=20)
        for segments, mean in ((traj.durations[0::2], 50.0), (traj.durations[1::2], 2.5)):
            se = segments.std(ddof=1) / math.sqrt(len(segments))
            assert abs(segments.mean() - mean) <= 3 * se

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_pu_trajectory(CANON.rates, 0, seed=1)
        with pytest.raises(ValueError):
            generate_pu_trajectory(CANON.rates, 5, seed=1, initial_occupancy=3)


class TestHandBuiltReplay:
    """Replay over a trajectory with known sojourns, checked by hand.

    Idle on [0, 2.5), busy on [2.5, 3.5), idle on [3.5, 6.5): slots 0 and 1
    are clean idle, slot 2 is idle-sensed with a busy entry inside, slot 3 is
    busy-sensed, slots 4 and 5 are clean idle.
    """

    def _trajectory(self):
        return PuTrajectory(
            initial_occupancy=IDLE,
            durations=np.array([2.5, 1.0, 3.0]),
            total_cycles=1,
        )

    def test_greedy_no_outage(self):
        params = SystemParams(rates=PuRates(0.02, 0.4), phi_s=0.0, eta_s=0.5)
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
        params = SystemParams(rates=PuRates(0.02, 0.4), phi_s=0.0, eta_s=0.5)
        res = run_policy(
            self._trajectory(), params, TabularPolicy((0.0,)), seed=0, age_ceiling=3
        )
        assert res.transmit_count == 0
        assert res.psi_s_hat == 0.0
        assert res.aoi_divergence_flag
        # ages 1..6
        assert res.avg_aoi == pytest.approx(21.0 / 6.0)

    def test_threshold_gates_by_age(self):
        params = SystemParams(rates=PuRates(0.02, 0.4), phi_s=0.0, eta_s=0.5)
        res = run_policy(self._trajectory(), params, ThresholdPolicy(3), seed=0)
        # age reaches 3 at slot 2 (idle, collides), 5 at slot 4 (succeeds),
        # and is back to 1 at slot 5 (below threshold, no transmission)
        assert res.transmit_count == 2
        assert res.collision_count == 1
        assert res.collision_slots == (2,)
        assert res.success_count == 1


class TestRunConfig:
    def test_deterministic(self):
        cfg = SimConfig(params=CANON, policy=ThresholdPolicy(20), seed=77, slots=50_000)
        assert run_config(cfg) == run_config(cfg)

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            SimConfig(params=CANON, policy=ThresholdPolicy(20), seed=1)
        with pytest.raises(ValueError):
            SimConfig(params=CANON, policy=ThresholdPolicy(20), seed=1, slots=10, cycles=10)

    def test_slot_horizon_exact(self):
        cfg = SimConfig(params=CANON, policy=ThresholdPolicy(20), seed=3, slots=12_345)
        assert run_config(cfg).slots == 12_345

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
        assert abs(rep.mean["throughput_hat"] - throughput(CANON, p0)) <= 3 * max(
            rep.stderr["throughput_hat"], 1e-5
        )

    def test_randomized_threshold_between_neighbors(self):
        pol = RandomizedThresholdPolicy(gamma1=20, mu=0.5)
        cfg = SimConfig(params=CANON, policy=pol, seed=31, slots=200_000)
        rep = replicate(cfg, n_reps=4)
        lo = average_aoi_series(20, CANON)
        hi = average_aoi_series(21, CANON)
        assert lo - 0.2 < rep.mean["avg_aoi"] < hi + 0.2

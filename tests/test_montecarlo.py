import math

import numpy as np
import pytest

from nfsg import (ConfigError, DomainError, InvalidArgumentError, PolarPoint, TrialPlan,
                  conditional_cp_sinr, estimate_ase, estimate_conditional_cp,
                  estimate_network, estimate_overall_cp, realize_sinr, realize_sir,
                  sample_user_arrays, sinr_equivalent_threshold)
from nfsg.montecarlo import conditional_interference_samples

ANCHOR = PolarPoint(0.0, 30.0)


class TestRealize:
    def test_single_user_infinite(self, scn):
        assert realize_sir([0.1], [20.0], scn)[0] == math.inf

    def test_coincident_users(self, scn):
        sir = realize_sir([0.1, 0.1], [20.0, 20.0], scn)
        assert np.allclose(sir, 1.0, atol=1e-9)

    def test_exact_distance_cross_validation(self, scn, rng):
        (theta,), (r,) = sample_user_arrays(scn.sector, 15, 1, rng)
        i_fresnel = 1.0 / realize_sir(theta, r, scn)
        i_raw = 1.0 / realize_sir(theta, r, scn, exact_distances=True)
        assert np.max(np.abs(i_fresnel - i_raw)) < 2e-2

    def test_sinr_reduces_to_sir(self, scn, rng):
        (theta,), (r,) = sample_user_arrays(scn.sector, 8, 1, rng)
        assert np.array_equal(realize_sir(theta, r, scn), realize_sinr(theta, r, scn))

    def test_sinr_noise_only(self, scn):
        noisy = scn.with_(noise_power=1e-11)
        sinr = realize_sinr([0.0], [50.0], noisy)[0]
        expected = (noisy.tx_power * noisy.array.n_antennas * noisy.ref_pathloss
                    * 50.0 ** -2.0) / (noisy.n_active * noisy.noise_power)
        assert sinr == pytest.approx(expected)

    def test_sinr_below_sir(self, scn, rng):
        noisy = scn.with_(noise_power=1e-12)
        (theta,), (r,) = sample_user_arrays(scn.sector, 10, 1, rng)
        assert np.all(realize_sinr(theta, r, noisy) <= realize_sir(theta, r, noisy))


class TestDeterminism:
    def test_identical_plans(self, scn):
        plan = TrialPlan(n_trials=20_000, root_seed=99, scenario=scn)
        a = estimate_overall_cp(plan, [10.0, 100.0], 3)
        b = estimate_overall_cp(plan, [10.0, 100.0], 3)
        assert a == b

    def test_worker_count_invariance(self, scn, monkeypatch):
        # the second plan's 1000-trial blocks are not a multiple of the
        # kernel's batch, and its last block is partly filled
        plans = [(TrialPlan(n_trials=20_000, root_seed=42, scenario=scn), "4"),
                 (TrialPlan(n_trials=2500, root_seed=7, scenario=scn,
                            block_size=1000), "2")]
        taus = [1.0, 10.0, 100.0]
        for plan, threads in plans:
            monkeypatch.setenv("NFSG_THREADS", "1")
            serial_cp, serial_ase = estimate_network(plan, taus)
            monkeypatch.setenv("NFSG_THREADS", threads)
            cp, ase = estimate_network(plan, taus)
            assert cp == serial_cp
            assert ase == serial_ase

    @pytest.mark.parametrize("value", ["abc", "0", "-2"])
    def test_bad_thread_count_rejected(self, scn, monkeypatch, value):
        monkeypatch.setenv("NFSG_THREADS", value)
        plan = TrialPlan(n_trials=16, root_seed=1, scenario=scn, block_size=8)
        with pytest.raises(ConfigError, match="NFSG_THREADS"):
            estimate_overall_cp(plan, [10.0], 1)

    def test_block_structure_part_of_plan(self, scn):
        # each block draws its own stream, so the block size changes the draws
        a = TrialPlan(n_trials=1000, root_seed=1, scenario=scn)
        b = TrialPlan(n_trials=1000, root_seed=1, scenario=scn, block_size=128)
        assert a != b
        draws_a = conditional_interference_samples(a, 3, ANCHOR)
        draws_b = conditional_interference_samples(b, 3, ANCHOR)
        assert draws_a.shape == draws_b.shape == (1000,)
        assert not np.array_equal(draws_a, draws_b)
        assert np.array_equal(conditional_interference_samples(a, 3, ANCHOR), draws_a)


class TestEstimators:
    def test_single_user_covered(self, scn):
        plan = TrialPlan(n_trials=64, root_seed=0, scenario=scn.with_(n_active=1))
        for est in estimate_overall_cp(plan, [1.0, 1e6], 1):
            assert est.value == 1.0 and est.std_error == 0.0

    def test_single_user_pays_noise(self, scn):
        # SINR coverage is the SIR coverage at the equivalent threshold. The
        # noise term alone exceeds the 30 dB budget at 100 m, which leaves
        # no threshold to meet; at -10 dB a lone user is covered for sure
        one = scn.with_(n_active=1, noise_power=1e-6)
        plan = TrialPlan(n_trials=64, root_seed=0, scenario=one)
        assert sinr_equivalent_threshold(1e3, 100.0, one) == math.inf
        tau_eq = sinr_equivalent_threshold(0.1, 100.0, one)
        est = estimate_conditional_cp(plan, 1, PolarPoint(0.0, 100.0),
                                      [tau_eq, math.inf])
        assert [(e.value, e.std_error) for e in est] == [(1.0, 0.0), (0.0, 0.0)]
        assert conditional_cp_sinr(1e3, 0.0, 100.0, 1, one, "mlap") == 0.0
        assert conditional_cp_sinr(0.1, 0.0, 100.0, 1, one, "mlap") == 1.0

    @pytest.mark.parametrize("tau", [-0.5, -2.0, 0.0, math.nan, -math.inf])
    @pytest.mark.parametrize("estimator", ["network", "conditional"])
    def test_threshold_must_be_positive(self, scn, estimator, tau):
        # as in the analytic routes; +inf stays a valid conditional threshold
        plan = TrialPlan(n_trials=64, root_seed=0, scenario=scn)
        run = {"network": lambda taus: estimate_network(plan, taus),
               "conditional": lambda taus: estimate_conditional_cp(plan, 3, ANCHOR, taus)}
        with pytest.raises(DomainError, match="tau must be positive"):
            run[estimator]([10.0, tau])
        assert estimate_conditional_cp(plan, 3, ANCHOR, [math.inf])[0].value == 0.0

    def test_single_user_anchor_checked(self, scn):
        plan = TrialPlan(n_trials=64, root_seed=0, scenario=scn.with_(n_active=1))
        with pytest.raises(InvalidArgumentError):
            estimate_conditional_cp(plan, 1, PolarPoint(3.0, 500.0), [1.0])

    def test_kappa_validated(self, scn):
        plan = TrialPlan(n_trials=64, root_seed=0, scenario=scn)
        with pytest.raises(InvalidArgumentError):
            estimate_overall_cp(plan, [1.0], 0)

    def test_plan_validated(self, scn):
        with pytest.raises(InvalidArgumentError):
            TrialPlan(n_trials=0, root_seed=0, scenario=scn)

    @pytest.mark.parametrize("n_trials,block_size", [(0, 8192), (64, 0)])
    def test_plan_sizes_validated(self, scn, n_trials, block_size):
        with pytest.raises(InvalidArgumentError):
            TrialPlan(n_trials=n_trials, root_seed=0, scenario=scn, block_size=block_size)

    def test_clt_scaling(self, scn):
        tau = [100.0]
        se1 = estimate_overall_cp(
            TrialPlan(n_trials=8_000, root_seed=3, scenario=scn), tau, 3)[0].std_error
        se2 = estimate_overall_cp(
            TrialPlan(n_trials=16_000, root_seed=3, scenario=scn), tau, 3)[0].std_error
        ratio = se2 / se1
        assert abs(ratio - 1.0 / math.sqrt(2.0)) < 0.2 / math.sqrt(2.0)

    def test_conditional_curve_shape(self, scn):
        plan = TrialPlan(n_trials=20_000, root_seed=8, scenario=scn)
        taus = [10 ** (d / 10) for d in (0, 10, 20, 30, 40)]
        est = estimate_conditional_cp(plan, 3, ANCHOR, taus)
        vals = [e.value for e in est]
        assert vals[0] >= 0.9  # reliable at 0 dB for the near-in user
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_quantized_plateau_overstates_true_tail(self, scn):
        # Beyond every retained level the quantized route freezes at the
        # all-zeros probability while the true pattern keeps accumulating
        # small gains, so the frozen value bounds the simulated coverage from
        # above (measured: 0.019 true vs 0.340 frozen at twice the freeze
        # threshold for the reference user).
        from nfsg import level_probabilities, mlap_levels, tau_star
        levels = mlap_levels(scn.array, scn.mlap, ANCHOR)
        p_in, p_out = level_probabilities(ANCHOR.theta, ANCHOR.r, 3, scn)
        plateau = p_in[-1] ** 2 * p_out[-1] ** 12
        plan = TrialPlan(n_trials=30_000, root_seed=12, scenario=scn)
        est = estimate_conditional_cp(plan, 3, ANCHOR, [tau_star(levels) * 2.0])[0]
        assert est.value <= plateau + 3.0 * est.std_error

    def test_per_user_near_uniformity(self, scn):
        plan = TrialPlan(n_trials=10_000, root_seed=21, scenario=scn)
        cp, _ = estimate_network(plan, [10.0])
        vals = [cp[k][0].value for k in range(scn.n_active)]
        assert max(vals) - min(vals) <= 0.1

    def test_network_and_ase_consistent(self, scn):
        plan = TrialPlan(n_trials=5_000, root_seed=33, scenario=scn)
        taus = [10.0, 100.0]
        cp, ase = estimate_network(plan, taus)
        const = scn.sector.n_sectors / (math.pi * scn.sector.cell_radius**2)
        for i, tau in enumerate(taus):
            ref = const * math.log2(1 + tau) * sum(cp[k][i].value
                                                   for k in range(scn.n_active))
            assert ase[i].value == pytest.approx(ref, rel=1e-12)

    def test_estimate_ase_matches_network(self, scn):
        plan = TrialPlan(n_trials=2_000, root_seed=4, scenario=scn)
        assert estimate_ase(plan, [100.0]) == estimate_network(plan, [100.0])[1]


class TestAgreementWithAnalysis:
    def test_conditional_exact_inside_confidence_interval(self, scn, rng):
        from nfsg import conditional_cp
        plan_trials = 100_000
        anchors = [(3, PolarPoint(0.0, 30.0)),
                   (1, PolarPoint(0.3, 55.0)),
                   (8, PolarPoint(-0.5, 70.0)),
                   (12, PolarPoint(0.8, 110.0)),
                   (15, PolarPoint(-0.9, 130.0))]
        for kappa, anchor in anchors:
            plan = TrialPlan(n_trials=plan_trials, root_seed=1000 + kappa,
                             scenario=scn)
            from nfsg.montecarlo import conditional_interference_samples
            interference = conditional_interference_samples(plan, kappa, anchor)
            for db_val in (5.0, 10.0, 20.0):
                tau = 10 ** (db_val / 10)
                mc = float((interference < 1.0 / tau).mean())
                se = math.sqrt(max(mc * (1 - mc), 1e-12) / plan_trials)
                cp = conditional_cp(tau, anchor.theta, anchor.r, kappa, scn,
                                    "exact")
                assert abs(cp - mc) <= 2.576 * se + 5e-4, (kappa, db_val, cp, mc)

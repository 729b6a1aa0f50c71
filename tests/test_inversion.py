"""Lattice CP evaluator, coverage probabilities, bounds, SINR mapping."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import mlap_network_interference, two_level_sum_cdf
from nfsg import (DomainError, PolarPoint, TrialPlan, conditional_cp,
                  conditional_cp_sinr, conditional_cp_upper, mlap_levels,
                  overall_cp, se_and_ase, sinr_equivalent_threshold, tau_star,
                  thermal_noise_power)
from nfsg.analysis import _conditional_cp_bounds, _lattice_cp, _overall_cp_batch
from nfsg.geometry import sample_user_arrays
from nfsg.montecarlo import conditional_interference_samples

ANCHOR = PolarPoint(0.0, 30.0)
# FFT round-off allowed on either side of an exact probability
ROUNDOFF = 1e-12


def _lattice_brackets(vals, probs, counts, kappa, w):
    """Lattice bounds on P{X_1 + ... + X_counts <= w} for i.i.d. X with
    support vals, split into kappa-1 inner and counts-kappa+1 outer copies,
    against the exact staircase CDF."""
    xs, cdf = two_level_sum_cdf(vals, probs, counts)
    exact = float(np.concatenate([[0.0], cdf])[np.searchsorted(xs, w, side="right")])
    lower, upper = _lattice_cp(w, (vals, probs), (vals, probs), counts + 1,
                               [kappa])
    return float(lower[0, 0]), exact, float(upper[0, 0])


class TestSyntheticInversion:
    def test_two_level_sum_cdf(self):
        # I = X1 + X2, X in {0, a, b}: the lattice bounds must bracket the
        # exact staircase CDF
        a, b = 0.35, 0.8
        probs = np.array([0.55, 0.3, 0.15])
        vals = np.array([0.0, a, b])
        for w in (0.19, 0.5, 0.71, 1.0, 1.4):
            lower, exact, upper = _lattice_brackets(vals, probs, 2, 2, w)
            assert lower - ROUNDOFF <= exact <= upper + ROUNDOFF

    @settings(max_examples=60, deadline=None)
    @given(vals=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
           weights=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
           counts=st.integers(1, 5), kappa_share=st.floats(0.0, 1.0),
           w=st.floats(0.01, 3.0))
    def test_random_sums_bracketed(self, vals, weights, counts, kappa_share, w):
        vals = np.array(vals)
        probs = np.array(weights[:vals.size]) / sum(weights[:vals.size])
        xs, _ = two_level_sum_cdf(vals, probs, counts)
        assume(np.min(np.abs(xs - w)) > 1e-9)  # continuity points only
        kappa = 1 + round(kappa_share * counts)
        lower, exact, upper = _lattice_brackets(vals, probs, counts, kappa, w)
        assert lower - ROUNDOFF <= exact <= upper + ROUNDOFF


class TestConditionalCp:
    def test_no_interferers(self, scn):
        single = scn.with_(n_active=1)
        assert conditional_cp(5.0, 0.0, 30.0, 1, single, "mlap") == 1.0
        assert conditional_cp(5.0, 0.0, 30.0, 1, single, "exact") == 1.0

    def test_tau_positive(self, scn):
        with pytest.raises(DomainError):
            conditional_cp(0.0, 0.0, 30.0, 3, scn)

    def test_monotone_in_tau(self, scn):
        taus = [10 ** (d / 10) for d in (0, 5, 10, 15, 20, 25, 30)]
        cps = [conditional_cp(t, ANCHOR.theta, ANCHOR.r, 3, scn, "mlap")
               for t in taus]
        assert all(a >= b - 1e-9 for a, b in zip(cps, cps[1:]))

    def test_plateau_value(self, scn):
        # above tau* only the all-zero-interference event survives
        from nfsg import level_probabilities
        levels = mlap_levels(scn.array, scn.mlap, ANCHOR)
        probs = level_probabilities(ANCHOR.theta, ANCHOR.r, 3, scn)
        ts = tau_star(levels)
        plateau = probs.p_in[-1] ** 2 * probs.p_out[-1] ** 12
        for factor in (1.5, 3.0, 10.0):
            cp = conditional_cp(ts * factor, ANCHOR.theta, ANCHOR.r, 3, scn, "mlap")
            assert abs(cp - plateau) < 1e-5

    def test_upper_bound_ordering(self, scn, rng):
        for _ in range(15):
            theta = rng.uniform(-1.0, 1.0)
            r = rng.uniform(5.0, 145.0)
            kappa = int(rng.integers(1, scn.n_active + 1))
            tau = 10 ** (rng.uniform(0, 36) / 10)
            mlap = conditional_cp(tau, theta, r, kappa, scn, "mlap")
            upper = conditional_cp_upper(tau, theta, r, kappa, scn)
            assert mlap <= upper + 1e-3

    def test_upper_equals_plateau_beyond_tau_star(self, scn):
        levels = mlap_levels(scn.array, scn.mlap, ANCHOR)
        ts = tau_star(levels)
        for factor in (1.5, 4.0):
            up = conditional_cp_upper(ts * factor, ANCHOR.theta, ANCHOR.r, 3, scn)
            cp = conditional_cp(ts * factor, ANCHOR.theta, ANCHOR.r, 3, scn, "mlap")
            assert abs(up - cp) < 1e-5

    def test_upper_all_levels_pass(self, scn):
        levels = mlap_levels(scn.array, scn.mlap, ANCHOR)
        tau = 0.9 / max(levels.gains)
        assert conditional_cp_upper(tau, ANCHOR.theta, ANCHOR.r, 3, scn) == 1.0

    def test_exact_against_sampling(self, scn):
        plan = TrialPlan(n_trials=30_000, root_seed=31, scenario=scn)
        interference = conditional_interference_samples(plan, 3, ANCHOR)
        for db_val in (5.0, 15.0):
            tau = 10 ** (db_val / 10)
            mc = float((interference < 1.0 / tau).mean())
            cp = conditional_cp(tau, ANCHOR.theta, ANCHOR.r, 3, scn, "exact")
            assert abs(cp - mc) < 0.02

    @settings(max_examples=40, deadline=None)
    @given(theta_share=st.floats(-0.99, 0.99), r=st.floats(1.0, 149.0),
           kappa=st.integers(1, 15), db_val=st.floats(0.0, 40.0),
           step_db=st.floats(0.1, 10.0))
    def test_mlap_bounds_across_routes(self, scn, theta_share, r, kappa, db_val,
                                       step_db):
        theta = theta_share * scn.sector.half_width
        tau = 10 ** (db_val / 10)
        lower, upper = _conditional_cp_bounds(tau, theta, r, kappa, scn, "mlap")
        assert 0.0 <= lower <= upper + ROUNDOFF and upper <= 1.0
        mid = conditional_cp(tau, theta, r, kappa, scn, "mlap")
        closed = conditional_cp_upper(tau, theta, r, kappa, scn)
        assert mid <= closed + 0.5 * (upper - lower) + ROUNDOFF
        larger = 10 ** ((db_val + step_db) / 10)
        lower_next, _ = _conditional_cp_bounds(larger, theta, r, kappa, scn, "mlap")
        assert lower_next <= upper + ROUNDOFF


class TestSinr:
    def test_zero_noise_identity(self, scn):
        assert sinr_equivalent_threshold(7.0, 30.0, scn) == 7.0
        a = conditional_cp(100.0, ANCHOR.theta, ANCHOR.r, 3, scn, "mlap")
        b = conditional_cp_sinr(100.0, ANCHOR.theta, ANCHOR.r, 3, scn, "mlap")
        assert a == b  # identical code path when noise is zero

    def test_infeasible(self, scn):
        noisy = scn.with_(noise_power=1.0)  # 1 W of noise: budget hopeless
        assert sinr_equivalent_threshold(10.0, 140.0, noisy) is None
        assert conditional_cp_sinr(10.0, 0.0, 140.0, 3, noisy, "mlap") == 0.0

    def test_thermal_model_negligible_at_close_range(self, scn):
        noisy = scn.with_(noise_power=thermal_noise_power(200e6, 10.0))
        for db_val in (10.0, 20.0, 30.0):
            tau = 10 ** (db_val / 10)
            sir = conditional_cp(tau, ANCHOR.theta, ANCHOR.r, 3, noisy, "mlap")
            sinr = conditional_cp_sinr(tau, ANCHOR.theta, ANCHOR.r, 3, noisy, "mlap")
            assert abs(sir - sinr) <= 0.01


class TestOverall:
    def test_single_user(self, scn):
        assert overall_cp(10.0, 1, scn.with_(n_active=1), "mlap") == 1.0

    def test_monotone_in_tau(self, scn):
        for mode in ("mlap", "upper"):
            cps = [overall_cp(10 ** (d / 10), 3, scn, mode)
                   for d in (5.0, 15.0, 25.0, 35.0)]
            assert all(a >= b - 1e-9 for a, b in zip(cps, cps[1:]))
            assert all(0.0 <= c <= 1.0 for c in cps)

    def test_upper_dominates(self, scn):
        for d in (10.0, 20.0, 30.0):
            tau = 10 ** (d / 10)
            assert overall_cp(tau, 3, scn, "upper") >= \
                overall_cp(tau, 3, scn, "mlap") - 1e-3

    def test_batch_matches_model_sampling(self, scn, rng):
        # oracle: direct simulation of the quantized model over fresh sets
        nt = 30_000
        theta, r = sample_user_arrays(scn.sector, scn.n_active, nt, rng)
        interference = mlap_network_interference(scn, theta, r)
        tau = 100.0
        cps = _overall_cp_batch(tau, scn, "mlap", range(1, scn.n_active + 1))
        mc = (interference < 1.0 / tau).mean(axis=0)
        assert np.max(np.abs(cps - mc)) < 0.012

    def test_se_and_ase(self, scn):
        tau = 100.0
        se, ase = se_and_ase(tau, scn, "mlap")
        assert se.shape == (scn.n_active,)
        assert np.all(se <= math.log2(1 + tau))
        ref = (scn.sector.n_sectors / (math.pi * scn.sector.cell_radius**2)
               * se.sum())
        assert ase == pytest.approx(ref)

    def test_ase_vanishes_at_tiny_tau(self, scn):
        _, ase = se_and_ase(1e-9, scn, "upper")
        assert ase < 1e-7

    def test_exact_mode_smoke(self):
        # exact overall on a small array stays tractable and bounded
        from nfsg import ArrayConfig, MlapConfig, ScenarioConfig, SectorGeometry
        small = ScenarioConfig(
            array=ArrayConfig(n_antennas=13, carrier_freq=28e9),
            sector=SectorGeometry(3, 30.0, 30.0),
            n_active=3, pathloss_exponent=2.0, tx_power=1.0, noise_power=0.0,
            mlap=MlapConfig(n_levels=3))
        cp = overall_cp(3.0, 2, small, "exact")
        assert 0.0 <= cp <= 1.0

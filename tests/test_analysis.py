"""Level probabilities and Laplace transforms against sampling oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import mlap_cross_gains, mlap_interference_on_anchor
from nfsg import (DegenerateSupportError, DomainError, InvalidArgumentError,
                  MlapConfig, NumericFailureError, PolarPoint, TrialPlan, analysis,
                  conditional_cp, laplace, level_probabilities, mlap_levels, tau_star)
from nfsg.analysis import _GRID_T_RESOLVE
from nfsg.geometry import sample_conditional_arrays
from nfsg.montecarlo import conditional_interference_samples
from nfsg.pattern import mlap_level_index

ANCHOR = PolarPoint(0.0, 30.0)


class TestLevelProbabilities:
    def test_total_probability(self, scn, rng):
        for _ in range(100):
            theta = rng.uniform(-scn.sector.half_width, scn.sector.half_width)
            r = rng.uniform(0.5, 149.5)
            kappa = int(rng.integers(1, scn.n_active + 1))
            for p in level_probabilities(theta, r, kappa, scn):
                assert abs(p.sum() - 1.0) < 1e-9
                assert np.all((0.0 <= p) & (p <= 1.0))

    def test_sidelobe_bands_side_independent(self, scn, rng):
        for _ in range(20):
            theta = rng.uniform(-1.0, 1.0)
            r = rng.uniform(5.0, 145.0)
            p_in, p_out = level_probabilities(theta, r, 5, scn)
            for m in range(2, scn.mlap.n_levels + 1):
                assert p_in[m] == p_out[m]

    # M=1 has no sidelobe band and M=128 = N/2 has every one
    @pytest.mark.parametrize("n_levels", [1, 10, 128])
    def test_bucketed_frequencies(self, scn, rng, n_levels):
        scn = scn.with_(mlap=MlapConfig(n_levels, scn.mlap.beta_gamma, scn.mlap.delta))
        kappa = 3
        p_in, p_out = level_probabilities(ANCHOR.theta, ANCHOR.r, kappa, scn)
        levels = mlap_levels(scn.array, scn.mlap, ANCHOR)
        n = 200_000
        theta, r = sample_conditional_arrays(kappa, ANCHOR, scn.n_active,
                                             scn.sector, n, rng)
        for cols, p in ((slice(0, kappa - 1), p_in), (slice(kappa, None), p_out)):
            idx = mlap_level_index(scn.array, levels,
                                   theta[:, cols].ravel(), r[:, cols].ravel())
            freq = np.bincount(idx, minlength=p.size) / idx.size
            assert np.max(np.abs(freq - p)) < 0.006

    def test_cell_edge_parks_outer_side(self, scn):
        # the last user on the cell edge has no outer law and needs none
        m = scn.mlap.n_levels
        p_in, p_out = level_probabilities(0.0, scn.sector.cell_radius, scn.n_active, scn)
        assert p_out.tolist() == [0.0] * (m + 1) + [1.0]
        assert abs(p_in.sum() - 1.0) < 1e-9
        assert np.all((0.0 <= p_in) & (p_in <= 1.0))

    def test_degenerate_errors(self, scn):
        with pytest.raises(DegenerateSupportError):
            level_probabilities(0.0, 0.0, 2, scn)
        with pytest.raises(DegenerateSupportError):
            level_probabilities(0.0, scn.sector.cell_radius, 2, scn)

    def test_outside_sector(self, scn):
        with pytest.raises(DomainError):
            level_probabilities(2.0, 30.0, 3, scn)


class TestTauStar:
    def test_reciprocal_of_min_gain(self, scn):
        levels = mlap_levels(scn.array, scn.mlap, ANCHOR)
        assert tau_star(levels) == pytest.approx(1.0 / min(levels.gains[:-1]))

    def test_nonincreasing_in_level_count(self, scn):
        prev = None
        for m in (1, 3, 6, 10):
            lv = mlap_levels(scn.array, MlapConfig(n_levels=m), ANCHOR)
            ts = tau_star(lv)
            if prev is not None:
                assert ts >= prev  # more levels -> smaller min gain -> larger tau*
            prev = ts


def _small(scn):
    """13 antennas and 6 lobes: exact side grids in well under a second."""
    return scn.with_(array=replace(scn.array, n_antennas=13),
                     mlap=replace(scn.mlap, n_levels=6))


def _check_cell_edge_user(scn, mode):
    # the last user on the cell edge has no outer interferer; its outer law
    # sits on gain 0, so the transform is the inner factor alone, which the
    # same point gives with two users
    theta, rc, n = 0.2, scn.sector.cell_radius, scn.n_active
    pair = scn.with_(n_active=2)
    for s in (0.5, 3.0, 10.0 + 2.0j, -40.0j):
        val = laplace(s, theta, rc, n, scn, mode)
        inner = laplace(s, theta, rc, 2, pair, mode)
        assert np.isfinite(val) and abs(val) <= 1.0 + 1e-12
        assert val == pytest.approx(inner ** (n - 1), rel=1e-12, abs=1e-300)


class TestLaplaceMlap:
    def test_at_origin(self, scn):
        assert laplace(0.0, ANCHOR.theta, ANCHOR.r, 3, scn) == 1.0

    def test_all_mass_on_zero_level(self, scn):
        _check_cell_edge_user(scn, "mlap")

    def test_lone_user_has_no_interference(self, scn):
        assert laplace(2.0, ANCHOR.theta, ANCHOR.r, 1, scn.with_(n_active=1)) == 1.0

    def test_rejects_bad_inputs(self, scn):
        for kappa in (0, 20):
            with pytest.raises(InvalidArgumentError):
                laplace(0.5, ANCHOR.theta, ANCHOR.r, kappa, scn)
        # a CP bound, not a law, and an unknown route
        for mode in ("upper", "bogus"):
            with pytest.raises(InvalidArgumentError):
                laplace(0.5, ANCHOR.theta, ANCHOR.r, 3, scn, mode)

    def test_real_transform_shape(self, scn):
        vals = [laplace(s, ANCHOR.theta, ANCHOR.r, 3, scn).real
                for s in (0.1, 0.5, 1.0, 3.0, 10.0, 100.0)]
        assert all(0.0 < v <= 1.0 for v in vals)
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_against_model_sampling(self, scn, rng):
        kappa = 3
        n = 300_000
        theta, r = sample_conditional_arrays(kappa, ANCHOR, scn.n_active,
                                             scn.sector, n, rng)
        interference = mlap_interference_on_anchor(scn, ANCHOR, theta, r, kappa)
        for s in (0.7, 2.0):
            x = np.exp(-s * interference)
            mc, se = x.mean(), x.std(ddof=1) / math.sqrt(n)
            val = laplace(s, ANCHOR.theta, ANCHOR.r, kappa, scn).real
            assert abs(val - mc) < 3 * se


class TestLaplaceExact:
    def test_at_origin(self, scn):
        assert laplace(0.0, ANCHOR.theta, ANCHOR.r, 3, scn, "exact") == 1.0

    def test_all_mass_on_zero_level(self, scn):
        _check_cell_edge_user(_small(scn), "exact")

    def test_single_user(self, scn):
        single = scn.with_(n_active=1)
        for s in (0.0, 1.0, 2.0 - 1.0j):
            assert laplace(s, ANCHOR.theta, ANCHOR.r, 1, single, "exact") == 1.0

    def test_checks_before_grid_range(self, scn):
        small = _small(scn)
        far = -1j * 200.0 * _GRID_T_RESOLVE
        with pytest.raises(NumericFailureError):
            laplace(far, ANCHOR.theta, 20.0, 2, small, "exact")
        # a bad order is an argument error whatever s is
        for kappa in (0, small.n_active + 1):
            with pytest.raises(InvalidArgumentError):
                laplace(far, ANCHOR.theta, 20.0, kappa, small, "exact")

    def test_real_value_against_sampling(self, scn):
        # oracle: E[exp(-I)] over 1e6 conditioned draws of the exact model
        plan = TrialPlan(n_trials=1_000_000, root_seed=202, scenario=scn)
        interference = conditional_interference_samples(plan, 3, ANCHOR)
        x = np.exp(-interference)
        mc, se = float(x.mean()), float(x.std(ddof=1)) / math.sqrt(x.size)
        val = laplace(1.0, ANCHOR.theta, ANCHOR.r, 3, scn, "exact").real
        assert abs(val - mc) < 3 * se

    def test_cf_at_large_t_matches_sampling(self, scn):
        plan = TrialPlan(n_trials=200_000, root_seed=7, scenario=scn)
        interference = conditional_interference_samples(plan, 3, ANCHOR)
        n = interference.size
        for t in (300.0, 3000.0):
            mc = np.exp(1j * t * interference).mean()
            val = laplace(-1j * t, ANCHOR.theta, ANCHOR.r, 3, scn, "exact")
            assert abs(val - mc) < 4.0 / math.sqrt(n)

    def test_transform_magnitude(self, scn):
        for t in (1.0, 50.0, 400.0):
            val = laplace(-1j * t, ANCHOR.theta, ANCHOR.r, 3, scn, "exact")
            assert abs(val) <= 1.0 + 1e-9


@pytest.mark.parametrize("n_sectors", [2, 3])
@pytest.mark.parametrize("n_antennas", [13, 16])
def test_side_grid_converges(scn, monkeypatch, n_antennas, n_sectors):
    # at n_sectors = 2 the end columns reach v = 1/2, where 1 - 4 v^2 is 0
    # and every distance maps to one beta. The CP midpoint of the default
    # 1023-cell lattice moves by up to 1.4e-4 inside its 8e-3 bracket when
    # the atoms move; 8191 cells keep that rounding out of the comparison.
    monkeypatch.setattr(analysis, "_LATTICE_CELLS", 8191)
    monkeypatch.setattr(analysis, "_NFFT", 2 * 8192)
    small = scn.with_(array=replace(scn.array, n_antennas=n_antennas),
                      sector=replace(scn.sector, n_sectors=n_sectors),
                      mlap=replace(scn.mlap, n_levels=6))
    focals = [(0.3, 20.0), (-0.9, 130.0)]
    taus = [10.0 ** (d / 10.0) for d in (0.0, 10.0, 20.0)]

    def cps():
        analysis._side_grid.cache_clear()
        for theta, r in focals:
            for side in ("inner", "outer"):
                grid = analysis._side_grid(small.array, small.sector, small.mlap, side, theta, r)
                assert abs(grid.w.sum() - 1.0) < 1e-12
                assert np.all(np.isfinite(grid.g)) and np.all(grid.w > 0)
        return np.array([[conditional_cp(t, theta, r, 3, small, "exact") for t in taus]
                         for theta, r in focals])

    try:
        coarse = cps()
        monkeypatch.setattr(analysis, "_FFT_PAD", 2 * analysis._FFT_PAD)
        monkeypatch.setattr(analysis, "_GRID_T_RESOLVE", 2.0 * analysis._GRID_T_RESOLVE)
        fine = cps()
    finally:
        analysis._side_grid.cache_clear()
    assert np.max(np.abs(fine - coarse)) < 1e-4


def test_oracle_matches_library_pattern(scn, rng):
    # the test helper must agree exactly with the library's quantizer before
    # it is trusted as an oracle elsewhere
    from nfsg.pattern import mlap_gain
    tf = rng.uniform(-1.0, 1.0, 2000)
    rf = rng.uniform(1.0, 150.0, 2000)
    to = rng.uniform(-1.0, 1.0, 2000)
    ro = rng.uniform(0.5, 150.0, 2000)
    vec = mlap_cross_gains(scn, tf, rf, to, ro)
    ref = np.empty_like(vec)
    for i in range(tf.size):
        lv = mlap_levels(scn.array, scn.mlap, PolarPoint(tf[i], rf[i]))
        ref[i] = mlap_gain(scn.array, lv, to[i], ro[i])
    assert np.array_equal(vec, ref)

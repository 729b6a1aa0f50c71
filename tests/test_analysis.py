"""Level probabilities, pinned-user checks and the exact side grids against
sampling and reference oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import ks_distance, mlap_cross_gains, reference_side_grid
from nfsg import (ArrayConfig, DegenerateSupportError, DomainError, InvalidArgumentError,
                  MlapConfig, PolarPoint, TrialPlan, analysis, conditional_cp,
                  conditional_cp_sinr, estimate_conditional_cp, level_probabilities,
                  mlap_levels, tau_star)
from nfsg.geometry import sample_conditional_arrays
from nfsg.kernels import gain_pairs
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


def _pinned_entry_points(scn):
    """Every route that takes a user pinned at (theta, r) with order kappa,
    as calls f(theta, r, kappa)."""
    plan = TrialPlan(n_trials=16, root_seed=0, scenario=scn)
    sector, n = scn.sector, scn.n_active
    calls = {"level_probabilities": lambda t, r, k: level_probabilities(t, r, k, scn),
             "estimate_conditional_cp": lambda t, r, k: estimate_conditional_cp(
                 plan, k, PolarPoint(t, r), [10.0]),
             "conditional_interference_samples": lambda t, r, k:
                 conditional_interference_samples(plan, k, PolarPoint(t, r)),
             "sample_conditional_arrays": lambda t, r, k: sample_conditional_arrays(
                 k, PolarPoint(t, r), n, sector, 4, np.random.default_rng(0))}
    for mode in ("exact", "mlap", "upper"):
        calls[f"conditional_cp[{mode}]"] = \
            lambda t, r, k, m=mode: conditional_cp(10.0, t, r, k, scn, m)
        calls[f"conditional_cp_sinr[{mode}]"] = \
            lambda t, r, k, m=mode: conditional_cp_sinr(10.0, t, r, k, scn, m)
    return calls


# (theta, r, kappa) on the baseline sector (half-width pi/3, radius 150 m)
# with 15 users, and the one error type that every route raises for it
@pytest.mark.parametrize("theta,r,kappa,error", [
    (0.0, 30.0, 0, InvalidArgumentError),
    (0.0, 30.0, 16, InvalidArgumentError),
    (0.0, 30.0, 2.5, InvalidArgumentError),
    (math.nan, 30.0, 3, DomainError),
    (1.1, 30.0, 3, DomainError),
    (0.0, math.nan, 3, DomainError),
    (0.0, 151.0, 3, DomainError),
    (0.0, 0.0, 3, DegenerateSupportError),
    (0.0, 150.0, 3, DegenerateSupportError),
    (0.0, 0.0, 1, DomainError),
], ids=["kappa0", "kappa_n+1", "kappa_frac", "theta_nan", "theta_out", "r_nan",
        "r_out", "r0_inner", "edge_outer", "r0_lone_focus"])
def test_pinned_user_rejected_alike_by_every_route(scn, theta, r, kappa, error):
    # noise, so that conditional_cp_sinr takes a noise term at r
    raised = {}
    for name, call in _pinned_entry_points(scn.with_(noise_power=1e-10)).items():
        try:
            call(theta, r, kappa)
            raised[name] = None
        except Exception as exc:
            raised[name] = type(exc)
    assert raised == dict.fromkeys(raised, error)


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


@pytest.mark.parametrize("n_sectors", [2, 3])
@pytest.mark.parametrize("n_antennas", [13, 16])
def test_side_grid_converges(scn, monkeypatch, n_antennas, n_sectors):
    # at n_sectors = 2 the end columns reach v = 1/2, where 1 - 4 v^2 is 0
    # and every distance maps to one beta. The CP midpoint of the exact
    # route's 1023-cell lattice (_EXACT_CELLS) moves by up to 1.4e-4 inside
    # its 8e-3 bracket when the atoms move; 8191 cells keep that rounding out
    # of the comparison.
    monkeypatch.setattr(analysis, "_EXACT_CELLS", 8191)
    small = scn.with_(array=replace(scn.array, n_antennas=n_antennas),
                      sector=replace(scn.sector, n_sectors=n_sectors),
                      mlap=replace(scn.mlap, n_levels=6))
    focals = [(0.3, 20.0), (-0.9, 130.0)]
    taus = [10.0 ** (d / 10.0) for d in (0.0, 10.0, 20.0)]

    def cps():
        analysis._side_grid.cache_clear()
        for theta, r in focals:
            for side in ("inner", "outer"):
                g, w = analysis._side_grid(small.array, small.sector, small.mlap, side,
                                           theta, r)
                assert abs(w.sum() - 1.0) < 1e-12
                assert np.all(np.isfinite(g)) and np.all(w > 0)
        laws = [analysis._pinned_laws(theta, r, 3, small, "exact") for theta, r in focals]
        bounds = np.array([[[b[0, 2] for b in analysis._node_cp(1.0 / t, *law,
                                                                 small.n_active, "exact")]
                            for t in taus] for law in laws])
        return bounds.mean(axis=2)

    try:
        coarse = cps()
        monkeypatch.setattr(analysis, "_FFT_PAD", 2 * analysis._FFT_PAD)
        monkeypatch.setattr(analysis, "_GRID_T_RESOLVE", 2.0 * analysis._GRID_T_RESOLVE)
        fine = cps()
    finally:
        analysis._side_grid.cache_clear()
    assert np.max(np.abs(fine - coarse)) < 1e-4


# Draws per focal point, each one inner and one outer interferer. At N = 256
# the side grid's own CDF error above _CLUSTER_ABS reads 3.1e-3 to 3.9e-3 at
# 3.2M draws, at each focal point below and on each side; the bound adds the
# DKW band of these draws at alpha = 1e-3, 4.4e-3. Coarser FFTs read 1.9e-2
# to 2.4e-2 (_FFT_PAD = 16) and 4.3e-2 to 8.1e-2 (_FFT_PAD = 8).
_GRID_DRAWS = 200_000
_GRID_KS = 3.9e-3 + math.sqrt(math.log(2.0 / 1e-3) / (2.0 * _GRID_DRAWS))


def _side_grid_ks(scn, theta, r, rng):
    """KS distance, per side, between the side grid of the beam focused on
    (theta, r) and the gains of single interferers drawn from that side's
    conditional law. It is read only above _CLUSTER_ABS: the grid lumps
    every gain up to that into bin 0."""
    # three users with the middle one pinned: column 0 is one inner draw,
    # column 2 one outer draw
    th, rr = sample_conditional_arrays(2, PolarPoint(theta, r), 3, scn.sector,
                                       _GRID_DRAWS, rng)
    ks = {}
    for side, col in (("inner", 0), ("outer", 2)):
        g, w = analysis._side_grid(scn.array, scn.sector, scn.mlap, side, theta, r)
        cdf = np.append(0.0, np.cumsum(w))
        gains = gain_pairs(th[:, col], rr[:, col], theta, r, scn.array.n_antennas,
                           scn.array.wavelength)
        ks[side] = ks_distance(gains, lambda x: cdf[np.searchsorted(g, x, side="right")],
                               floor=analysis._CLUSTER_ABS)
    return ks


@pytest.mark.parametrize("theta,r", [(0.3, 10.0), (0.2, 60.0), (-0.9, 130.0), (0.0, 30.0)])
def test_side_grid_law_matches_sampled_gains(scn, rng, theta, r):
    ks = _side_grid_ks(scn, theta, r, rng)
    assert max(ks.values()) < _GRID_KS, ks


def test_side_grid_law_check_rejects_coarse_grid(scn, rng, monkeypatch):
    # an FFT 8 times too short, which reads 4.3e-2 or more here
    analysis._side_grid.cache_clear()
    monkeypatch.setattr(analysis, "_FFT_PAD", 8)
    try:
        ks = _side_grid_ks(scn, 0.3, 10.0, rng)
    finally:
        analysis._side_grid.cache_clear()
    assert min(ks.values()) > _GRID_KS, ks


@pytest.mark.parametrize("pad", [64, 128])
@pytest.mark.parametrize("n_antennas", [13, 16, 256])
def test_panel_gains_match_gain_pairs(n_antennas, pad):
    # sample m of the length-P N transform is the gain at alpha = 2 pi m/(P N):
    # m < 0 wraps to m + P N, and the residues above P/2 are read from their
    # mirrors, which the samples near +-P N/2 and around P/2 cross
    pn = pad * n_antennas
    half = pn // 2
    ms = [0, 1, -1, pad // 2, pad // 2 + 1, -(pad // 2), -(pad // 2) - 1, pad - 1,
          pad, -pad, 3 * pad + 5, -(3 * pad + 5), half - 1, half, 1 - half, -half]
    wavelength = ArrayConfig(n_antennas, 28e9).wavelength
    scale = 0.25 * np.pi * wavelength
    twiddle = analysis._twiddles(n_antennas, pad)
    n_sq = (np.arange(n_antennas) - (n_antennas - 1) / 2.0) ** 2
    targets = np.array([0.0, 3e-5, -4e-4, 2.5e-3, -2e-2])
    prod = np.empty((targets.size, *twiddle.shape), complex)
    power = np.empty((targets.size, twiddle.size))
    for m in ms:
        # a beam focused on (-theta, r_b) seen from (theta, r_a), with
        # sin(theta) = m/(P N), has alpha = 2 pi m/(P N); r_a sets beta near
        # its target, and beta is taken as gain_pairs computes it
        theta_a, r_b = np.arcsin(m / pn), 1.0
        s2 = np.sin(theta_a) ** 2
        r_a = 1.0 / (1.0 / r_b - targets / (scale * (1.0 - s2)))
        beta = scale * ((1.0 - s2) / r_b - (1.0 - s2) / r_a)
        got = analysis._panel_gains(beta, n_sq, twiddle, prod, power)[
            :, analysis._gain_index(np.array(m % pn), n_antennas, pad)]
        want = gain_pairs(theta_a, r_a, -theta_a, r_b, n_antennas, wavelength)
        assert np.max(np.abs(got - want)) < 1e-12, m


@pytest.mark.parametrize("n_sectors", [2, 3])
@pytest.mark.parametrize("n_antennas", [13, 16])
def test_side_grid_matches_long_transform(scn, n_antennas, n_sectors):
    small = scn.with_(array=replace(scn.array, n_antennas=n_antennas),
                      sector=replace(scn.sector, n_sectors=n_sectors),
                      mlap=replace(scn.mlap, n_levels=6))
    for theta, r in [(0.3, 20.0), (-0.9, 130.0)]:
        laws = {}
        for side in ("inner", "outer"):
            g, w = analysis._side_grid(small.array, small.sector, small.mlap, side,
                                       theta, r)
            g_ref, w_ref = reference_side_grid(small.array, small.sector, small.mlap, side,
                                               theta, r)
            assert abs(w.sum() - w_ref.sum()) < 1e-14
            assert abs(g @ w - g_ref @ w_ref) < 1e-13 * (g_ref @ w_ref)
            laws[side] = (g[None], w[None]), (g_ref[None], w_ref[None])
        for db in (0.0, 10.0, 20.0):
            thr = 10.0 ** (-db / 10.0)
            got = analysis._node_cp(thr, laws["inner"][0], laws["outer"][0],
                                    small.n_active, "exact")
            want = analysis._node_cp(thr, laws["inner"][1], laws["outer"][1],
                                     small.n_active, "exact")
            for a, b in zip(got, want):
                assert np.max(np.abs(a - b)) < 1e-12


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

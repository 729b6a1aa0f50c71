"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Criterion 9's quantized-route half runs with the lobe count
that m_star gives at the grid's largest threshold (20 lobes at 40 dB). The
quantized pattern gives every lobe beyond the M-th gain exactly 0, so with the
baseline 10 levels most of an interferer's probability sits on that zero level,
every threshold above tau* (about 34 dB) is in the frozen regime of criterion 7,
and the area efficiency peaks at 25 dB instead of 20 dB (see README).
"""

import math
import time

import numpy as np
import pytest

from helpers import ks_distance, mlap_cross_gains
from nfsg import (ArrayConfig, MlapConfig, PolarPoint, TrialPlan, conditional_cp,
                  conditional_cp_sinr, estimate_ase, fresnel_integrals,
                  level_probabilities, m_star, mlap_levels, ordered_distance_dist,
                  se_and_ase, tau_star, thermal_noise_power)
from nfsg.geometry import (conditional_distance_dist, sample_conditional_arrays,
                           sample_user_arrays)
from nfsg.kernels import gain_pairs
from nfsg.montecarlo import conditional_interference_samples
from nfsg.pattern import (angular_gain, beam_depth, distance_gain, exact_gain_many,
                          mlap_level_index_many)


def _report(num, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:2d}: {status}  ({detail}; {time.time()-t0:.1f}s)")
    return ok


def test_01_pattern_peak_and_symmetry(scn, rng):
    t0 = time.time()
    arr = scn.array
    ta = rng.uniform(-1.2, 1.2, 1000)
    ra = rng.uniform(0.5, 500.0, 1000)
    tb = rng.uniform(-1.2, 1.2, 1000)
    rb = rng.uniform(0.5, 500.0, 1000)
    fwd = gain_pairs(ta, ra, tb, rb, arr.n_antennas, arr.wavelength)
    rev = gain_pairs(tb, rb, ta, ra, arr.n_antennas, arr.wavelength)
    sym = float(np.max(np.abs(fwd - rev)))
    peak = float(np.max(np.abs(
        gain_pairs(ta, ra, ta, ra, arr.n_antennas, arr.wavelength) - 1.0)))
    ok = sym < 1e-12 and peak < 1e-12
    assert _report(1, ok, f"sym={sym:.1e} peak={peak:.1e}", t0)


def test_02_fresnel_minus_3db_anchor():
    t0 = time.time()
    c, s = fresnel_integrals(1.3)
    g = (c * c + s * s) / 1.3**2
    ok = 0.47 <= g <= 0.53
    assert _report(2, ok, f"G_D(1.3)={g:.4f}", t0)


def test_03_beam_depth_consistency(scn, rng):
    t0 = time.time()
    arr = scn.array
    bg = scn.mlap.beta_gamma
    c, s = fresnel_integrals(bg)
    target = (c * c + s * s) / bg**2  # 10^(gamma/10) by definition of beta_gamma
    worst = 0.0
    done = 0
    while done < 50:
        theta = rng.uniform(-1.0, 1.0)
        r_f = rng.uniform(2.0, 45.0)
        bd = beam_depth(arr, theta, r_f, bg)
        if bd.unbounded:
            continue
        done += 1
        for edge in (bd.d_left, bd.d_right):
            worst = max(worst, abs(distance_gain(arr, theta, r_f, edge) - target))
    ok = worst < 0.03
    assert _report(3, ok, f"max|gain-level|={worst:.2e} over 50 cases", t0)


def test_04_near_to_far_field_degeneration(scn, rng):
    t0 = time.time()
    arr = scn.array
    r_lo = 100.0 * arr.rayleigh_distance
    worst = 0.0
    for _ in range(200):
        to, tf = rng.uniform(-1.0, 1.0, 2)
        ro, rf = rng.uniform(r_lo, 20 * r_lo, 2)
        g_nf = float(gain_pairs(to, ro, tf, rf, arr.n_antennas, arr.wavelength))
        phi = 0.5 * (math.sin(to) - math.sin(tf))
        worst = max(worst, abs(g_nf - float(angular_gain(arr.n_antennas, phi))))
    ok = worst < 1e-3
    assert _report(4, ok, f"max|exact-ff|={worst:.2e}", t0)


def test_05_level_probabilities(scn, rng):
    t0 = time.time()
    kappa = 3
    anchor = PolarPoint(0.0, 30.0)
    probs = level_probabilities(anchor.theta, anchor.r, kappa, scn)
    sums_ok = (abs(sum(probs.p_in) - 1.0) < 1e-9
               and abs(sum(probs.p_out) - 1.0) < 1e-9)
    levels = mlap_levels(scn.array, scn.mlap, anchor)
    n = 1_000_000
    theta, r = sample_conditional_arrays(kappa, anchor, scn.n_active,
                                         scn.sector, n, rng)
    worst = 0.0
    for cols, p in ((slice(0, kappa - 1), probs.p_in),
                    (slice(kappa, None), probs.p_out)):
        idx = mlap_level_index_many(scn.array, levels,
                                    theta[:, cols].ravel(), r[:, cols].ravel())
        freq = np.bincount(idx, minlength=len(p)) / idx.size
        worst = max(worst, float(np.max(np.abs(freq - np.asarray(p)))))
    ok = sums_ok and worst < 0.003
    assert _report(5, ok, f"sum-to-1 {sums_ok}, max|freq-p|={worst:.5f}", t0)


def test_06_exact_cp_vs_simulation(scn):
    t0 = time.time()
    kappa, anchor = 3, PolarPoint(0.0, 30.0)
    plan = TrialPlan(n_trials=100_000, root_seed=4242, scenario=scn)
    interference = conditional_interference_samples(plan, kappa, anchor)
    worst = 0.0
    details = []
    for db_val in (5.0, 10.0, 20.0):
        tau = 10 ** (db_val / 10)
        mc = float((interference < 1.0 / tau).mean())
        cp = conditional_cp(tau, anchor.theta, anchor.r, kappa, scn, "exact")
        worst = max(worst, abs(cp - mc))
        details.append(f"{db_val:.0f}dB:{cp - mc:+.4f}")
    ok = worst < 0.02
    assert _report(6, ok, "diffs " + " ".join(details), t0)


def test_07_bound_ordering_and_plateau(scn, rng):
    t0 = time.time()
    anchors = [PolarPoint(rng.uniform(-1.0, 1.0), rng.uniform(10.0, 140.0))
               for _ in range(5)]
    triples = []
    for a in anchors:
        for kappa in (1, 5, 15):
            for db_val in (2.0, 5.0, 12.0, 20.0, 26.0, 31.0):
                triples.append((10 ** (db_val / 10), kappa, a))
    # above-freeze triples drive the equality and constancy assertions
    eq_sets = []
    for a in anchors:
        ts = tau_star(mlap_levels(scn.array, scn.mlap, a))
        eq_sets.append((a, ts, [ts * 1.3, ts * 2.0, ts * 3.0]))
        for f in (1.3, 2.0, 3.0):
            triples.append((ts * f, 7, a))
    assert len(triples) >= 100
    worst_violation = -1.0
    for tau, kappa, a in triples:
        cp = conditional_cp(tau, a.theta, a.r, kappa, scn, "mlap")
        up = conditional_cp(tau, a.theta, a.r, kappa, scn, "upper")
        worst_violation = max(worst_violation, cp - up)
    eq_worst = 0.0
    flat_worst = 0.0
    for a, ts, taus in eq_sets:
        cps = [conditional_cp(t, a.theta, a.r, 7, scn, "mlap") for t in taus]
        ups = [conditional_cp(t, a.theta, a.r, 7, scn, "upper") for t in taus]
        eq_worst = max(eq_worst, max(abs(c - u) for c, u in zip(cps, ups)))
        flat_worst = max(flat_worst, max(cps) - min(cps))
    ok = worst_violation <= 1e-3 and eq_worst < 1e-4 and flat_worst < 1e-4
    assert _report(7, ok, f"n={len(triples)} worst(cp-up)={worst_violation:.1e} "
                   f"eq={eq_worst:.1e} flat={flat_worst:.1e}", t0)


def test_08_lobe_count_anchors(scn):
    t0 = time.time()
    got = [m_star(scn.array, scn.mlap, 10 ** (d / 10)).m for d in (5, 20, 30, 35)]
    ok = got == [1, 3, 7, 12]
    assert _report(8, ok, f"m*={got} expected [1, 3, 7, 12]", t0)


def test_09_ase_peak(scn):
    t0 = time.time()
    taus_db = [1e-3, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0]
    taus = [10 ** (d / 10) for d in taus_db]
    # enough lobes that no grid threshold is frozen (see module docstring)
    lobes = m_star(scn.array, scn.mlap, max(taus))
    assert not lobes.saturated
    quantized = scn.with_(mlap=MlapConfig(n_levels=lobes.m,
                                          beta_gamma=scn.mlap.beta_gamma,
                                          delta=scn.mlap.delta))
    mc = [e.value for e in estimate_ase(
        TrialPlan(n_trials=10_000, root_seed=909, scenario=scn), taus)]
    mlap = [se_and_ase(t, quantized, "mlap")[1] for t in taus]
    peak_mc = taus_db[int(np.argmax(mc))]
    peak_mlap = taus_db[int(np.argmax(mlap))]
    ok = peak_mc == 20.0 and peak_mlap == 20.0
    assert _report(9, ok, f"M={lobes.m} argmax mc={peak_mc}dB mlap={peak_mlap}dB "
                   f"(mc 20dB={mc[4]:.5f} vs 25dB={mc[5]:.5f}; "
                   f"mlap 20dB={mlap[4]:.5f} vs 25dB={mlap[5]:.5f})", t0)


def test_10_user_to_antenna_optimum(scn):
    t0 = time.time()
    arr = ArrayConfig(n_antennas=100, carrier_freq=scn.array.carrier_freq)
    grid = [4, 8, 16, 24, 32]
    vals = []
    for na in grid:
        s = scn.with_(array=arr, n_active=na,
                      mlap=MlapConfig(n_levels=min(scn.mlap.n_levels, 50),
                                      beta_gamma=scn.mlap.beta_gamma))
        plan = TrialPlan(n_trials=10_000, root_seed=1717, scenario=s)
        vals.append(estimate_ase(plan, [100.0])[0].value)
    argmax = grid[int(np.argmax(vals))]
    ratio = vals[4] / vals[2]
    ok = argmax == 16 and ratio <= 0.65
    assert _report(10, ok, f"argmax Na={argmax}, ASE(32)/ASE(16)={ratio:.3f}", t0)


def test_11_sinr_reduction(scn):
    t0 = time.time()
    anchor, kappa = PolarPoint(0.0, 30.0), 3
    # zero noise: identical to the SIR route bit for bit
    a = conditional_cp(100.0, anchor.theta, anchor.r, kappa, scn, "mlap")
    b = conditional_cp_sinr(100.0, anchor.theta, anchor.r, kappa, scn, "mlap")
    exact_ok = abs(a - b) <= 1e-12
    noisy = scn.with_(noise_power=thermal_noise_power(200e6, 10.0))
    worst = 0.0
    for db_val in range(0, 41, 5):
        tau = 10 ** (db_val / 10)
        sir = conditional_cp(tau, anchor.theta, anchor.r, kappa, noisy, "mlap")
        sinr = conditional_cp_sinr(tau, anchor.theta, anchor.r, kappa, noisy,
                                   "mlap")
        worst = max(worst, abs(sir - sinr))
    ok = exact_ok and worst <= 0.01
    assert _report(11, ok, f"zero-noise diff={abs(a-b):.1e}, "
                   f"thermal worst |sinr-sir|={worst:.4f}", t0)


def test_12_distribution_suite(scn, rng):
    t0 = time.time()
    sector = scn.sector
    n_samples = 1_000_000
    worst = 0.0
    _, r_sorted = sample_user_arrays(sector, 15, n_samples // 15 + 1, rng)
    for kappa in (1, 3, 8, 15):
        samples = r_sorted[:, kappa - 1]
        ks = ks_distance(samples, lambda x, k=kappa: ordered_distance_dist(
            k, x, 15, sector)[0])
        worst = max(worst, ks)
    anchor = PolarPoint(0.0, 60.0)
    theta, r = sample_conditional_arrays(8, anchor, 15, sector,
                                         n_samples // 7 + 1, rng)
    inner = r[:, :7].ravel()[:n_samples]
    outer = r[:, 8:].ravel()[:n_samples]
    ks_in = ks_distance(inner, lambda x: np.clip((x / 60.0) ** 2, 0, 1))
    ks_out = ks_distance(outer, lambda x: conditional_distance_dist(
        "outer", np.clip(x, 60.0, 150.0), 60.0, sector)[0])
    worst = max(worst, ks_in, ks_out)
    ok = worst < 0.01
    assert _report(12, ok, f"worst KS={worst:.5f} at 1e6 samples", t0)

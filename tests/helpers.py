"""Shared oracle helpers for the test suite.

These deliberately re-derive quantities through independent routes (direct
sampling, quadrature of defining integrals, brute enumeration) so the library
code under test never checks itself against itself.
"""

import math

import numpy as np

from nfsg import analysis
from nfsg.fresnel import fresnel_integrals
from nfsg.geometry import conditional_cdf_extended, spatial_angle_cdf_extended
from nfsg.pattern import ArrayConfig, angular_gain, beam_depth


def fresnel_phase_gain(cfg: ArrayConfig, theta_obs, r_obs, theta_f, r_f):
    """Direct unfolded Fresnel-phase gain |sum_n exp(j(2 pi n phi + c n^2))|^2
    / N^2 over the element offsets, with phi and c as in nfsg.pattern;
    arguments broadcast together."""
    so, sf = np.sin(theta_obs), np.sin(theta_f)
    phi = np.asarray(0.5 * (so - sf))[..., None]
    c = np.asarray(0.25 * np.pi * cfg.wavelength
                   * ((1.0 - sf * sf) / r_f - (1.0 - so * so) / r_obs))[..., None]
    n = cfg.element_offsets
    phase = 2.0 * np.pi * phi * n + c * n * n
    return np.abs(np.exp(1j * phase).sum(axis=-1)) ** 2 / cfg.n_antennas**2


def mlap_cross_gains(scn, theta_f, r_f, theta_o, r_o):
    """Vectorized quantized-pattern gain ghat(observer; focal).

    Re-implements the level construction directly from the defining formulas
    (depth interval, asymptotic floor, mid-lobe levels) for use as a bulk
    Monte Carlo oracle.
    """
    arr, ml = scn.array, scn.mlap
    n = arr.n_antennas
    m = ml.n_levels
    lam = arr.wavelength
    d = arr.spacing
    delta = ml.delta
    theta_f, r_f, theta_o, r_o = np.broadcast_arrays(theta_f, r_f, theta_o, r_o)
    g_shared = np.array(
        [delta / 2.0]
        + [delta / 2.0 * float(angular_gain(n, (2 * i - 1) / (2.0 * n)))
           for i in range(2, m + 1)]
        + [0.0])
    s2f = np.sin(theta_f) ** 2
    a_f = n * n * d * d * (1.0 - s2f) / (2.0 * lam)
    limit = a_f / ml.beta_gamma**2
    d_left = r_f * limit / (limit + r_f)
    with np.errstate(divide="ignore"):
        d_right = np.where(r_f < limit,
                           r_f * limit / np.maximum(limit - r_f, 1e-300), np.inf)
    beta_inf = np.sqrt(a_f / r_f)
    c, s = fresnel_integrals(beta_inf.ravel())
    prof = ((c * c + s * s)
            / np.maximum(beta_inf.ravel(), 1e-300) ** 2).reshape(beta_inf.shape)
    g0 = (delta / 2.0) * np.where(beta_inf < 1e-6, 1.0, prof)
    phi = np.abs(0.5 * (np.sin(theta_o) - np.sin(theta_f)))
    idx = np.ceil(phi * n).astype(int)
    np.clip(idx, 2, m + 1, out=idx)
    out = np.zeros_like(phi)
    mask_side = (phi > 1.0 / n) & (idx <= m)
    out[mask_side] = g_shared[idx[mask_side] - 1]
    main = phi <= 1.0 / n
    inside = main & (r_o > d_left) & (r_o < d_right)
    beyond = main & np.isfinite(d_right) & (r_o >= d_right)
    out[inside] = delta / 2.0
    out[beyond] = g0[beyond]
    return out


def mlap_interference_on_anchor(scn, anchor, theta, r, kappa):
    """Quantized-model interference on the pinned user for conditioned draws
    (theta, r) of shape (n, n_active); the anchor's own pattern is evaluated
    at every interferer location."""
    n = theta.shape[0]
    obs = np.delete(np.arange(scn.n_active), kappa - 1)
    return mlap_cross_gains(scn, np.full((n, 1), anchor.theta),
                            np.full((n, 1), anchor.r),
                            theta[:, obs], r[:, obs]).sum(axis=1)


def mlap_network_interference(scn, theta, r):
    """Quantized-model interference matrix for (trials, n_active) draws."""
    trials, k = theta.shape
    out = np.zeros((trials, k))
    for kk in range(k):
        o = np.delete(np.arange(k), kk)
        out[:, kk] = mlap_cross_gains(scn, theta[:, kk][:, None],
                                      r[:, kk][:, None],
                                      theta[:, o], r[:, o]).sum(axis=1)
    return out


def ks_distance(samples, cdf):
    """Kolmogorov-Smirnov distance between sorted draws and a CDF callable."""
    x = np.sort(np.asarray(samples))
    n = x.size
    f = cdf(x)
    up = np.max(np.arange(1, n + 1) / n - f)
    dn = np.max(f - np.arange(0, n) / n)
    return max(up, dn)


def two_level_sum_cdf(values, probs, counts):
    """Exact CDF of a sum of independent finite discrete variables.

    values/probs describe one variable's support; counts is how many i.i.d.
    copies enter the sum. Returns (atoms, cdf_at_atoms) with the CDF
    right-continuous.
    """
    atoms = {0.0: 1.0}
    for _ in range(counts):
        nxt = {}
        for a, pa in atoms.items():
            for v, pv in zip(values, probs):
                key = a + v
                nxt[key] = nxt.get(key, 0.0) + pa * pv
        atoms = nxt
    xs = np.array(sorted(atoms))
    ps = np.array([atoms[x] for x in xs])
    return xs, np.cumsum(ps)



def reference_side_grid(arr, sec, mlap, side, theta_k, r_k):
    """(g, w) of analysis._side_grid built the long way: one zero-padded
    inverse FFT of length P N per beta node, every cell binned, mass or not.
    The cells, panels and bins are the library's own; only the transform and
    the cell selection differ."""
    depth = beam_depth(arr, theta_k, r_k, mlap.beta_gamma)
    n = arr.n_antennas
    pad = analysis._FFT_PAD
    pn = pad * n
    c = math.pi * arr.wavelength / 4.0
    bound = sec.spatial_angle_bound
    vk = 0.5 * math.sin(theta_k)
    m = np.arange(math.ceil((-bound - vk) * pn - 0.5),
                  math.floor((bound - vk) * pn + 0.5) + 1)
    p_v = np.diff(spatial_angle_cdf_extended(vk + (np.append(m, m[-1] + 1) - 0.5) / pn,
                                             sec))
    v = np.clip(vk + m / pn, -bound, bound)
    cq = c * (1.0 - 4.0 * v * v)
    if side == "inner":
        r_lo = r_k * math.sqrt(analysis._INNER_MASS_TOL)
        y_lo, y_hi, trunc = 1.0 / r_k, 1.0 / r_lo, analysis._INNER_MASS_TOL
    else:
        r_lo = r_k
        y_lo, y_hi, trunc = 1.0 / sec.cell_radius, 1.0 / r_k, 0.0
    focus = c * math.cos(theta_k) ** 2 / r_k
    beta_lo, beta_hi = focus - cq.max() * y_hi, focus - cq.min() * y_lo
    kinks = [focus * (1.0 - r_k / d) for d in (depth.d_left, depth.d_right, r_k)]
    edges = analysis._beta_panels(n, sorted({beta_lo, beta_hi,
                                             *(b for b in kinks if beta_lo < b < beta_hi)}))
    x, wt = np.polynomial.legendre.leggauss(analysis._ORD_BETA)
    cuts = np.append(0.0, np.cumsum(wt)) / wt.sum()
    offsets = np.arange(n) - (n - 1) / 2.0
    log_rel = math.log1p(analysis._CLUSTER_REL)
    n_bins = math.ceil(math.log(1.0 / analysis._CLUSTER_ABS) / log_rel) + 2
    w_sum = np.zeros(n_bins)
    gw_sum = np.zeros(n_bins)
    for lo, hi in zip(edges[:-1], edges[1:]):
        nodes = lo + (hi - lo) * 0.5 * (x + 1.0)
        cell = lo + (hi - lo) * cuts
        cell[0], cell[-1] = lo, hi
        spec = np.fft.ifft(np.exp(1j * nodes[:, None] * offsets**2), pn)[:, m % pn]
        g = (spec.real ** 2 + spec.imag ** 2) * pad**2
        den = focus - cell[:, None]
        r = np.divide(cq, den, out=np.full((cell.size, cq.size), np.inf), where=den > 0)
        w = np.diff(conditional_cdf_extended(side, np.maximum(r, r_lo), r_k, sec),
                    axis=0) * p_v
        bins = np.ceil(np.log(np.maximum(g, analysis._CLUSTER_ABS) / analysis._CLUSTER_ABS)
                       / log_rel)
        bins = np.minimum(bins, n_bins - 1).astype(np.intp).ravel()
        w_sum += np.bincount(bins, w.ravel(), n_bins)
        gw_sum += np.bincount(bins, (g * w).ravel(), n_bins)
    w_sum[0] += trunc
    keep = w_sum > 0
    return gw_sum[keep] / w_sum[keep], w_sum[keep]

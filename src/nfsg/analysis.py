"""Analytical performance metrics.

Coverage probability of user kappa is the CDF of its aggregate beam
interference I at 1/tau,

    CP = P{I <= 1/tau},  I = sum of kappa-1 inner and n_active-kappa outer
                         interferer gains,

where the interferers on each side are conditionally i.i.d. (angle uniform
over the sector, distance from the inner/outer conditional law). Two routes
are implemented:

  exact - G is the Fresnel-phase pattern; each side's gain law is a histogram
          over a lobe-aligned quadrature grid, built once per focal point and
          compressed by clustering nearby gains.
  mlap  - G is the multi-level pattern; each side's gain law is a finite
          mixture of the quantized levels g_i with level-hit probabilities
          p_i from the spatial-angle law and the conditional distance law.

Both routes recover the CDF with one truncated lattice convolution (the
compound-sum technique of Panjer recursion and FFT aggregation). Gains are
nonnegative, so P{I <= 1/tau} depends only on each side's gain law on
[0, 1/tau]: that law is put on the L+1 lattice points k*h, h = 1/(tau*L),
with the mass above 1/tau dropped. Rounding every gain up gives a lower bound
on CP and rounding it down an upper bound. Each side is raised to its power
by FFT convolution truncated to [0, L] after every step, which is exact for
the rounded laws. CP_kappa is then the dot product of the inner power kappa-1
with the reversed cumulative sum of the outer power n_active-kappa. The
public functions return the midpoint of the two bounds. For the exact route
the bound covers the lattice rounding only, not the error of the side-grid
quadrature or of the gain clustering.

laplace_exact and laplace_mlap give the interference Laplace transforms of
the two routes; the CP evaluator does not need them.

The closed-form upper bound replaces each Laplace factor with the
probability that a single interferer's quantized gain stays below 1/tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .errors import (DegenerateSupportError, DomainError, InvalidArgumentError,
                     NumericFailureError)
from .geometry import (PolarPoint, conditional_cdf_extended, ordered_distance_dist,
                       spatial_angle_cdf_extended)
from .pattern import MlapLevels, angular_gain, beam_depth, mlap_levels
from .scenario import ScenarioConfig

@dataclass(frozen=True)
class LevelProbabilities:
    """Per-level hit probabilities for inner and outer interferers."""

    p_in: tuple[float, ...]
    p_out: tuple[float, ...]
    focal: PolarPoint

    def as_arrays(self):
        return np.asarray(self.p_in), np.asarray(self.p_out)


def _check_point_in_sector(theta_k: float, r_k: float, scenario: ScenarioConfig):
    sec = scenario.sector
    if abs(theta_k) > sec.half_width or not 0 <= r_k <= sec.cell_radius:
        raise DomainError("focal point outside the sector")


def _check_kappa(kappa: int, scenario: ScenarioConfig):
    if not 1 <= kappa <= scenario.n_active:
        raise InvalidArgumentError("kappa must be in [1, n_active]")


def _angular_band_masses(theta_k: float, scenario: ScenarioConfig):
    """Spatial-angle mass of the mainlobe band and of each sidelobe band."""
    sec = scenario.sector
    n = scenario.array.n_antennas
    m = scenario.mlap.n_levels
    vk = 0.5 * math.sin(theta_k)

    def band(lo, hi):
        return (spatial_angle_cdf_extended(vk + hi, sec)
                - spatial_angle_cdf_extended(vk + lo, sec))

    a_main = band(-1.0 / n, 1.0 / n)
    a_side = [band((i - 1) / n, i / n) + band(-i / n, -(i - 1) / n)
              for i in range(2, m + 1)]
    return a_main, a_side


def _level_probs_side(theta_k: float, r_k: float, scenario: ScenarioConfig,
                      side: str) -> np.ndarray:
    """Level-hit probabilities for one nonempty conditional side.

    Mainlobe levels combine the spatial-angle mass of the first-null band
    with the conditional radial mass beyond / inside the beam-depth interval;
    sidelobe levels use only the angle bands, so they are side-independent.
    """
    sec = scenario.sector
    a_main, a_side = _angular_band_masses(theta_k, scenario)
    depth = beam_depth(scenario.array, theta_k, r_k, scenario.mlap.beta_gamma)
    if depth.unbounded:
        beyond = 0.0
        inside = 1.0 - conditional_cdf_extended(side, depth.d_left, r_k, sec)
    else:
        f_right = conditional_cdf_extended(side, depth.d_right, r_k, sec)
        beyond = 1.0 - f_right
        inside = f_right - conditional_cdf_extended(side, depth.d_left, r_k, sec)
    p = [a_main * beyond, a_main * inside, *a_side]
    p = [min(max(x, 0.0), 1.0) for x in p]
    p.append(max(0.0, 1.0 - sum(p)))
    return np.asarray(p)


def _level_probs_raw(theta_k: float, r_k: float, scenario: ScenarioConfig):
    """(p_in, p_out) arrays for an interior focal point (0 < r_k < R_c)."""
    return (_level_probs_side(theta_k, r_k, scenario, "inner"),
            _level_probs_side(theta_k, r_k, scenario, "outer"))


def level_probabilities(theta_k: float, r_k: float, kappa: int,
                        scenario: ScenarioConfig) -> LevelProbabilities:
    """Probability that one inner/outer interferer lands on each quantized
    gain level of the beam focused on (theta_k, r_k)."""
    _check_point_in_sector(theta_k, r_k, scenario)
    _check_kappa(kappa, scenario)
    sec = scenario.sector
    m = scenario.mlap.n_levels
    inner_empty = kappa == 1
    outer_empty = kappa == scenario.n_active
    if r_k == 0.0 and not inner_empty:
        raise DegenerateSupportError("inner interferers conditioned on r_k = 0")
    if r_k == sec.cell_radius and not outer_empty:
        raise DegenerateSupportError("outer interferers conditioned on r_k = cell_radius")
    # A side whose conditional law is well defined is always filled in, even
    # when that side holds no interferers (its factor enters with exponent 0);
    # only a boundary r_k leaves a side undefined, and then that side must be
    # empty, so its mass is parked on the zero level.
    parked = np.array([0.0] * (m + 1) + [1.0])
    p_in = parked if r_k == 0.0 else _level_probs_side(theta_k, r_k, scenario, "inner")
    p_out = (parked if r_k == sec.cell_radius
             else _level_probs_side(theta_k, r_k, scenario, "outer"))
    return LevelProbabilities(p_in=tuple(p_in), p_out=tuple(p_out),
                              focal=PolarPoint(theta_k, r_k))


def tau_star(levels: MlapLevels) -> float:
    """Threshold beyond which the quantized-pattern CP freezes:
    1/tau* = min of the retained levels g_0..g_M."""
    return 1.0 / min(levels.gains[:-1])


def laplace_mlap(s: complex, probs: LevelProbabilities, levels: MlapLevels,
                 kappa: int, n_active: int) -> complex:
    """Closed-form interference Laplace transform under the quantized pattern."""
    if n_active <= 1:
        return 1.0 + 0.0j
    g = np.asarray(levels.gains)
    p_in, p_out = probs.as_arrays()
    e = np.exp(-s * g)
    return complex((p_in @ e) ** (kappa - 1) * (p_out @ e) ** (n_active - kappa))


# ---------------------------------------------------------------------------
# Exact-mode interference grid

# cycles of the integrand tolerated per Gauss-Legendre panel
_CYC_ANG = 2.0
_CYC_ANG_MAIN = 5.0
_CYC_RAD = 2.5
_ORD_ANG = 8
_ORD_ANG_MAIN = 16
_ORD_RAD = 8
_INNER_MASS_TOL = 1e-5
_CLUSTER_REL = 1e-3
_CLUSTER_ABS = 1e-7
# how far in t the gain grid fully resolves exp(j t G); beyond it the
# compressed histogram is still measure-accurate and its transform error
# stays incoherently small
_GRID_T_RESOLVE = 640.0


@dataclass(frozen=True)
class _SideGrid:
    g: np.ndarray
    w: np.ndarray


# law of a side that holds no interferers: all mass at gain 0
_EMPTY_SIDE = _SideGrid(g=np.zeros(1), w=np.ones(1))


@lru_cache(maxsize=32)
def _gl_rule(order: int):
    return np.polynomial.legendre.leggauss(order)


def _panel_nodes(edges: np.ndarray, order: int):
    x, wt = _gl_rule(order)
    lo = edges[:-1][:, None]
    hi = edges[1:][:, None]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return (mid + half * x[None, :]).ravel(), (half * wt[None, :]).ravel()


def _angular_nodes(scenario: ScenarioConfig, theta_k: float, t_resolve: float):
    """Lobe-aligned panels in spatial angle, mapped back to physical angle.
    Returns (theta nodes, probability weights) under the uniform sector law."""
    sec = scenario.sector
    n = scenario.array.n_antennas
    bound = sec.spatial_angle_bound
    vk = 0.5 * math.sin(theta_k)
    k_lo = int(math.floor((-bound - vk) * n))
    k_hi = int(math.ceil((bound - vk) * n))
    thetas = []
    weights = []
    for k in range(k_lo, k_hi):
        lo = max(vk + k / n, -bound)
        hi = min(vk + (k + 1) / n, bound)
        if hi <= lo:
            continue
        m_idx = max(abs(k), abs(k + 1))  # lobe order of this band
        if m_idx <= 1:
            amp, cyc, order = 1.0, _CYC_ANG_MAIN, _ORD_ANG_MAIN
        else:
            amp = float(angular_gain(n, (2 * m_idx - 1) / (2.0 * n)))
            cyc, order = _CYC_ANG, _ORD_ANG
        parts = max(1, min(256, int(math.ceil(t_resolve * amp / (2.0 * math.pi * cyc)))))
        edges_v = np.linspace(lo, hi, parts + 1)
        edges_t = np.arcsin(np.clip(2.0 * edges_v, -1.0, 1.0))
        nodes, wts = _panel_nodes(edges_t, order)
        thetas.append(nodes)
        weights.append(wts * (sec.n_sectors / (2.0 * math.pi)))
    return np.concatenate(thetas), np.concatenate(weights)


def _radial_nodes(scenario: ScenarioConfig, side: str, theta_k: float, r_k: float,
                  t_resolve: float):
    """Oscillation-adaptive panels in y = 1/r for one conditional side.

    The quadratic pattern phase is linear in y with slope at most
    (pi*lambda/4)*nmax^2, and the gain amplitude falls off as ~1/(2 beta^2)
    away from the focal distance; both set the local panel width. Returns
    (r nodes, probability weights, truncated probability mass).
    """
    arr = scenario.array
    sec = scenario.sector
    rc = sec.cell_radius
    nmax = (arr.n_antennas - 1) / 2.0
    slope = (math.pi * arr.wavelength / 4.0) * max(nmax * nmax, 1.0)
    a_scale = arr.n_antennas**2 * arr.spacing**2 / (2.0 * arr.wavelength)
    depth = beam_depth(arr, theta_k, r_k, scenario.mlap.beta_gamma)

    if side == "inner":
        y_lo, y_hi = 1.0 / r_k, 1.0 / (r_k * math.sqrt(_INNER_MASS_TOL))
        trunc = _INNER_MASS_TOL

        def dens(r):
            return 2.0 * r / r_k**2
    else:
        y_lo, y_hi = 1.0 / rc, 1.0 / r_k
        trunc = 0.0

        def dens(r):
            return 2.0 * r / (rc**2 - r_k**2)

    def amp(y):
        beta_sq = a_scale * abs(y - 1.0 / r_k)
        return 1.0 if beta_sq <= 2.0 else min(1.0, 0.7 / beta_sq)

    kinks = {y_lo, y_hi}
    for rr in (depth.d_left, depth.d_right, r_k):
        if rr is not None and rr > 0 and y_lo < 1.0 / rr < y_hi:
            kinks.add(1.0 / rr)

    edges = []
    kink_edges = sorted(kinks)
    for seg_lo, seg_hi in zip(kink_edges[:-1], kink_edges[1:]):
        edges.append(seg_lo)
        y = seg_lo
        while y < seg_hi:
            a = amp(y)
            dy = (2.0 * math.pi * _CYC_RAD / slope) / max(
                1.0, t_resolve * a / (2.0 * math.pi * _CYC_RAD))
            y = min(seg_hi, y + dy)
            edges.append(y)
    y_nodes, y_wts = _panel_nodes(np.asarray(edges), _ORD_RAD)
    r_nodes = 1.0 / y_nodes
    weights = y_wts * dens(r_nodes) / (y_nodes * y_nodes)
    return r_nodes, weights, trunc


def _cluster(g: np.ndarray, w: np.ndarray):
    """Mass- and mean-preserving compression of the gain histogram."""
    order = np.argsort(g)
    g = g[order]
    w = w[order]
    limits = np.searchsorted(g, np.maximum(g * (1.0 + _CLUSTER_REL), g + _CLUSTER_ABS),
                             side="right")
    out_g, out_w = [], []
    i = 0
    n = g.size
    while i < n:
        j = max(int(limits[i]), i + 1)
        ww = w[i:j]
        tot = float(ww.sum())
        out_w.append(tot)
        out_g.append(float(g[i:j] @ ww) / tot if tot > 0 else float(g[i]))
        i = j
    return np.asarray(out_g), np.asarray(out_w)


@lru_cache(maxsize=16)
def _side_grid(scenario: ScenarioConfig, side: str, theta_k: float,
               r_k: float) -> _SideGrid:
    th, w_th = _angular_nodes(scenario, theta_k, _GRID_T_RESOLVE)
    r, w_r, trunc = _radial_nodes(scenario, side, theta_k, r_k, _GRID_T_RESOLVE)
    gains = kernels.gain_pairs(
        np.repeat(th, r.size), np.tile(r, th.size), theta_k, r_k,
        scenario.array.n_antennas, scenario.array.wavelength,
    )
    weights = (w_th[:, None] * w_r[None, :]).ravel()
    g, w = _cluster(gains, weights)
    if trunc > 0:
        g = np.concatenate([[0.0], g])
        w = np.concatenate([[trunc], w])
    w = w / w.sum()
    return _SideGrid(g=g, w=w)


def _exact_sides(scenario: ScenarioConfig, theta_k: float, r_k: float,
                 kappa: int) -> tuple[_SideGrid, _SideGrid]:
    """(inner, outer) side grids for the given user order; a side that holds
    no interferers gets the all-zero law and its grid is never built."""
    inner = (_side_grid(scenario, "inner", theta_k, r_k) if kappa > 1
             else _EMPTY_SIDE)
    outer = (_side_grid(scenario, "outer", theta_k, r_k)
             if kappa < scenario.n_active else _EMPTY_SIDE)
    return inner, outer


def laplace_exact(s: complex, theta_k: float, r_k: float, kappa: int,
                  scenario: ScenarioConfig) -> complex:
    """Interference Laplace transform under the exact pattern: the inner
    factor to the (kappa-1) power times the outer factor to the
    (n_active-kappa) power, each a gain-histogram average of exp(-s G)."""
    _check_point_in_sector(theta_k, r_k, scenario)
    _check_kappa(kappa, scenario)
    if scenario.n_active == 1 or s == 0:
        return 1.0 + 0.0j
    if abs(complex(s).imag) > 100.0 * _GRID_T_RESOLVE:
        raise NumericFailureError(
            "|Im s| far beyond the gain grid's validated range",
            complex("nan"), math.inf)
    inner, outer = _exact_sides(scenario, theta_k, r_k, kappa)
    return (complex(np.exp(-s * inner.g) @ inner.w) ** (kappa - 1)
            * complex(np.exp(-s * outer.g) @ outer.w) ** (scenario.n_active - kappa))


# ---------------------------------------------------------------------------
# Truncated lattice convolution

# Lattice cells on [0, 1/tau]. The bound width shrinks as 1/L; 2(L+1)-point
# FFTs keep every product of two truncated laws free of wrap-around.
_LATTICE_CELLS = 1023
_NFFT = 2 * (_LATTICE_CELLS + 1)


def _lattice_spectrum(thr: float, gains, probs, round_up: bool) -> np.ndarray:
    """Spectrum of one interferer's gain law put on the lattice k*thr/L.

    gains and probs broadcast to (rows, m), one law per row. Mass above thr
    is dropped; the rest is rounded up (lower CP bound) or down (upper)."""
    gains, probs = np.broadcast_arrays(np.atleast_2d(gains), np.atleast_2d(probs))
    rows = gains.shape[0]
    x = gains * (_LATTICE_CELLS / thr)
    cell = np.minimum(np.ceil(x) if round_up else np.floor(x), _LATTICE_CELLS)
    keep = gains <= thr
    flat = (np.arange(rows)[:, None] * (_LATTICE_CELLS + 1) + cell.astype(np.int64))
    pmf = np.bincount(flat[keep], weights=probs[keep],
                      minlength=rows * (_LATTICE_CELLS + 1))
    return np.fft.rfft(pmf.reshape(rows, -1), _NFFT)


def _lattice_step(pmf: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """pmf convolved with the law behind spectrum, truncated to [0, L]."""
    out = np.fft.irfft(np.fft.rfft(pmf, _NFFT) * spectrum, _NFFT)
    return np.maximum(out[:, :_LATTICE_CELLS + 1], 0.0)


def _lattice_cp(thr: float, inner, outer, n_active: int, kappas):
    """Lower and upper bounds on P{I <= thr} for each user order in kappas.

    inner and outer are the (gains, probs) laws of one interferer on each
    side, shaped (m,) or (rows, m) for a batch of focal points. The outer
    powers are stored as reversed CDFs; the inner power walks up the kappa
    ladder, so every order costs one dot product. Returns (lower, upper),
    each of shape (rows, len(kappas)).
    """
    kap = np.asarray(kappas, int)
    bounds = []
    for round_up in (True, False):
        f_in = _lattice_spectrum(thr, *inner, round_up)
        f_out = _lattice_spectrum(thr, *outer, round_up)
        rows = f_out.shape[0]
        delta = np.zeros((rows, _LATTICE_CELLS + 1))
        delta[:, 0] = 1.0
        n_out = n_active - int(kap.min())
        cdf_out = np.empty((n_out + 1, rows, _LATTICE_CELLS + 1))
        pmf = delta
        for j in range(n_out + 1):
            if j:
                pmf = _lattice_step(pmf, f_out)
            cdf_out[j] = np.cumsum(pmf, axis=1)[:, ::-1]
        cp = np.empty((rows, kap.size))
        pmf = delta
        for k in range(1, int(kap.max()) + 1):
            if k > 1:
                pmf = _lattice_step(pmf, f_in)
            for q in np.flatnonzero(kap == k):
                cp[:, q] = np.einsum("rl,rl->r", pmf, cdf_out[n_active - k])
        bounds.append(np.clip(cp, 0.0, 1.0))
    return bounds[0], bounds[1]


def _clamp_cp(x: float) -> float:
    return min(1.0, max(0.0, x))


# ---------------------------------------------------------------------------
# Coverage probabilities


def _conditional_cp_bounds(tau: float, theta_k: float, r_k: float, kappa: int,
                           scenario: ScenarioConfig, mode: str) -> tuple[float, float]:
    """Lattice (lower, upper) bounds on the route's CP for user kappa fixed
    at (theta_k, r_k)."""
    if not tau > 0:
        raise DomainError("tau must be positive")
    _check_kappa(kappa, scenario)
    if scenario.n_active == 1:
        return 1.0, 1.0
    _check_point_in_sector(theta_k, r_k, scenario)
    thr = 1.0 / tau
    n_active = scenario.n_active

    if mode == "mlap":
        levels = mlap_levels(scenario.array, scenario.mlap, PolarPoint(theta_k, r_k))
        p_in, p_out = level_probabilities(theta_k, r_k, kappa, scenario).as_arrays()
        g = np.asarray(levels.gains)
        if thr > (n_active - 1) * float(g.max()):
            return 1.0, 1.0
        inner, outer = (g, p_in), (g, p_out)
    elif mode == "exact":
        if thr > n_active - 1:
            return 1.0, 1.0
        inner, outer = ((s.g, s.w) for s in _exact_sides(scenario, theta_k, r_k, kappa))
    else:
        raise InvalidArgumentError("mode must be 'exact' or 'mlap'")
    lower, upper = _lattice_cp(thr, inner, outer, n_active, [kappa])
    return float(lower[0, 0]), float(upper[0, 0])


def conditional_cp(tau: float, theta_k: float, r_k: float, kappa: int,
                   scenario: ScenarioConfig, mode: str = "mlap") -> float:
    """P{SIR > tau} for user kappa fixed at (theta_k, r_k) under the exact or
    quantized pattern: the midpoint of the lattice bounds."""
    lower, upper = _conditional_cp_bounds(tau, theta_k, r_k, kappa, scenario, mode)
    return 0.5 * (lower + upper)


def conditional_cp_upper(tau: float, theta_k: float, r_k: float, kappa: int,
                         scenario: ScenarioConfig) -> float:
    """Closed-form upper bound: every interferer's quantized gain must
    individually stay below 1/tau."""
    if not tau > 0:
        raise DomainError("tau must be positive")
    _check_kappa(kappa, scenario)
    if scenario.n_active == 1:
        return 1.0
    _check_point_in_sector(theta_k, r_k, scenario)
    levels = mlap_levels(scenario.array, scenario.mlap, PolarPoint(theta_k, r_k))
    probs = level_probabilities(theta_k, r_k, kappa, scenario)
    g = np.asarray(levels.gains)
    p_in, p_out = probs.as_arrays()
    ok = g < 1.0 / tau
    return float(p_in[ok].sum() ** (kappa - 1)
                 * p_out[ok].sum() ** (scenario.n_active - kappa))


def sinr_equivalent_threshold(tau: float, r_k: float,
                              scenario: ScenarioConfig) -> float | None:
    """SIR threshold whose coverage equals the SINR coverage at tau.

    With zero noise this is the identity. Returns None when the noise term
    alone exceeds the interference budget (coverage is then exactly 0)."""
    if not tau > 0:
        raise DomainError("tau must be positive")
    if not r_k > 0:
        raise DomainError("r_k must be positive")
    noise = scenario.noise_term(r_k)
    if noise == 0.0:
        return tau
    budget = 1.0 / tau - noise
    if budget <= 0.0:
        return None
    return 1.0 / budget


def conditional_cp_sinr(tau: float, theta_k: float, r_k: float, kappa: int,
                        scenario: ScenarioConfig, mode: str = "mlap") -> float:
    """SINR coverage via the threshold substitution."""
    tau_eq = sinr_equivalent_threshold(tau, r_k, scenario)
    if tau_eq is None:
        return 0.0
    return conditional_cp(tau_eq, theta_k, r_k, kappa, scenario, mode)


# ---------------------------------------------------------------------------
# Overall metrics (averaged over the served user's location)

_N_THETA = 10
_N_RADIAL = 28


def _anchor_nodes(scenario: ScenarioConfig):
    """Half-sector angle nodes (the angular integrand is even, so weights are
    doubled) and radial nodes for the location average."""
    sec = scenario.sector
    xt, wt = _gl_rule(_N_THETA)
    th = 0.5 * sec.half_width * (xt + 1.0)
    w_th = wt * 0.5 * sec.half_width * (sec.n_sectors / (2.0 * math.pi)) * 2.0
    xr, wr = _gl_rule(_N_RADIAL)
    r = 0.5 * sec.cell_radius * (xr + 1.0)
    w_r = wr * 0.5 * sec.cell_radius
    return th, w_th, r, w_r


def _radial_weights_for_kappa(kappa, r, w_r, scenario):
    _, pdf = ordered_distance_dist(kappa, r, scenario.n_active, scenario.sector)
    w = w_r * pdf
    return w / w.sum()


def _overall_cp_batch(tau: float, scenario: ScenarioConfig, mode: str,
                      kappas) -> np.ndarray:
    """Overall CP for each requested kappa at one threshold (mlap or upper).

    The side laws are kappa-independent, so one lattice evaluation per
    location node serves every user order. Nodes where every interferer
    clears 1/tau are covered for sure, and nodes in the frozen region (1/tau
    below every retained level) reduce to the exact all-interferers-at-zero
    probability. The rest go through the lattice one angle row at a time,
    which bounds the memory of the stored outer powers.
    """
    thr = 1.0 / tau
    n_active = scenario.n_active
    kap = np.asarray(list(kappas), int)
    th, w_th, r, w_r = _anchor_nodes(scenario)

    g, p_in, p_out = [], [], []
    for theta_k in th:
        for r_k in r:
            focal = PolarPoint(float(theta_k), float(r_k))
            g.append(mlap_levels(scenario.array, scenario.mlap, focal).gains)
            p_in_k, p_out_k = _level_probs_raw(focal.theta, focal.r, scenario)
            p_in.append(p_in_k)
            p_out.append(p_out_k)
    g, p_in, p_out = np.array(g), np.array(p_in), np.array(p_out)

    if mode == "upper":
        ok = g < thr
        cp = (((p_in * ok).sum(axis=1)[:, None] ** (kap - 1))
              * ((p_out * ok).sum(axis=1)[:, None] ** (n_active - kap)))
    else:
        cp = np.empty((g.shape[0], kap.size))
        covered = thr > (n_active - 1) * g.max(axis=1)
        frozen = ~covered & (thr < g[:, :-1].min(axis=1))
        cp[covered] = 1.0
        cp[frozen] = ((p_in[frozen, -1:] ** (kap - 1))
                      * (p_out[frozen, -1:] ** (n_active - kap)))
        todo = np.flatnonzero(~(covered | frozen))
        for lo in range(0, todo.size, r.size):
            rows = todo[lo:lo + r.size]
            lower, upper = _lattice_cp(thr, (g[rows], p_in[rows]),
                                       (g[rows], p_out[rows]), n_active, kap)
            cp[rows] = 0.5 * (lower + upper)
    cp_nodes = np.clip(cp, 0.0, 1.0).reshape(th.size, r.size, kap.size)

    out = np.zeros(kap.size)
    for q, k in enumerate(kap):
        w_rk = _radial_weights_for_kappa(int(k), r, w_r, scenario)
        out[q] = float(w_th @ cp_nodes[:, :, q] @ w_rk)
    return np.clip(out, 0.0, 1.0)


def overall_cp(tau: float, kappa: int, scenario: ScenarioConfig,
               mode: str = "mlap") -> float:
    """Coverage averaged over the kappa-th user's ordered location law."""
    if not tau > 0:
        raise DomainError("tau must be positive")
    _check_kappa(kappa, scenario)
    if scenario.n_active == 1:
        return 1.0
    if mode in ("mlap", "upper"):
        return float(_overall_cp_batch(tau, scenario, mode, [kappa])[0])
    if mode != "exact":
        raise InvalidArgumentError("mode must be 'exact', 'mlap' or 'upper'")
    # exact mode runs a full grid build + lattice evaluation per location
    # node; the lobe-resolving grids grow with the antenna count, so this is
    # practical for moderate N only
    th, w_th, r, w_r = _anchor_nodes(scenario)
    w_rk = _radial_weights_for_kappa(kappa, r, w_r, scenario)
    acc = 0.0
    for i in range(th.size):
        for j in range(r.size):
            cp = conditional_cp(tau, float(th[i]), float(r[j]), kappa, scenario,
                                "exact")
            acc += w_th[i] * w_rk[j] * cp
    return _clamp_cp(acc)


def se_and_ase(tau: float, scenario: ScenarioConfig, mode: str = "mlap"):
    """Per-user spectrum efficiencies CP_k * log2(1+tau) and the aggregate
    per-area efficiency over the sector."""
    if not tau > 0:
        raise DomainError("tau must be positive")
    kappas = list(range(1, scenario.n_active + 1))
    if scenario.n_active == 1:
        cps = np.ones(1)
    elif mode in ("mlap", "upper"):
        cps = _overall_cp_batch(tau, scenario, mode, kappas)
    else:
        cps = np.array([overall_cp(tau, k, scenario, mode) for k in kappas])
    se = cps * math.log2(1.0 + tau)
    sector_area = math.pi * scenario.sector.cell_radius**2
    ase = scenario.sector.n_sectors / sector_area * float(se.sum())
    return se, ase

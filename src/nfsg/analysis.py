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
          One builder, vectorised over focal points, gives the levels and
          both sides' probabilities; they do not depend on tau.

One per-node evaluator turns the side laws into CP for every route: it
returns 1 where every interferer clears 1/tau, the all-interferers-at-zero
probability where no gain falls in (0, 1/tau] (the frozen region), the
closed-form product for the upper bound, and the lattice bounds below for
the rest. The location average runs that evaluator on the quadrature nodes
once per threshold for every user order: the quantized laws at those nodes
are built once per scenario, and the exact route builds each node's side
grids once per call.

Both routes recover the CDF with one truncated lattice convolution (the
compound-sum technique of Panjer recursion and FFT aggregation). Gains are
nonnegative, so P{I <= 1/tau} depends only on each side's gain law on
[0, 1/tau]: that law is put on the L+1 lattice points k*h, h = 1/(tau*L),
with the mass above 1/tau dropped. Rounding every gain up gives a lower bound
on CP and rounding it down an upper bound. Each side is raised to its power
one convolution at a time, truncated to [0, L] after every step, which is
exact for the rounded laws. A step takes one of two forms, chosen from the
law. When no row of a pass keeps more than _SHIFT_ADD_ATOMS positive-mass
atoms, it adds that many shifted copies of the array, weighted by the atoms'
masses; the quantized laws have M+2 atoms, so mlap up to M = 28 goes this
way. Denser laws, such as the exact route's binned histograms, multiply
2(L+1)-point FFT spectra. The constant is the measured crossover of the two.
The outer ladder is carried as CDFs: convolution commutes with the
cumulative sum, and a CDF is 0 below cell 0, so one step serves both
ladders. CP_kappa is then the dot product of the inner pmf power kappa-1
with the reversed CDF of the outer power n_active-kappa. The public
functions return the midpoint of the two bounds. For the exact route the
bound covers the lattice rounding only, not the error of the side-grid
quadrature or of the gain clustering.

A user pinned at (theta_k, r_k) gets both sides' laws, in every mode, from
one builder with one set of checks: orders, mode, sector, then supports (a
side that holds an interferer needs room for it, so r_k = 0 is rejected with
inner interferers and the cell edge with outer ones).

laplace gives the interference Laplace transform of the exact and the
quantized route from the same pinned-user laws; the CP evaluator does not
need it.

The closed-form upper bound replaces each Laplace factor with the
probability that a single interferer's quantized gain stays below 1/tau. It
is the third mode, 'upper', of conditional_cp, overall_cp and se_and_ase,
next to 'exact' and 'mlap', and runs on the mlap laws.
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

def _check_orders(kappas, n_active: int, mode: str):
    if not all(1 <= k <= n_active for k in kappas):
        raise InvalidArgumentError("kappa must be in [1, n_active]")
    if mode not in ("exact", "mlap", "upper"):
        raise InvalidArgumentError("mode must be 'exact', 'mlap' or 'upper'")


def _pinned_sides(theta_k: float, r_k: float, kappas, scenario: ScenarioConfig,
                  mode: str) -> tuple[bool, bool]:
    """Check a user fixed at (theta_k, r_k) with any order in kappas: orders,
    mode, sector, supports. Returns whether the inner and the outer side hold
    an interferer at some order; r_k = 0 leaves the inner support empty and
    r_k = cell_radius the outer one."""
    _check_orders(kappas, scenario.n_active, mode)
    sec = scenario.sector
    if abs(theta_k) > sec.half_width or not 0 <= r_k <= sec.cell_radius:
        raise DomainError("focal point outside the sector")
    inner, outer = max(kappas) > 1, min(kappas) < scenario.n_active
    if inner and r_k == 0.0:
        raise DegenerateSupportError("inner interferers conditioned on r_k = 0")
    if outer and r_k == sec.cell_radius:
        raise DegenerateSupportError("outer interferers conditioned on r_k = cell_radius")
    return inner, outer


def _level_laws(scenario: ScenarioConfig, focals) -> tuple[np.ndarray, ...]:
    """Quantized laws (g, p_in, p_out) of the beams focused on each point of
    focals, each shaped (rows, M+2): the levels g_0..g_{M+1} and the
    probability that one inner / outer interferer lands on each of them.

    Mainlobe levels combine the spatial-angle mass of the first-null band
    with the conditional radial mass beyond / inside the beam-depth interval;
    sidelobe levels use only the angle bands, so they are side-independent.
    The zero level takes the rest.
    """
    sec = scenario.sector
    n = scenario.array.n_antennas
    m = scenario.mlap.n_levels
    levels = [mlap_levels(scenario.array, scenario.mlap, f) for f in focals]
    g = np.array([lv.gains for lv in levels])
    r_k = np.array([f.r for f in focals])
    d_left = np.array([lv.depth.d_left for lv in levels])
    # an unbounded interval reaches past the cell, where both radial CDFs are 1
    d_right = np.array([lv.depth.right_or_inf for lv in levels])
    vk = 0.5 * np.sin([f.theta for f in focals])
    # spatial-angle CDF at the band edges vk + k/N, k = -M..M
    cdf = spatial_angle_cdf_extended(vk[:, None] + np.arange(-m, m + 1) / n, sec)
    band = np.diff(cdf, axis=1)
    a_main = cdf[:, m + 1] - cdf[:, m - 1]
    # lobe i >= 2 covers the band (i-1)/N..i/N on either side of vk
    a_side = band[:, m + 1:] + band[:, :m - 1][:, ::-1]

    def law(side):
        f_left = conditional_cdf_extended(side, d_left, r_k, sec)
        f_right = conditional_cdf_extended(side, d_right, r_k, sec)
        p = np.clip(np.column_stack([a_main * (1.0 - f_right),
                                     a_main * (f_right - f_left), a_side]), 0.0, 1.0)
        rest = np.maximum(0.0, 1.0 - np.cumsum(p, axis=1)[:, -1])
        return np.column_stack([p, rest])

    return g, law("inner"), law("outer")


@lru_cache(maxsize=8)
def _anchor_laws(scenario: ScenarioConfig) -> tuple[np.ndarray, ...]:
    """Quantized laws at the location-average nodes, angle-major. They do not
    depend on the threshold, so one build serves every call on a scenario."""
    th, _, r, _ = _anchor_nodes(scenario)
    laws = _level_laws(scenario, [PolarPoint(float(t), float(d)) for t in th for d in r])
    for a in laws:
        a.flags.writeable = False
    return laws


def _pinned_laws(theta_k: float, r_k: float, kappas, scenario: ScenarioConfig,
                 mode: str):
    """(inner, outer) gain laws (g, p) of one interferer, each shaped (1, m),
    for the user fixed at (theta_k, r_k) with any order in kappas: side grids
    for 'exact', quantized laws otherwise. An exact side with no interferer
    at any order gets the all-zero law and no grid. On the cell edge the
    quantized outer law is 0/0; that side then holds no interferer, so its
    mass is parked on the zero level."""
    inner, outer = _pinned_sides(theta_k, r_k, kappas, scenario, mode)
    if mode == "exact":
        sides = [_side_grid(scenario, side, theta_k, r_k) if used else _EMPTY_SIDE
                 for side, used in (("inner", inner), ("outer", outer))]
        return tuple((grid.g[None], grid.w[None]) for grid in sides)
    with np.errstate(invalid="ignore"):
        g, p_in, p_out = _level_laws(scenario, [PolarPoint(theta_k, r_k)])
    if r_k == scenario.sector.cell_radius:
        p_out = np.zeros_like(p_out)
        p_out[:, -1] = 1.0
    return (g, p_in), (g, p_out)


def level_probabilities(theta_k: float, r_k: float, kappa: int,
                        scenario: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """(p_in, p_out): the probability that one inner / outer interferer lands
    on each quantized gain level g_0..g_{M+1} of the beam focused on
    (theta_k, r_k)."""
    (_, p_in), (_, p_out) = _pinned_laws(theta_k, r_k, [kappa], scenario, "mlap")
    return p_in[0], p_out[0]


def tau_star(levels: MlapLevels) -> float:
    """Threshold beyond which the quantized-pattern CP freezes:
    1/tau* = min of the retained levels g_0..g_M."""
    return 1.0 / min(levels.gains[:-1])


def laplace(s: complex, theta_k: float, r_k: float, kappa: int,
            scenario: ScenarioConfig, mode: str = "mlap") -> complex:
    """Interference Laplace transform E[exp(-s I)] for user kappa fixed at
    (theta_k, r_k): the inner factor to the (kappa-1) power times the outer
    factor to the (n_active-kappa) power, each the average of exp(-s G) over
    one interferer's gain law, the side grid ('exact') or the quantized
    levels ('mlap'). 'upper' is a CP bound and has no transform."""
    (g_in, p_in), (g_out, p_out) = _pinned_laws(theta_k, r_k, [kappa], scenario, mode)
    if mode == "upper":
        raise InvalidArgumentError("mode 'upper' is a CP bound with no Laplace transform")
    if s == 0:
        return 1.0 + 0.0j
    if mode == "exact" and abs(complex(s).imag) > 100.0 * _GRID_T_RESOLVE:
        raise NumericFailureError(
            "|Im s| far beyond the gain grid's validated range",
            complex("nan"), math.inf)
    return (complex(np.exp(-s * g_in[0]) @ p_in[0]) ** (kappa - 1)
            * complex(np.exp(-s * g_out[0]) @ p_out[0]) ** (scenario.n_active - kappa))


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
    # greedy chain: a cluster runs from its first gain up to that gain's limit
    starts = []
    i = 0
    while i < g.size:
        starts.append(i)
        i = max(int(limits[i]), i + 1)
    tot = np.add.reduceat(w, starts)
    mean = g[starts]  # a massless cluster keeps its first gain
    np.divide(np.add.reduceat(g * w, starts), tot, out=mean, where=tot > 0)
    return mean, tot


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


# ---------------------------------------------------------------------------
# Truncated lattice convolution

# Lattice cells on [0, 1/tau]. The bound width shrinks as 1/L; 2(L+1)-point
# FFTs keep every product of two truncated laws free of wrap-around.
_LATTICE_CELLS = 1023
_NFFT = 2 * (_LATTICE_CELLS + 1)
# Focal nodes per lattice pass. One shift-and-add gather holds
# rows x atoms x (L+1) doubles: 0.8 MB at 8 rows and M = 10, which fits a
# 2 MiB L2 cache, and 2.8 MB at 28 rows, which does not. The location-
# averaged mlap route at 9 thresholds took 0.98 s at 8 rows, 1.17 s at 16
# and 1.87 s at 28 (Xeon, 2 MiB L2 per core).
_LATTICE_ROWS = 8
# Most positive-mass atoms per row for which a shift-and-add step beats a
# 2(L+1)-point FFT round trip, a measured crossover. One _lattice_cp call at
# 8 rows, n_active = 15: 12 atoms 7.6 ms against 21.5 ms by FFT, 28 atoms
# 18.4 against 19.4, 32 atoms 22.2 against 20.0, 48 atoms 32.5 against
# 19.7. So mlap laws up to M = 28 shift and add, while M = 128 and the exact
# route's binned histograms take the FFT.
_SHIFT_ADD_ATOMS = 30


def _lattice_step(thr: float, gains, probs, round_up: bool):
    """One interferer's gain law put on the lattice k*thr/L, as a function
    that convolves a (rows, L+1) array with it, truncated to [0, L].

    gains and probs broadcast to (rows, m), one law per row. Mass above thr
    is dropped; the rest is rounded up (lower CP bound) or down (upper). A
    law with at most _SHIFT_ADD_ATOMS positive-mass atoms in every row sums
    shifted copies of the array, new[r, s] = sum_i p[r, i] a[r, s - c[r, i]],
    which is exact and never negative. Denser laws multiply spectra."""
    gains, probs = np.broadcast_arrays(np.atleast_2d(gains), np.atleast_2d(probs))
    rows = gains.shape[0]
    width = _LATTICE_CELLS + 1
    x = gains * (_LATTICE_CELLS / thr)
    cell = np.minimum(np.ceil(x) if round_up else np.floor(x),
                      _LATTICE_CELLS).astype(np.int64)
    keep = (gains <= thr) & (probs > 0)
    m = int(keep.sum(axis=1).max())
    if m <= _SHIFT_ADD_ATOMS:
        # the kept atoms first in every row; the padding ones carry no mass
        first = np.argsort(~keep, axis=1, kind="stable")[:, :m]
        shift = width - np.take_along_axis(cell, first, axis=1)
        p = np.take_along_axis(np.where(keep, probs, 0.0), first, axis=1)[:, None, :]
        # a[r, s - c] is buf[r, width + s - c], and cells below 0 stay zero
        buf = np.zeros((rows, 2 * width))
        windows = np.lib.stride_tricks.sliding_window_view(buf, width, axis=1)
        row = np.arange(rows)[:, None]

        def shift_add(a):
            buf[:, width:] = a
            return (p @ windows[row, shift])[:, 0]
        return shift_add

    flat = np.arange(rows)[:, None] * width + cell
    pmf = np.bincount(flat[keep], weights=probs[keep], minlength=rows * width)
    spectrum = np.fft.rfft(pmf.reshape(rows, width), _NFFT)

    def fft(a):
        out = np.fft.irfft(np.fft.rfft(a, _NFFT) * spectrum, _NFFT)
        return np.maximum(out[:, :width], 0.0)
    return fft


def _lattice_cp(thr: float, inner, outer, n_active: int, kappas):
    """Lower and upper bounds on P{I <= thr} for each user order in kappas.

    inner and outer are the (gains, probs) laws of one interferer on each
    side, shaped (m,) or (rows, m) for a batch of focal points. The outer
    ladder starts from the CDF of zero interference, which is 1 on every
    cell, and each step convolves it with one more outer law: convolution
    commutes with the cumulative sum, and a CDF is 0 below cell 0. Those
    CDFs are stored reversed; the inner pmf walks up the kappa ladder, so
    every order costs one dot product. Returns (lower, upper), each of
    shape (rows, len(kappas)).
    """
    kap = np.asarray(kappas, int)
    width = _LATTICE_CELLS + 1
    bounds = []
    for round_up in (True, False):
        step_in = _lattice_step(thr, *inner, round_up)
        step_out = _lattice_step(thr, *outer, round_up)
        rows = np.atleast_2d(outer[1]).shape[0]
        n_out = n_active - int(kap.min())
        cdf_out = np.empty((n_out + 1, rows, width))
        cdf = np.ones((rows, width))
        for j in range(n_out + 1):
            if j:
                cdf = step_out(cdf)
            cdf_out[j] = cdf[:, ::-1]
        cp = np.empty((rows, kap.size))
        pmf = np.zeros((rows, width))
        pmf[:, 0] = 1.0
        for k in range(1, int(kap.max()) + 1):
            if k > 1:
                pmf = step_in(pmf)
            for q in np.flatnonzero(kap == k):
                cp[:, q] = np.einsum("rl,rl->r", pmf, cdf_out[n_active - k])
        bounds.append(np.clip(cp, 0.0, 1.0))
    return bounds[0], bounds[1]


def _node_cp(thr: float, inner, outer, n_active: int, kappas,
             closed_form: bool = False):
    """Lower and upper bounds on P{I <= thr} for each user order in kappas at
    each focal node.

    inner and outer are the (gains, probs) laws of one interferer on each
    side, shaped (rows, m), one node per row. closed_form gives the 'upper'
    route instead: every interferer's gain must stay below thr on its own,
    returned as both bounds. Nodes where every interferer clears thr are
    covered for sure. Nodes with no gain in (0, thr] (the frozen region)
    are covered only when every interferer sits on gain 0, which is the
    closed-form product. The rest go through the lattice _LATTICE_ROWS rows
    at a time. Returns (lower, upper), each of shape (rows, len(kappas)).
    """
    (g_in, p_in), (g_out, p_out) = inner, outer
    kap = np.asarray(kappas, int)
    closed = (((p_in * (g_in < thr)).sum(axis=1)[:, None] ** (kap - 1))
              * ((p_out * (g_out < thr)).sum(axis=1)[:, None] ** (n_active - kap)))
    if closed_form:
        return closed, closed
    lower, upper = closed.copy(), closed.copy()
    covered = thr > (n_active - 1) * np.maximum(g_in.max(axis=1), g_out.max(axis=1))
    lower[covered] = upper[covered] = 1.0
    frozen = ~(((g_in > 0) & (g_in <= thr)).any(axis=1)
               | ((g_out > 0) & (g_out <= thr)).any(axis=1))
    todo = np.flatnonzero(~(covered | frozen))
    for lo in range(0, todo.size, _LATTICE_ROWS):
        rows = todo[lo:lo + _LATTICE_ROWS]
        lower[rows], upper[rows] = _lattice_cp(
            thr, (g_in[rows], p_in[rows]), (g_out[rows], p_out[rows]), n_active, kap)
    return lower, upper


# ---------------------------------------------------------------------------
# Coverage probabilities


def _conditional_cp_bounds(tau: float, theta_k: float, r_k: float, kappa: int,
                           scenario: ScenarioConfig, mode: str) -> tuple[float, float]:
    """(lower, upper) bounds on the route's CP for user kappa fixed at
    (theta_k, r_k): the lattice bounds for 'exact' and 'mlap', the closed
    form twice for 'upper'."""
    if not tau > 0:
        raise DomainError("tau must be positive")
    inner, outer = _pinned_laws(theta_k, r_k, [kappa], scenario, mode)
    lower, upper = _node_cp(1.0 / tau, inner, outer, scenario.n_active, [kappa],
                            closed_form=mode == "upper")
    return float(lower[0, 0]), float(upper[0, 0])


def conditional_cp(tau: float, theta_k: float, r_k: float, kappa: int,
                   scenario: ScenarioConfig, mode: str = "mlap") -> float:
    """P{SIR > tau} for user kappa fixed at (theta_k, r_k): the midpoint of
    the lattice bounds under the exact ('exact') or quantized ('mlap')
    pattern, or the closed-form upper bound on the quantized route
    ('upper'), where every interferer's quantized gain must individually
    stay below 1/tau."""
    lower, upper = _conditional_cp_bounds(tau, theta_k, r_k, kappa, scenario, mode)
    return 0.5 * (lower + upper)


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
    """SINR coverage via the threshold substitution, for any conditional_cp
    mode."""
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
    """Overall CP for each requested kappa at one threshold.

    The side laws do not depend on kappa, so one evaluation per location
    node serves every user order. The quantized routes read the node laws
    built once per scenario; the exact route builds each node's side grids
    once per call, which is practical for moderate N only, as the
    lobe-resolving grids grow with the antenna count.
    """
    if not tau > 0:
        raise DomainError("tau must be positive")
    kap = np.asarray(list(kappas), int)
    _check_orders(kap, scenario.n_active, mode)
    n_active = scenario.n_active
    if n_active == 1:
        return np.ones(kap.size)
    thr = 1.0 / tau
    th, w_th, r, w_r = _anchor_nodes(scenario)
    if mode == "exact":
        nodes = [_node_cp(thr, *_pinned_laws(float(t), float(d), kap, scenario, mode),
                          n_active, kap) for t in th for d in r]
        lower, upper = (np.concatenate(b) for b in zip(*nodes))
    else:
        g, p_in, p_out = _anchor_laws(scenario)
        lower, upper = _node_cp(thr, (g, p_in), (g, p_out), n_active, kap,
                                closed_form=mode == "upper")
    cp_nodes = (0.5 * (lower + upper)).reshape(th.size, r.size, kap.size)

    out = np.zeros(kap.size)
    for q, k in enumerate(kap):
        w_rk = _radial_weights_for_kappa(int(k), r, w_r, scenario)
        out[q] = float(w_th @ cp_nodes[:, :, q] @ w_rk)
    return np.clip(out, 0.0, 1.0)


def overall_cp(tau: float, kappa: int, scenario: ScenarioConfig,
               mode: str = "mlap") -> float:
    """Coverage averaged over the kappa-th user's ordered location law."""
    return float(_overall_cp_batch(tau, scenario, mode, [kappa])[0])


def se_and_ase(tau: float, scenario: ScenarioConfig, mode: str = "mlap"):
    """Per-user spectrum efficiencies CP_k * log2(1+tau) and the aggregate
    per-area efficiency over the sector."""
    kappas = range(1, scenario.n_active + 1)
    se = _overall_cp_batch(tau, scenario, mode, kappas) * math.log2(1.0 + tau)
    sector_area = math.pi * scenario.sector.cell_radius**2
    ase = scenario.sector.n_sectors / sector_area * float(se.sum())
    return se, ase

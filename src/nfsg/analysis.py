"""Analytical performance metrics.

Coverage probability of user kappa is the CDF of its aggregate beam
interference I at 1/tau,

    CP = P{I <= 1/tau},  I = sum of kappa-1 inner and n_active-kappa outer
                         interferer gains,

where the interferers on each side are conditionally i.i.d. (angle uniform
over the sector, distance from the inner/outer conditional law). Two routes
are implemented:

  exact - G is the Fresnel-phase pattern; each side's gain law is a histogram
          on log bins of gain over a (spatial angle, beta) grid, built once
          per focal point. The gain depends on the interferer only through
          two phase coefficients, so the zero-padded FFT of one chirp per
          beta node gives it at every spatial-angle column. That FFT is
          pruned to P/2 + 1 twiddled N-point FFTs, and only the cells that
          carry mass are binned (see _side_grid).
  mlap  - G is the multi-level pattern; each side's gain law is a finite
          mixture of the quantized levels g_i with level-hit probabilities
          p_i from the spatial-angle law and the conditional distance law.
          One builder, vectorised over focal points, gives the levels and
          both sides' probabilities from array expressions (only g_0,
          through the asymptotic gain, and the beam-depth edges depend on
          the focal point, and both laws take arrays of focal points); they
          do not depend on tau.

One per-node evaluator turns the side laws into CP for every route at a
finite tau (at tau = +inf conditional CP is 0 before any law is built): 1
where every interferer clears 1/tau, the all-interferers-at-zero probability
where no gain falls in (0, 1/tau] (the frozen region), the closed-form
product for the upper bound, and the lattice bounds below for the rest. The
location average runs it on the quadrature nodes once per threshold for all
the user orders asked, in every mode on the node laws of _anchor_laws (the
quantized laws or the side grids, built once per array, sector and pattern),
and weighs the orders with one broadcast call of the order-statistic law; an
order's CP does not depend on the other orders of the call.

Both routes recover the CDF with one truncated lattice convolution (the
compound-sum technique of Panjer recursion and FFT aggregation). Gains are
nonnegative, so P{I <= 1/tau} depends only on each side's gain law on
[0, 1/tau]: that law is put on the L+1 lattice points k*h, h = 1/(tau*L),
with the mass above 1/tau dropped. Rounding every gain up gives a lower bound
on CP and rounding it down an upper bound; atoms that land on one point are
merged. Each side is raised to its power one convolution at a time,
truncated to [0, L] after every step, which is exact for the rounded laws.
One evaluation runs the bounds one after the other: each puts each side's
laws on the lattice once, every node in one step table, and runs the nodes
_LATTICE_ROWS at a time, each batch slicing its rows out of those two
tables, which go before the other bound's. A step takes one of two forms,
chosen from the batch. When none of its rows keeps more than
_SHIFT_ADD_ATOMS atoms, it adds that many shifted copies of the array,
weighted by the atoms' masses; the quantized laws have M+2 atoms before
merging, so mlap up to M = 42 goes this way. Denser laws, such as the exact
route's binned histograms, multiply 2(L+1)-point FFT spectra, taken once
per batch. The constant is the measured crossover of the two. Every batch
steps one ladder, the inner law's CDF powers (convolution commutes with the
cumulative sum, and a CDF is 0 below cell 0, so a CDF steps like a pmf). The
quantized laws of one node share every gain on both sides and differ only in
the masses of the zero level, g_0 and g_1, so on the lattice the outer law is
the inner one plus a difference of at most three cells. Where a row differs so
little, and its sum has few enough terms (_DELTA_CELLS, _DELTA_GROWTH,
_DELTA_TERMS), the batch steps the inner ladder to power n_active-1, and
expanding each outer power binomially around the inner law gives every order's
CP as a fixed sum of those CDFs, read a few cells below the top
(_difference_cp): n_active-1 steps in all. An order whose signed terms cancel
too far for its CP to keep its relative accuracy, and every order of the other
rows, such as the exact route's and the law pinned on the cell edge, walks the
outer law's pmf powers instead; CP_kappa is then the dot product of the outer
pmf power n_active-kappa with the inner CDF power kappa-1 read from the top
down. The batches of one evaluation write their ladders into one workspace and
shift their arrays in one window buffer, which keeps the allocator from
handing that memory back and faulting it in again for every batch. The public
functions return the midpoint of the two bounds. For the exact route the bound
covers the lattice rounding only, not the error of the side grid: its cells
and its gain bins.

A user pinned at (theta_k, r_k) gets both sides' laws, in every mode, from
one builder. It checks the mode, then the user with geometry._pinned_user,
which Monte Carlo's conditional sampler runs too: order, sector (NaN lies
outside), supports (a side that holds an interferer needs room for it, so
r_k = 0 is rejected with inner interferers and the cell edge with outer
ones), then the focus (a beam focused on the array has no beam depth).

The closed-form upper bound is the probability that every interferer's
quantized gain stays below 1/tau, one factor per interferer. It is the third
mode, 'upper', of conditional_cp, overall_cp and se_and_ase, next to 'exact'
and 'mlap', and runs on the mlap laws.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np

from .errors import DomainError, InvalidArgumentError
from .geometry import (PolarPoint, SectorGeometry, _pinned_user, _user_orders,
                       conditional_cdf_extended, ordered_distance_dist,
                       spatial_angle_cdf_extended)
from .pattern import (ArrayConfig, MlapConfig, MlapLevels, asymptotic_gain, beam_depth,
                      mlap_levels)
from .scenario import ScenarioConfig

_MODES = ("exact", "mlap", "upper")


def _pinned_sides(theta_k: float, r_k: float, kappa: int, scenario: ScenarioConfig,
                  mode: str) -> tuple[bool, bool]:
    """Check the mode and user kappa fixed at (theta_k, r_k), the latter with
    geometry._pinned_user. Returns whether the inner and the outer side hold
    an interferer."""
    if mode not in _MODES:
        raise InvalidArgumentError("mode must be 'exact', 'mlap' or 'upper'")
    n_in, n_out = _pinned_user(kappa, theta_k, r_k, scenario.n_active, scenario.sector)
    return n_in > 0, n_out > 0


def _level_laws(array: ArrayConfig, sector: SectorGeometry, mlap: MlapConfig,
                theta_k, r_k) -> tuple[np.ndarray, ...]:
    """Quantized laws (g, p_in, p_out) of the beams focused on the points
    (theta_k, r_k), two equal-length arrays, each shaped (rows, M+2): the
    levels g_0..g_{M+1} and the probability that one inner / outer
    interferer lands on each of them.

    Only g_0, through the asymptotic gain, and the beam-depth edges depend on
    the focal point; the first point's mlap_levels gives the other levels
    and checks the configuration. Mainlobe levels combine the spatial-angle
    mass of the first-null band with the conditional radial mass beyond /
    inside the beam-depth interval; sidelobe levels use only the angle
    bands, so they are side-independent. The zero level takes the rest.
    """
    n = array.n_antennas
    m = mlap.n_levels
    first = mlap_levels(array, mlap, PolarPoint(float(theta_k[0]), float(r_k[0])))
    g = np.tile(first.gains, (r_k.size, 1))
    g[:, 0] = first.gains[1] * asymptotic_gain(array, theta_k, r_k)
    # an unbounded interval reaches past the cell, where both radial CDFs are 1
    depth = beam_depth(array, theta_k, r_k, mlap.beta_gamma)
    vk = 0.5 * np.sin(theta_k)
    # spatial-angle CDF at the band edges vk + k/N, k = -M..M
    cdf = spatial_angle_cdf_extended(vk[:, None] + np.arange(-m, m + 1) / n, sector)
    band = np.diff(cdf, axis=1)
    a_main = cdf[:, m + 1] - cdf[:, m - 1]
    # lobe i >= 2 covers the band (i-1)/N..i/N on either side of vk
    a_side = band[:, m + 1:] + band[:, :m - 1][:, ::-1]

    def law(side):
        f_left = conditional_cdf_extended(side, depth.d_left, r_k, sector)
        f_right = conditional_cdf_extended(side, depth.d_right, r_k, sector)
        p = np.clip(np.column_stack([a_main * (1.0 - f_right),
                                     a_main * (f_right - f_left), a_side]), 0.0, 1.0)
        rest = np.maximum(0.0, 1.0 - np.cumsum(p, axis=1)[:, -1])
        return np.column_stack([p, rest])

    return g, law("inner"), law("outer")


@lru_cache(maxsize=8)
def _anchor_laws(array: ArrayConfig, sector: SectorGeometry, mlap: MlapConfig,
                 exact: bool):
    """(inner, outer) gain laws (g, p) of one interferer at the location-average
    nodes, angle-major, each shaped (nodes, m): each node's side grids if
    exact, its quantized laws otherwise. They depend on neither the threshold
    nor the user count, so one build serves every call on an array, sector
    and pattern. The side grids differ in length; each row is padded to the
    widest of its side with zero-mass atoms at gain 0, which change no
    bound."""
    th, _, r, _ = _anchor_nodes(sector)
    theta_k, r_k = np.repeat(th, r.size), np.tile(r, th.size)
    if exact:
        laws = []
        for side in ("inner", "outer"):
            grids = [_side_grid(array, sector, mlap, side, float(t), float(d))
                     for t, d in zip(theta_k, r_k)]
            g = np.zeros((len(grids), max(gains.size for gains, _ in grids)))
            p = np.zeros_like(g)
            for row, (gains, w) in enumerate(grids):
                g[row, :gains.size], p[row, :gains.size] = gains, w
            laws.append((g, p))
    else:
        g, p_in, p_out = _level_laws(array, sector, mlap, theta_k, r_k)
        laws = [(g, p_in), (g, p_out)]
    for law in laws:
        for a in law:
            a.flags.writeable = False
    return tuple(laws)


def _pinned_laws(theta_k: float, r_k: float, kappa: int, scenario: ScenarioConfig,
                 mode: str):
    """(inner, outer) gain laws (g, p) of one interferer, each shaped (1, m),
    for user kappa fixed at (theta_k, r_k): side grids for 'exact', quantized
    laws otherwise. An exact side with no interferer gets the all-zero law
    and no grid. On the cell edge the quantized outer law is 0/0; that side
    then holds no interferer, so its mass is parked on the zero level."""
    inner, outer = _pinned_sides(theta_k, r_k, kappa, scenario, mode)
    key = scenario.array, scenario.sector, scenario.mlap
    if mode == "exact":
        sides = [_side_grid(*key, side, theta_k, r_k) if used else _EMPTY_SIDE
                 for side, used in (("inner", inner), ("outer", outer))]
        return tuple((g[None], w[None]) for g, w in sides)
    with np.errstate(invalid="ignore"):
        g, p_in, p_out = _level_laws(*key, np.array([theta_k]), np.array([r_k]))
    if r_k == scenario.sector.cell_radius:
        p_out = np.zeros_like(p_out)
        p_out[:, -1] = 1.0
    return (g, p_in), (g, p_out)


def level_probabilities(theta_k: float, r_k: float, kappa: int,
                        scenario: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """(p_in, p_out): the probability that one inner / outer interferer lands
    on each quantized gain level g_0..g_{M+1} of the beam focused on
    (theta_k, r_k)."""
    (_, p_in), (_, p_out) = _pinned_laws(theta_k, r_k, kappa, scenario, "mlap")
    return p_in[0], p_out[0]


def tau_star(levels: MlapLevels) -> float:
    """Threshold beyond which the quantized-pattern CP freezes:
    1/tau* = min of the retained levels g_0..g_M."""
    return 1.0 / min(levels.gains[:-1])


# ---------------------------------------------------------------------------
# Exact-mode interference grid
#
# An interferer at spatial angle v = sin(theta)/2 and distance r sees the beam
# focused on (theta_k, r_k) through two phase coefficients only:
#     alpha = 2 pi (v - v_k),
#     beta  = (pi lambda/4) (cos^2(theta_k)/r_k - (1 - 4 v^2)/r).
# For one beta, the gains at alpha = 2 pi m/(P N) for every m are the
# zero-padded FFT of exp(j beta n^2) of length P N; the half-integer offsets
# of even N only add a phase, which |.|^2 removes. Only N of its inputs are
# nonzero, so its samples m = j P + w of one residue w are the N-point FFT
# of the chirp times exp(2 pi j w k/(P N)), k = 0..N-1: O(P N log N) work
# per node instead of O(P N log P N). The offsets are symmetric, so the gain
# at -m equals the gain at m and the residues w = 0..P/2 give every sample.
# A cell whose distance interval holds no mass is not binned. The panel loop
# writes its cell-sized arrays, the distance CDF included, into work arrays
# allocated once per call; only the FFT output and the indices of the cells
# with mass are taken afresh. Temporaries of about 1 MB each, taken for every
# panel, made glibc trim its heap and fault them back in: 182k minor faults
# for the inner grid at (0.3 rad, 10 m), N = 256, against under 100 with the
# work arrays.

# P, the FFT samples per lobe width 1/N of spatial angle. At P = 32 the CP
# of kappa = 15 at (-0.9 rad, 130 m), 5 dB, is 2.9e-3 from its Monte Carlo
# value, outside the 2.85e-3 interval of the agreement test; P = 64 gives
# 2.3e-3.
_FFT_PAD = 64
# cycles of the integrand tolerated per Gauss-Legendre panel in beta, and the
# cells each panel is cut into
_CYC_BETA = 2.5
_ORD_BETA = 8
_INNER_MASS_TOL = 1e-5
_CLUSTER_REL = 1e-3
_CLUSTER_ABS = 1e-7
# the beta resolution of the side grid: where the gain on the focal angle is
# large, near beta = 0, _beta_panels narrows a panel by up to this value over
# 2 pi _CYC_BETA, so that the grid resolves exp(j t G) up to t = 640. It sets
# every beta panel, so changing it moves every exact table.
_GRID_T_RESOLVE = 640.0


# law of a side that holds no interferers: all mass at gain 0
_EMPTY_SIDE = np.zeros(1), np.ones(1)


@lru_cache(maxsize=32)
def _gl_rule(order: int):
    return np.polynomial.legendre.leggauss(order)


def _beta_panels(n_antennas: int, kinks) -> np.ndarray:
    """Oscillation-adaptive panel edges in beta from kinks[0] to kinks[-1],
    with an edge on every kink of the sorted list kinks.

    The phase beta n^2 turns by at most nmax^2 per unit of beta, and the
    gain on the focal angle falls off as about 1/(2 B^2) with
    B = N^2 |beta| / (2 pi) away from beta = 0; both set the local panel
    width.
    """
    nmax = (n_antennas - 1) / 2.0
    slope = max(nmax * nmax, 1.0)

    def amp(b):
        big_b = n_antennas**2 * abs(b) / (2.0 * math.pi)
        return 1.0 if big_b <= 2.0 else min(1.0, 0.7 / big_b)

    edges = [kinks[0]]
    for seg_lo, seg_hi in zip(kinks[:-1], kinks[1:]):
        b = seg_lo
        while b < seg_hi:
            db = (2.0 * math.pi * _CYC_BETA / slope) / max(
                1.0, _GRID_T_RESOLVE * amp(b) / (2.0 * math.pi * _CYC_BETA))
            b = min(seg_hi, b + db)
            edges.append(b)
    return np.asarray(edges)


def _twiddles(n: int, pad: int) -> np.ndarray:
    """(pad//2 + 1, n) table exp(2 pi j w k/(pad n)) over the residues
    w = 0..pad//2 and the array indices k = 0..n-1."""
    return np.exp(2j * math.pi / (pad * n) * np.outer(np.arange(pad // 2 + 1), np.arange(n)))


def _gain_index(cols, n: int, pad: int) -> np.ndarray:
    """Where `_panel_gains` puts sample m of the length pad*n transform, for
    each m in cols (0 <= m < pad*n). Sample m = j pad + w is sample j of
    residue row w. The offsets are symmetric, so the gain at -m equals the
    gain at m, and a residue w above pad//2 is read from row pad - w at
    sample n - 1 - j, whose m is the negative of its own."""
    w, j = cols % pad, cols // pad
    return np.where(w > pad // 2, (pad - w) * n + n - 1 - j, w * n + j)


def _panel_gains(nodes, n_sq, twiddle, prod, power) -> np.ndarray:
    """Gains |sum_k exp(j beta n_k^2) exp(2 pi j m k/(P N))|^2 / N^2 of every
    beta in nodes, the length-P N zero-padded inverse FFT of the chirp
    exp(j beta n_k^2) over the element offsets n_k: row w N + j holds sample
    m = j P + w for the residues w = 0..P//2, which with `_gain_index` give
    every m. twiddle is `_twiddles(N, P)`; prod, shaped (nodes, P//2 + 1, N),
    and power, shaped (nodes, (P//2 + 1) N), are work arrays, and power is
    returned.

    Sample j P + w of the long transform is sample j of the N-point
    transform of the chirp times twiddle row w, so each node takes P//2 + 1
    N-point FFTs instead of one P N-point one. Their 1/N scaling leaves
    |sum|^2 / N^2."""
    np.multiply(np.exp(1j * nodes[:, None] * n_sq)[:, None, :], twiddle, out=prod)
    np.abs(np.fft.ifft(prod, axis=-1).reshape(power.shape), out=power)
    power *= power
    return power


@lru_cache(maxsize=16)
def _side_grid(arr: ArrayConfig, sec: SectorGeometry, mlap: MlapConfig, side: str,
               theta_k: float, r_k: float) -> tuple[np.ndarray, np.ndarray]:
    """Gain law (g, w) of one interferer on one side of the user at
    (theta_k, r_k), binned on gain. It does not depend on the user count.

    The grid runs over (v, beta). Its v columns are cells of width 1/(P N)
    centred on the FFT samples v_k + m/(P N), each with its spatial-angle
    mass. Its beta cells come from `_beta_panels`, each panel cut into
    _ORD_BETA cells whose widths are its Gauss-Legendre weights and sampled
    at its nodes. The beam-depth edges and the focal distance, taken on the
    focal angle, are kinks of the panels; an unbounded right edge maps to
    the beta of r = infinity, which never lies inside the grid. Within a
    column, beta maps to the distance r = c q / (c cos^2(theta_k)/r_k - beta),
    with c = pi lambda/4 and q = 1 - 4 v^2, so a beta cell's mass is the
    conditional distance law between the distances its edges map to, clipped
    to the side's support.
    The inner side stops at r_k sqrt(_INNER_MASS_TOL), and the mass inside
    that goes to gain 0. The gains of one panel come from `_panel_gains`,
    P//2 + 1 twiddled N-point FFTs per node, and only its cells that carry
    mass are binned.
    The masses are summed into log bins of relative width _CLUSTER_REL, with
    every gain up to _CLUSTER_ABS in bin 0; each bin keeps its mass and its
    mean gain. The masses sum to 1 up to rounding.
    """
    # rejects r_k = 0 with a DomainError before anything divides by it
    depth = beam_depth(arr, theta_k, r_k, mlap.beta_gamma)
    n = arr.n_antennas
    pad = _FFT_PAD
    pn = pad * n
    c = math.pi * arr.wavelength / 4.0
    bound = sec.spatial_angle_bound
    vk = 0.5 * math.sin(theta_k)
    m = np.arange(math.ceil((-bound - vk) * pn - 0.5),
                  math.floor((bound - vk) * pn + 0.5) + 1)
    p_v = np.diff(spatial_angle_cdf_extended(vk + (np.append(m, m[-1] + 1) - 0.5) / pn,
                                             sec))
    # an end cell's centre may lie outside the sector; its mass does not
    v = np.clip(vk + m / pn, -bound, bound)
    cq = c * (1.0 - 4.0 * v * v)
    cols = m % pn
    if side == "inner":
        r_lo = r_k * math.sqrt(_INNER_MASS_TOL)
        y_lo, y_hi, trunc = 1.0 / r_k, 1.0 / r_lo, _INNER_MASS_TOL
    else:
        r_lo = r_k
        y_lo, y_hi, trunc = 1.0 / sec.cell_radius, 1.0 / r_k, 0.0
    # beta at r = infinity: no edge at or above it maps to a finite distance
    focus = c * math.cos(theta_k) ** 2 / r_k
    beta_lo, beta_hi = focus - cq.max() * y_hi, focus - cq.min() * y_lo
    kinks = [focus * (1.0 - r_k / d) for d in (depth.d_left, depth.d_right, r_k)]
    edges = _beta_panels(n, sorted({beta_lo, beta_hi,
                                    *(b for b in kinks if beta_lo < b < beta_hi)}))

    x, wt = _gl_rule(_ORD_BETA)
    cuts = np.append(0.0, np.cumsum(wt)) / wt.sum()
    offsets = np.arange(n) - (n - 1) / 2.0
    n_sq = offsets * offsets
    twiddle = _twiddles(n, pad)
    prod = np.empty((_ORD_BETA, *twiddle.shape), complex)
    power = np.empty((_ORD_BETA, twiddle.size))
    # flat index of every (node, column) gain in power
    at = (np.arange(0, power.size, twiddle.size)[:, None]
          + _gain_index(cols, n, pad)).ravel()
    # work arrays: r holds the distances of the cell edges, then their
    # distance CDF, then the binning's temporaries; cells the masses of all
    # cells, then the gains of the cells that carry mass; w_buf and i_buf the
    # masses and the gain indices, then bins, of those
    r = np.empty((_ORD_BETA + 1, cols.size))
    cells, w_buf = np.empty((2, _ORD_BETA, cols.size))
    i_buf = np.empty(cells.size, np.intp)

    def heavy_cells(den):
        """Masses of the cells between the beta edges focus - den that carry
        mass, and where their gains sit in power. A cell without mass adds
        nothing to either sum. Their indices die on return, before the next
        panel takes its own. np.take buffers its out= unless the indices are
        clipped, and these are all in range."""
        r.fill(np.inf)
        np.divide(cq, den, out=r, where=den > 0)
        np.maximum(r, r_lo, out=r)
        conditional_cdf_extended(side, r, r_k, sec, out=r)
        w = np.subtract(r[1:], r[:-1], out=cells)
        w *= p_v
        sel = np.flatnonzero(w)
        wk, i = w_buf.ravel()[:sel.size], i_buf[:sel.size]
        np.take(w, sel, out=wk, mode="clip")
        np.take(at, sel, out=i, mode="clip")
        return wk, i

    log_rel = math.log1p(_CLUSTER_REL)
    n_bins = math.ceil(math.log(1.0 / _CLUSTER_ABS) / log_rel) + 2
    w_sum = np.zeros(n_bins)
    gw_sum = np.zeros(n_bins)
    for lo, hi in zip(edges[:-1], edges[1:]):
        nodes = lo + (hi - lo) * 0.5 * (x + 1.0)
        cell = lo + (hi - lo) * cuts
        # panels share their edges exactly, so the masses telescope
        cell[0], cell[-1] = lo, hi
        wk, i = heavy_cells(focus - cell[:, None])
        g, t = cells.ravel()[:i.size], r.ravel()[:i.size]
        np.take(_panel_gains(nodes, n_sq, twiddle, prod, power), i, out=g, mode="clip")
        np.maximum(g, _CLUSTER_ABS, out=t)
        t /= _CLUSTER_ABS
        np.log(t, out=t)
        t /= log_rel
        np.ceil(t, out=t)
        np.minimum(t, n_bins - 1, out=t)
        i[:] = t
        w_sum += np.bincount(i, wk, n_bins)
        np.multiply(g, wk, out=t)
        gw_sum += np.bincount(i, t, n_bins)
    w_sum[0] += trunc
    keep = w_sum > 0
    return gw_sum[keep] / w_sum[keep], w_sum[keep]


# ---------------------------------------------------------------------------
# Truncated lattice convolution

# Lattice cells on [0, 1/tau]. The bound width shrinks as 1/L; 2(L+1)-point
# FFTs keep every product of two truncated laws free of wrap-around.
_LATTICE_CELLS = 1023
_NFFT = 2 * (_LATTICE_CELLS + 1)
# Focal nodes per lattice pass. One shift-and-add gather holds
# rows x atoms x (L+1) doubles: 0.8 MB at 8 rows and M = 10, which fits a
# 2 MiB L2 cache, and 2.8 MB at 28 rows, which does not. With one ladder
# workspace and one step table per side and bound for each
# _lattice_cp call, a whole overall-analytic benchmark run (mlap and upper at
# 9 thresholds, N = 256, 15 users) took 0.93 s at 4 rows, 0.81 s at 8,
# 0.78 s at 12 and 0.85 s at 16 (medians of 6 rotated runs; Xeon, 2 MiB L2
# per core). 12 rows is within the spread of 8 and takes a ladder half as
# large again.
_LATTICE_ROWS = 8
# Most merged atoms per row for which a shift-and-add step beats a
# 2(L+1)-point FFT round trip, a measured crossover. One _lattice_cp call of
# 8 rows, n_active = 15, atoms on distinct cells: 12 atoms 4.4 ms against
# 17.8 ms by FFT, 28 atoms 9.7 against 17.7, 40 atoms 17.3 against 19.5, 44
# atoms 19.1 against 19.3, 48 atoms 20.6 against 19.3 (medians of 7 calls,
# same machine). So mlap laws up to M = 42 shift and add, while M = 128 and
# the exact route's binned histograms take the FFT.
_SHIFT_ADD_ATOMS = 44
# The difference path: a row whose outer step table differs from its inner
# one on at most _DELTA_CELLS cells may skip the outer pmf walk. The
# quantized laws of one node share every gain and differ only in the masses
# of the zero level, g_0 and g_1, so they do. Its sums of signed terms can
# multiply a CDF's rounding by up to (1 + sum |d|)^(n_active-1), which must
# stay at most _DELTA_GROWTH (the baseline mlap laws read at most 1.46), and
# each order's sum of the terms' magnitudes must stay within _DELTA_GROWTH
# times its CP, or that order walks the outer pmf.
_DELTA_CELLS = 3
_DELTA_GROWTH = 16.0
# Most terms per row of the difference path, C(n_active - 1 + c, c) for a
# difference of c cells, per step it saves. A term costs about 25 ns a row
# to gather and sum with its magnitude, a shift-and-add step about 4 us a
# row (8 rows, 7 to 10 atoms, 1024 cells; Xeon, 2 MiB L2 per core), so the
# path breaks even near 160 terms a step; at 64 it costs about 40% of the
# steps it saves. Three cells take it up to 17 users, two up to 125 and one
# always.
_DELTA_TERMS = 64


def _step_table(thr: float, gains, probs, round_up: bool):
    """One interferer's gain law put on the lattice k*thr/L, one law per row
    of (gains, probs), which broadcast to (rows, m): (cells, masses, counts).

    Mass above thr is dropped; the rest is rounded up (lower CP bound) or
    down (upper), and the atoms that land on one cell are merged. Row r
    holds its counts[r] merged atoms first, in rising cell order, then
    zero-mass atoms at cell 0; cells and masses are (rows, counts.max())."""
    gains, probs = np.broadcast_arrays(np.atleast_2d(gains), np.atleast_2d(probs))
    rows, m = gains.shape
    width = _LATTICE_CELLS + 1
    kept = np.flatnonzero((gains <= thr) & (probs > 0))
    p = probs.ravel()[kept]
    # in place: the exact stacks keep millions of atoms
    x = gains.ravel()[kept]
    x *= _LATTICE_CELLS / thr
    np.minimum((np.ceil if round_up else np.floor)(x, out=x), _LATTICE_CELLS, out=x)
    # one key per row and cell: equal keys are one atom. Laws that keep an
    # atom per four cells or more are merged by one pass over every cell,
    # sparser ones by sorting their keys. The real traffic lies far to either
    # side (atoms per cell; one pass against sorting; Xeon): the baseline mlap
    # anchors, 280 rows, 0.01, 1.6-1.8 ms against 0.21-0.26 ms; a pinned exact
    # row at N = 256, 13.5, 0.28 against 0.51 ms; the N = 13 exact inner
    # stack, 280 rows at 0 dB, 7.9, 52-56 ms against 99-109 ms.
    flat = np.floor_divide(kept, m, out=kept)
    flat *= width
    flat += x.astype(np.intp)
    if 4 * flat.size >= rows * width:
        mass = np.bincount(flat, p, rows * width)
        key = np.flatnonzero(mass)
        mass = mass[key]
    else:
        key, atom = np.unique(flat, return_inverse=True)
        mass = np.bincount(atom, p, key.size)
    return _pack(key, mass, rows)


def _pack(key, mass, rows: int):
    """Atoms given by their rising keys row*(L+1) + cell and their masses,
    as (cells, masses, counts): row r holds its counts[r] atoms first, in
    rising cell order, then zero-mass atoms at cell 0; cells and masses are
    (rows, counts.max())."""
    row, cell = np.divmod(key, _LATTICE_CELLS + 1)
    counts = np.bincount(row, minlength=rows)
    at = np.arange(key.size) - (np.cumsum(counts) - counts)[row]
    cells = np.zeros((rows, counts.max(initial=0)), np.intp)
    masses = np.zeros(cells.shape)
    cells[row, at] = cell
    masses[row, at] = mass
    return cells, masses, counts


def _batch_law(table, batch: slice):
    """The rows batch of a _step_table, cut to their own atom count, as the
    law of a _lattice_step: (rows, window starts, masses) to shift and add,
    or, with more than _SHIFT_ADD_ATOMS atoms in a row, the 2(L+1)-point
    spectrum to multiply by."""
    cells, masses, counts = table
    m = int(counts[batch].max())
    cells, masses = cells[batch, :m], masses[batch, :m]
    width = _LATTICE_CELLS + 1
    row = np.arange(cells.shape[0])[:, None]
    if m <= _SHIFT_ADD_ATOMS:
        # a[r, s - c] is window width - c at s
        return row, width - cells, masses[:, None, :]
    pmf = np.bincount((row * width + cells).ravel(), masses.ravel(), row.size * width)
    return np.fft.rfft(pmf.reshape(row.size, width), _NFFT)


def _windows(rows: int):
    """The windows of width L+1 of a zeroed (rows, 2(L+1)) buffer: a step
    writes its array into window L+1, the right half, and the left half
    stays zero, the cells below 0."""
    width = _LATTICE_CELLS + 1
    return np.lib.stride_tricks.sliding_window_view(np.zeros((rows, 2 * width)), width,
                                                    axis=1, writeable=True)


def _lattice_step(a, law, windows):
    """a, shaped (rows, L+1), convolved with each row's law from _batch_law
    and truncated to [0, L].

    A shift-and-add law sums shifted copies of the array read from windows
    (see _windows, at least rows rows), new[r, s] = sum_i p[r, i]
    a[r, s - c[r, i]], which is exact and never negative. A spectrum is
    multiplied by."""
    if isinstance(law, tuple):
        row, start, p = law
        windows[:row.size, _LATTICE_CELLS + 1] = a
        return (p @ windows[row, start])[:, 0]
    out = np.fft.irfft(np.fft.rfft(a, _NFFT) * law, _NFFT)
    return np.maximum(out[:, :_LATTICE_CELLS + 1], 0.0)


def _difference(table_in, table_out, n_active: int):
    """The cell-wise difference out - in of two step tables, row by row, as
    (cells, masses, counts, usable) in the layout of _step_table. usable[r]
    tells whether row r may take the difference path: its difference has at
    most _DELTA_CELLS cells, (1 + sum |d|)^(n_active-1) is at most
    _DELTA_GROWTH, its terms are at most _DELTA_TERMS per step saved, and
    their binomials C(n_active-kappa, k) are finite doubles (up to 1030
    users). A row whose atom counts differ by more than _DELTA_CELLS, such as
    an exact node's, is not compared."""
    width = _LATTICE_CELLS + 1
    near = np.flatnonzero(np.abs(table_out[2] - table_in[2]) <= _DELTA_CELLS)
    keys, masses = [], []
    for (cells, mass, counts), sign in ((table_out, 1.0), (table_in, -1.0)):
        # the compared rows' atoms, without their zero-mass padding
        real = np.arange(cells.shape[1]) < counts[near, None]
        keys.append((near[:, None] * width + cells[near])[real])
        masses.append(sign * mass[near][real])
    # an outer atom's mass, then minus the inner one's on its cell: the cells
    # they share with equal masses come out exactly 0
    key, atom = np.unique(np.concatenate(keys), return_inverse=True)
    d = np.bincount(atom, np.concatenate(masses), key.size)
    moved = d != 0
    cells, d, counts = _pack(key[moved], d[moved], table_in[2].size)
    usable = np.zeros(counts.size, bool)
    usable[near] = True
    usable &= counts <= _DELTA_CELLS
    usable &= (1.0 + np.abs(d).sum(axis=1)) ** (n_active - 1) <= _DELTA_GROWTH
    terms = np.array([math.comb(n_active - 1 + c, c) for c in range(_DELTA_CELLS + 1)])
    usable &= terms[np.minimum(counts, _DELTA_CELLS)] <= _DELTA_TERMS * (n_active - 1)
    usable &= math.comb(n_active - 1, (n_active - 1) // 2) <= sys.float_info.max
    return cells, d, counts, usable


@lru_cache(maxsize=8)
def _compositions(n_active: int, parts: int):
    """The terms of the difference path for a difference of parts cells, in
    rising k: every e of parts whole numbers with k = sum e <= n_active - 1,
    as (level, e, multinomial, starts, binomial). level[t] = n_active - 1 - k
    is the inner CDF power term t reads, e is (terms, parts), multinomial[t]
    is k!/prod(e_a!), starts[k] is the first term of k, and
    binomial[kappa-1, k] = C(n_active - kappa, k)."""
    e = [c for k in range(n_active) for c in _splits(k, parts)]
    k = [sum(c) for c in e]
    multinomial = [math.factorial(kt) // math.prod(map(math.factorial, c))
                   for kt, c in zip(k, e)]
    k = np.array(k, np.intp)
    # by Pascal's rule: a math.comb per entry took 1.6 s at 700 users
    binomial = [[1] + [0] * (n_active - 1)]
    for _ in range(n_active - 1):
        binomial.insert(0, [a + b for a, b in zip(binomial[0], [0, *binomial[0][:-1]])])
    tables = (n_active - 1 - k, np.array(e, np.intp).reshape(-1, parts),
              np.array(multinomial, float), np.searchsorted(k, np.arange(n_active)),
              np.array(binomial, float))
    for a in tables:
        a.flags.writeable = False
    return tables


def _splits(k: int, parts: int):
    """Every tuple of parts whole numbers that sum to k."""
    if parts == 1:
        return [(k,)]
    return [(first, *rest) for first in range(k + 1) for rest in _splits(k - first, parts - 1)]


def _difference_cp(cdf, delta, batch: slice, n_active: int):
    """P{I <= thr} of the lattice laws for every user order 1..n_active, and
    whether each is sound, both shaped (rows, n_active), from cdf, the inner
    law's CDF powers 0..n_active-1, and the rows batch of delta, the
    _difference of the outer law from the inner one. Rows that may not take
    the difference path are read as if their laws were equal.

    With out = in + Delta, in^(kappa-1) * out^(n-kappa) is the sum over k of
    C(n-kappa, k) in^(n-1-k) * Delta^k, and Delta^k puts the mass
    k!/prod(e_a!) prod(d_a^e_a) on the cell sum(e_a c_a) for each split e of k
    over the cells of Delta. Each term reads the CDF of in^(n-1-k) at L minus
    that cell, 0 where the cell is past L. The terms of each k are summed in a
    fixed order and every order then takes one matrix product, so an order's
    CP does not depend on which others are asked. The terms have both signs: a
    CP is sound when the same sum of their magnitudes is at most _DELTA_GROWTH
    times its own, so that it keeps its relative accuracy however small it is."""
    cells, d, counts, usable = delta
    usable = usable[batch]
    parts = int(counts[batch].max(initial=0, where=usable))
    if parts == 0:
        # the outer law is the inner one: every order reads in^(n-1)
        return (np.repeat(cdf[n_active - 1, :, -1:], n_active, axis=1),
                np.ones((usable.size, n_active), bool))
    cells, d = cells[batch, :parts], np.where(usable[:, None], d[batch, :parts], 0.0)
    level, e, multinomial, starts, binomial = _compositions(n_active, parts)
    rows = np.arange(cells.shape[0])[:, None]
    shift = cells @ e.T
    # d_a ** j for j = 0..n_active-1, by repeated products
    powers = np.ones((*d.shape, n_active))
    powers[:, :, 1:] = d[:, :, None]
    np.cumprod(powers, axis=2, out=powers)
    terms = multinomial * powers[:, 0, e[:, 0]]
    for a in range(1, parts):
        terms *= powers[:, a, e[:, a]]
    terms[shift > _LATTICE_CELLS] = 0.0
    terms *= cdf[level, rows, np.maximum(_LATTICE_CELLS - shift, 0)]
    cp = np.add.reduceat(terms, starts, axis=1) @ binomial.T
    size = np.add.reduceat(np.abs(terms, out=terms), starts, axis=1) @ binomial.T
    return cp, size <= _DELTA_GROWTH * np.abs(cp)


def _lattice_cp(thr: float, inner, outer, n_active: int, kappas):
    """Lower and upper bounds on P{I <= thr} for each user order in kappas.

    inner and outer are the (gains, probs) laws of one interferer on each
    side, shaped (m,) or (rows, m), one focal node per row. The bounds run
    one after the other, each with one _step_table per side for every row
    and their _difference, and the rows go _LATTICE_ROWS at a time, each
    batch cutting its rows out of the bound's tables. Each batch steps one
    ladder, the inner law's CDF powers: it starts from the CDF of zero
    interference, which is 1 on every cell, and each step convolves it with
    one more inner law (convolution commutes with the cumulative sum, and a
    CDF is 0 below cell 0). A batch with a row that may take the difference
    path steps it to power n_active-1 and gets every order of every row from
    _difference_cp, one sum for all orders, so an order's bounds do not
    depend on the others asked; any other batch steps it to the largest
    kappa-1. The orders that some row may not take from that sum, because
    its law differs too much or the order's sum is not sound, walk the outer
    law's pmf from power 0 to n_active minus the least of those orders, and
    CP_kappa is the dot product of the outer pmf power n_active-kappa with
    the inner CDF power kappa-1 read from the top down. Each row and order
    keeps the first of the two that it may take.
    Every batch writes its ladder into one workspace and shifts its
    arrays in one window buffer, both allocated once per call: taken afresh
    for every batch, they are large enough for the allocator to hand them
    back and fault them in again. Returns (lower, upper), each of shape
    (rows, len(kappas)).
    """
    kap = np.asarray(kappas, int)
    rows = np.atleast_2d(outer[1]).shape[0]
    ladder = np.empty((n_active, min(rows, _LATTICE_ROWS), _LATTICE_CELLS + 1))
    windows = _windows(ladder.shape[1])
    bounds = np.empty((2, rows, kap.size))

    def bound(round_up: bool, cp):
        # its two step tables die on return, before the other bound's
        table_in = _step_table(thr, *inner, round_up)
        table_out = _step_table(thr, *outer, round_up)
        delta = _difference(table_in, table_out, n_active)
        for lo in range(0, rows, _LATTICE_ROWS):
            batch = slice(lo, lo + _LATTICE_ROWS)
            cdf = ladder[:, :min(rows - lo, _LATTICE_ROWS)]
            law_in = _batch_law(table_in, batch)
            # the (row, order) pairs the difference path settles
            done = np.zeros((cdf.shape[1], kap.size), bool)
            usable = delta[3][batch].any()
            cdf[0] = 1.0
            for j in range(n_active - 1 if usable else int(kap.max()) - 1):
                cdf[j + 1] = _lattice_step(cdf[j], law_in, windows)
            if usable:
                got, sound = _difference_cp(cdf, delta, batch, n_active)
                cp[batch] = got[:, kap - 1]
                done = delta[3][batch, None] & sound[:, kap - 1]
            left = ~done.all(axis=0)
            if not left.any():
                continue
            law_out = _batch_law(table_out, batch)
            pmf = np.zeros(cdf.shape[1:])
            pmf[:, 0] = 1.0
            for k in range(n_active, int(kap[left].min()) - 1, -1):
                if k < n_active:
                    pmf = _lattice_step(pmf, law_out, windows)
                for q in np.flatnonzero(left & (kap == k)):
                    np.copyto(cp[batch, q], np.einsum("rl,rl->r", pmf, cdf[k - 1, :, ::-1]),
                              where=~done[:, q])

    for round_up, cp in zip((True, False), bounds):
        bound(round_up, cp)
    np.clip(bounds, 0.0, 1.0, out=bounds)
    return bounds[0], bounds[1]


def _node_cp(thr: float, inner, outer, n_active: int, kappas,
             closed_form: bool = False):
    """Lower and upper bounds on P{I <= thr} for each user order in kappas at
    each focal node.

    inner and outer are the (gains, probs) laws of one interferer on each
    side, shaped (rows, m), one node per row. closed_form gives the 'upper'
    route instead: every interferer's gain must stay below thr on its own,
    returned as both bounds. thr = 1/tau is positive: the callers settle
    tau = +inf before any law is built. Nodes where every interferer clears
    thr are covered for sure. Nodes with no gain in (0, thr] (the frozen
    region) are covered only when every interferer sits on gain 0, which is
    the closed-form product. The rest go through one _lattice_cp call.
    Returns (lower, upper), each of shape (rows, len(kappas)).
    """
    (g_in, p_in), (g_out, p_out) = inner, outer
    kap = np.asarray(kappas, int)
    # an exponent per node and order: numpy squares for a broadcast exponent
    # 2 but calls pow for varying ones, a last bit apart
    k = np.tile(kap, (g_in.shape[0], 1))
    closed = (((p_in * (g_in < thr)).sum(axis=1)[:, None] ** (k - 1))
              * ((p_out * (g_out < thr)).sum(axis=1)[:, None] ** (n_active - k)))
    if closed_form:
        return closed, closed
    lower, upper = closed.copy(), closed.copy()
    covered = thr > (n_active - 1) * np.maximum(g_in.max(axis=1), g_out.max(axis=1))
    lower[covered] = upper[covered] = 1.0
    frozen = ~(((g_in > 0) & (g_in <= thr)).any(axis=1)
               | ((g_out > 0) & (g_out <= thr)).any(axis=1))
    todo = np.flatnonzero(~(covered | frozen))
    if todo.size == covered.size:
        # a slice keeps the laws as views; the padded exact stacks are tens
        # of MB
        todo = slice(None)
    lower[todo], upper[todo] = _lattice_cp(
        thr, (g_in[todo], p_in[todo]), (g_out[todo], p_out[todo]), n_active, kap)
    return lower, upper


# ---------------------------------------------------------------------------
# Coverage probabilities


def _conditional_cp_bounds(tau: float, theta_k: float, r_k: float, kappa: int,
                           scenario: ScenarioConfig, mode: str) -> tuple[float, float]:
    """(lower, upper) bounds on the route's CP for user kappa fixed at
    (theta_k, r_k): the lattice bounds for 'exact' and 'mlap', the closed
    form twice for 'upper'. At tau = +inf both are 0 once the pinned user
    passes its checks, and no law is built."""
    if not tau > 0:
        raise DomainError("tau must be positive")
    if tau == math.inf:
        _pinned_sides(theta_k, r_k, kappa, scenario, mode)
        return 0.0, 0.0
    inner, outer = _pinned_laws(theta_k, r_k, kappa, scenario, mode)
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
                              scenario: ScenarioConfig) -> float:
    """SIR threshold whose coverage equals the SINR coverage at tau.

    With zero noise this is the identity. Where the noise term alone uses up
    the interference budget 1/tau it is +inf, which no SIR exceeds, so every
    route reads coverage 0 there."""
    if not tau > 0:
        raise DomainError("tau must be positive")
    if not r_k > 0:
        raise DomainError("r_k must be positive")
    noise = scenario.noise_term(r_k)
    if noise == 0.0:
        return tau
    budget = 1.0 / tau - noise
    return 1.0 / budget if budget > 0.0 else math.inf


def conditional_cp_sinr(tau: float, theta_k: float, r_k: float, kappa: int,
                        scenario: ScenarioConfig, mode: str = "mlap") -> float:
    """SINR coverage via the threshold substitution, for any conditional_cp
    mode. The pinned user is checked before its noise term is taken, so every
    input raises what conditional_cp raises for it."""
    _pinned_sides(theta_k, r_k, kappa, scenario, mode)
    return conditional_cp(sinr_equivalent_threshold(tau, r_k, scenario),
                          theta_k, r_k, kappa, scenario, mode)


# ---------------------------------------------------------------------------
# Overall metrics (averaged over the served user's location)

_N_THETA = 10
_N_RADIAL = 28


def _anchor_nodes(sec: SectorGeometry):
    """Half-sector angle nodes (the angular integrand is even, so weights are
    doubled) and radial nodes for the location average."""
    xt, wt = _gl_rule(_N_THETA)
    th = 0.5 * sec.half_width * (xt + 1.0)
    w_th = wt * 0.5 * sec.half_width * (sec.n_sectors / (2.0 * math.pi)) * 2.0
    xr, wr = _gl_rule(_N_RADIAL)
    r = 0.5 * sec.cell_radius * (xr + 1.0)
    w_r = wr * 0.5 * sec.cell_radius
    return th, w_th, r, w_r


def overall_cp(tau: float, kappa, scenario: ScenarioConfig, mode: str = "mlap"):
    """Coverage averaged over the kappa-th user's ordered location law: a
    float for one order, an array of kappa's shape for an array of orders.
    The node laws come from `_anchor_laws`, and one `_node_cp` and one
    `ordered_distance_dist` call serve every order. tau = +inf has no finite
    rate and is rejected."""
    if not 0 < tau < math.inf:
        raise DomainError("tau must be positive and finite")
    n_active, sec = scenario.n_active, scenario.sector
    kap = _user_orders(kappa, n_active)
    if mode not in _MODES:
        raise InvalidArgumentError("mode must be 'exact', 'mlap' or 'upper'")
    out = np.ones(kap.shape)
    if n_active > 1:
        orders = kap.ravel()
        th, w_th, r, w_r = _anchor_nodes(sec)
        laws = _anchor_laws(scenario.array, sec, scenario.mlap, mode == "exact")
        lower, upper = _node_cp(1.0 / tau, *laws, n_active, orders,
                                closed_form=mode == "upper")
        cp_nodes = (0.5 * (lower + upper)).reshape(th.size, r.size, orders.size)
        _, pdf = ordered_distance_dist(orders[:, None], r, n_active, sec)
        w = w_r * pdf
        w /= w.sum(axis=1, keepdims=True)
        # the angle nodes are summed one at a time: a matrix product would sum
        # them by BLAS for one order and by numpy's own loop for several
        cp_r = np.zeros(w.shape)
        for w_i, cp_i in zip(w_th, cp_nodes):
            cp_r += w_i * cp_i.T
        out = np.clip([c @ w_q for c, w_q in zip(cp_r, w)], 0, 1).reshape(kap.shape)
    return float(out) if out.ndim == 0 else out


def se_and_ase(tau: float, scenario: ScenarioConfig, mode: str = "mlap"):
    """Per-user spectrum efficiencies CP_k * log2(1+tau) and the aggregate
    per-area efficiency over the sector."""
    kappas = np.arange(1, scenario.n_active + 1)
    se = overall_cp(tau, kappas, scenario, mode) * math.log2(1.0 + tau)
    sector_area = math.pi * scenario.sector.cell_radius**2
    ase = scenario.sector.n_sectors / sector_area * float(se.sum())
    return se, ase

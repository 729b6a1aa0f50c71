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

One per-node evaluator, _node_cp, turns the side laws into the CP bounds of
every user order at a finite tau (at tau = +inf conditional CP is 0 before
any law is built), the mode picking the route: 1 where every interferer
clears 1/tau, the all-interferers-at-zero probability where no gain falls in
(0, 1/tau] (the frozen region), the closed-form product for the upper bound,
and the lattice bounds below for the rest. Its node laws come from one
cached builder, _node_laws: the quantized laws, or the side grids for
'exact', of a tuple of focal nodes, built once per array, sector, pattern
and nodes. A pinned user is a one-node call and reads its own order. The
location average makes one call with its quadrature nodes, runs _node_cp on
them once per threshold and weighs the orders asked with one broadcast call
of the order-statistic law. Every call gives every order, so an order's CP
cannot depend on the others asked.

Both routes recover the CDF with one truncated lattice convolution (the
compound-sum technique of Panjer recursion and FFT aggregation). Gains are
nonnegative, so P{I <= 1/tau} depends only on each side's gain law on
[0, 1/tau]: that law is put on the L+1 lattice points k*h, h = 1/(tau*L),
with the mass above 1/tau dropped. The lattice is sized by route: L = 255
for the quantized laws, whose error then lies below that of the location
quadrature, and L = 1023 for the exact route's side grids, whose bracket is
wider (_MLAP_CELLS, _EXACT_CELLS). Rounding every gain up gives a lower bound
on CP and rounding it down an upper bound; atoms that land on one point are
merged. Each side is raised to its power one convolution at a time,
truncated to [0, L] after every step, which is exact for the rounded laws.
One evaluation puts each law on the lattice once for both bounds: a step
table holds every node's law rounded up in its first half of rows and
rounded down in its second, and those rows run in batches of
_BATCH_CELLS // (L+1), each batch slicing its rows out of the tables. A step
takes one of two forms, chosen from the batch. When none of its rows keeps
more than _SHIFT_ADD_ATOMS atoms, it adds that many shifted copies of the
array, weighted by the atoms' masses; the quantized laws have M+2 atoms
before merging, so mlap up to M = 24 always goes this way. Denser laws, such
as the exact route's binned histograms, multiply 2(L+1)-point FFT spectra,
taken once per batch. The constant's comment gives the measured costs of
both. Every batch steps one ladder, the inner law's CDF powers to
n_active-1 (convolution commutes with the cumulative sum, and a CDF is 0
below cell 0, so a CDF steps like a pmf). The quantized laws of one node
share every gain on both sides and differ only in the masses of the zero
level, g_0 and g_1, so the outer law is the inner one plus the signed masses
p_out - p_in, which go on the lattice like any law. Where a row's difference
has few enough terms (_DELTA_TERMS), expanding each outer power binomially
around the inner law gives every order's CP as a fixed sum of those CDFs,
read a few cells below the top (_difference_cp): n_active-1 steps in all. An
order whose signed terms cancel too far for its CP to keep its relative
accuracy (_DELTA_GROWTH), and every order of the other rows, such as the
exact route's, whose sides have gains of their own, walks the outer law's
pmf powers instead; CP_kappa is then the dot product of the outer pmf power
n_active-kappa with the inner CDF power kappa-1 read from the top down. The
batches of one evaluation write their ladders into one workspace and shift
their arrays in one window buffer, which keeps the allocator from handing
that memory back and faulting it in again for every batch. The public
functions return the midpoint of the two bounds. For the exact route the
bracket covers the lattice rounding and the inner mass that the side grid
puts at gain 0, not the other errors of the side grid: its cells and its
gain bins.

A user pinned at (theta_k, r_k) is checked on every call, before the
builder hands out its cached laws: the mode, then the user with
geometry._pinned_user, which Monte Carlo's conditional sampler runs too:
order, sector (NaN lies outside), supports (a side that holds an interferer
needs room for it, so r_k = 0 is rejected with inner interferers and the
cell edge with outer ones), then the focus (a beam focused on the array has
no beam depth). In every mode a side that holds no interferer has all its
mass at gain 0 (the zero level g_{M+1} of the quantized laws), and nothing
is built for it.

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
                theta_k, r_k, sides: tuple[bool, bool]) -> tuple[np.ndarray, ...]:
    """Quantized laws (g, p_in, p_out) of the beams focused on the points
    (theta_k, r_k), two equal-length arrays, each shaped (rows, M+2): the
    levels g_0..g_{M+1} and the probability that one inner / outer
    interferer lands on each of them. A side that sides marks as holding no
    interferer has all its mass on the zero level g_{M+1}.

    Only g_0, through the asymptotic gain, and the beam-depth edges depend on
    the focal point; the first point's mlap_levels gives its g_0, the other
    levels and checks the configuration. Mainlobe levels combine the
    spatial-angle mass of the first-null band with the conditional radial
    mass beyond / inside the beam-depth interval; sidelobe levels use only
    the angle bands, so they are side-independent. The zero level takes the
    rest.
    """
    n = array.n_antennas
    m = mlap.n_levels
    first = mlap_levels(array, mlap, PolarPoint(float(theta_k[0]), float(r_k[0])))
    g = np.tile(first.gains, (r_k.size, 1))
    g[1:, 0] = first.gains[1] * asymptotic_gain(array, theta_k[1:], r_k[1:])
    # an unbounded interval reaches past the cell, where both radial CDFs are 1
    depth = beam_depth(array, theta_k, r_k, mlap.beta_gamma)
    vk = 0.5 * np.sin(theta_k)
    # spatial-angle CDF at the band edges vk + k/N, k = -M..M
    cdf = spatial_angle_cdf_extended(vk[:, None] + np.arange(-m, m + 1) / n, sector)
    band = np.diff(cdf, axis=1)
    a_main = cdf[:, m + 1] - cdf[:, m - 1]
    # lobe i >= 2 covers the band (i-1)/N..i/N on either side of vk
    a_side = band[:, m + 1:] + band[:, :m - 1][:, ::-1]

    def law(side, used):
        if not used:
            return np.tile(np.eye(m + 2)[-1], (r_k.size, 1))
        f_left = conditional_cdf_extended(side, depth.d_left, r_k, sector)
        f_right = conditional_cdf_extended(side, depth.d_right, r_k, sector)
        p = np.clip(np.column_stack([a_main * (1.0 - f_right),
                                     a_main * (f_right - f_left), a_side]), 0.0, 1.0)
        rest = np.maximum(0.0, 1.0 - np.cumsum(p, axis=1)[:, -1])
        return np.column_stack([p, rest])

    return g, law("inner", sides[0]), law("outer", sides[1])


@lru_cache(maxsize=32)
def _node_laws(array: ArrayConfig, sector: SectorGeometry, mlap: MlapConfig, exact: bool,
               theta_k: tuple, r_k: tuple, sides: tuple[bool, bool]):
    """(inner, outer) gain laws (g, p) of one interferer at the focal nodes
    (theta_k, r_k), read-only, each shaped (nodes, m): each node's side grids
    if exact, its quantized laws otherwise. A side that sides marks as
    holding no interferer gets all its mass at gain 0, and nothing is built
    for it. The laws depend on neither the threshold nor the user count, so
    one build serves every call on an array, sector, pattern and nodes. The
    side grids differ in length; each row is padded to the widest of its side
    with zero-mass atoms at gain 0, which change no bound."""
    if exact:
        laws = []
        for side, used in zip(("inner", "outer"), sides):
            grids = [_side_grid(array, sector, mlap, side, t, d) if used else _EMPTY_SIDE
                     for t, d in zip(theta_k, r_k)]
            g = np.zeros((len(grids), max(gains.size for gains, _ in grids)))
            p = np.zeros_like(g)
            for row, (gains, w) in enumerate(grids):
                g[row, :gains.size], p[row, :gains.size] = gains, w
            laws.append((g, p))
    else:
        g, p_in, p_out = _level_laws(array, sector, mlap, np.array(theta_k), np.array(r_k),
                                     sides)
        laws = [(g, p_in), (g, p_out)]
    for law in laws:
        for a in law:
            a.flags.writeable = False
    return tuple(laws)


def _pinned_laws(theta_k: float, r_k: float, kappa: int, scenario: ScenarioConfig,
                 mode: str):
    """The _node_laws of user kappa fixed at (theta_k, r_k), each shaped
    (1, m): side grids for 'exact', quantized laws otherwise. The user is
    checked on every call, before any cached law is handed out."""
    sides = _pinned_sides(theta_k, r_k, kappa, scenario, mode)
    return _node_laws(scenario.array, scenario.sector, scenario.mlap, mode == "exact",
                      (float(theta_k),), (float(r_k),), sides)


def level_probabilities(theta_k: float, r_k: float, kappa: int,
                        scenario: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """(p_in, p_out): the probability that one inner / outer interferer lands
    on each quantized gain level g_0..g_{M+1} of the beam focused on
    (theta_k, r_k). A side that holds no interferer, the inner one of
    kappa = 1 or the outer one of the last user on the cell edge, has all
    its mass on the zero level g_{M+1}."""
    (_, p_in), (_, p_out) = _pinned_laws(theta_k, r_k, kappa, scenario, "mlap")
    return p_in[0].copy(), p_out[0].copy()


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

# Lattice cells L on [0, 1/tau], one size per route, which the callers pick
# from the mode. The bound width shrinks as 1/L; 2(L+1)-point FFTs keep every
# product of two truncated laws free of wrap-around.
# The quantized laws: against L = 16383, which lies within 2.2e-7 of
# L = 65535, the largest error of the baseline overall_cp in mlap over its 15
# orders and the 9 default thresholds is 1.57e-3 at L = 127, 5.65e-5 at 255
# and 5.24e-5 at 511 and 1023; the largest half-width of an overall_cp
# bracket, the node brackets weighed as the location average weighs them, is
# 9.4e-5 at 255 and 5.2e-5 at 1023. L = 255 takes about 0.09 s for that
# location average in mlap and upper, L = 1023 about 0.26 s.
_MLAP_CELLS = 255
# The exact side grids: at L = 255 the exact CP of kappa = 3 at (0 rad, 30 m),
# 5 dB, lies 2.43e-3 from its Monte Carlo value, outside the 2.05e-3 that the
# agreement test allows; at L = 1023 it lies inside.
_EXACT_CELLS = 1023
# Lattice cells per batch: a batch runs _BATCH_CELLS // (L+1) focal nodes, 8
# at 1024 cells and 32 at 256. Its shift-and-add gather holds
# rows x atoms x (L+1) doubles, 0.7 MB at M = 10 either way, which fits a
# 2 MiB L2 cache. The baseline mlap and upper location average at the 9
# default thresholds, in process at 256 cells, took 0.098-0.100 s at 16 rows,
# 0.091-0.093 s at 32, 0.093-0.098 s at 64 and 0.115-0.138 s at 128 (medians
# of 7 calls in three rotated rounds; Xeon, 2 MiB L2 per core). At 1024 cells
# the budget keeps the 8 rows that the exact route ran before.
_BATCH_CELLS = 8 * 1024
# Most merged atoms per row for which a shift-and-add step beats a
# 2(L+1)-point FFT round trip. One _lattice_cp call, n_active = 15, every
# order, atoms on distinct cells (medians of 15 calls, same machine): at 256
# cells and 32 rows, 20 atoms 6.2 ms against 8.2 ms by FFT, 24 atoms 7.8
# against 8.3, 28 atoms 10.3 against 8.8, 44 atoms 17.9 against 8.7; at 1024
# cells and 8 rows, 32 atoms 9.2 against 10.7, 36 atoms 11.5 against 10.9.
# On 256 cells the quantized laws at the 9 default thresholds keep at most
# 11 atoms at the baseline M = 10, 32 at M = 42 and 45 at M = 64. Their
# location average took 0.086 s at M = 10 with this constant at 26 or 44;
# at M = 42 it took 0.193 s at 26 against 0.210 s at 44, and at M = 64
# 0.205 s against 0.243 s (medians of 8 calls in four rotated rounds). The
# exact route's binned histograms keep hundreds of atoms and take the FFT
# either way.
_SHIFT_ADD_ATOMS = 26
# The difference path: where both sides' laws share their gains, as the
# quantized laws of one node do, a row may skip the outer pmf walk. Its sums
# of signed terms can cancel, so each order's sum of the terms' magnitudes
# must stay within _DELTA_GROWTH times its CP, or that order walks the outer
# pmf.
_DELTA_GROWTH = 16.0
# Most terms per row of the difference path, C(n_active - 1 + c, c) for a
# difference of c cells, per step it saves. A term costs about 24 ns a row
# to gather and sum with its magnitude, a shift-and-add step about 1.3 us a
# row (32 rows, 10 atoms, 256 cells; Xeon, 2 MiB L2 per core), so the path
# breaks even near 55 terms a step. The baseline's differences have one to
# three cells, 15 to 680 terms for 14 steps saved (three in 18 of its 126
# batches of 32 rows), and its location average in mlap and upper at the 9
# default thresholds took 0.086-0.090 s at 64, 0.091-0.098 s at 16, which
# sends the three-cell rows to the pmf walk, and 0.15-0.16 s with the path
# off (0). Three cells take it up to 17 users, two up to 125 and one always;
# 0 takes no row.
_DELTA_TERMS = 64


def _step_table(thr: float, gains, probs, n_cells: int):
    """One interferer's gain law put on the lattice k*thr/L, L = n_cells, for
    both bounds, one law per row of (gains, probs), which broadcast to
    (R, m): (cells, masses, counts), 2R rows.

    Mass above thr is dropped. Rows 0..R-1 round the rest up (lower CP
    bound), rows R..2R-1 round it down (upper), and the atoms that land on
    one cell are merged. The masses may be signed, as those of a _difference
    are; a cell whose masses cancel to 0 is dropped. Row r holds its
    counts[r] merged atoms first, in rising cell order, then zero-mass atoms
    at cell 0; cells and masses are (2R, counts.max())."""
    gains, probs = np.broadcast_arrays(np.atleast_2d(gains), np.atleast_2d(probs))
    rows, m = gains.shape
    width = n_cells + 1
    kept = np.flatnonzero((gains <= thr) & (probs != 0))
    p = np.tile(probs.ravel()[kept], 2)
    # in place: the exact stacks keep millions of atoms
    x = gains.ravel()[kept]
    x *= n_cells / thr
    cell = np.concatenate([np.ceil(x), np.floor(x, out=x)])
    np.minimum(cell, n_cells, out=cell)
    # one key per row and cell: equal keys are one atom, merged by sorting
    # the keys. A pass over every cell beats that only where a law keeps an
    # atom per few cells, as only the pinned exact rows do: about 1 ms a run.
    row = np.floor_divide(kept, m, out=kept)
    flat = np.concatenate([row, row + rows]) * width + cell.astype(np.intp)
    rows *= 2
    key, atom = np.unique(flat, return_inverse=True)
    mass = np.bincount(atom, p, key.size)
    key, mass = key[mass != 0], mass[mass != 0]
    row, cell = np.divmod(key, width)
    counts = np.bincount(row, minlength=rows)
    at = np.arange(key.size) - (np.cumsum(counts) - counts)[row]
    cells = np.zeros((rows, counts.max(initial=0)), np.intp)
    masses = np.zeros(cells.shape)
    cells[row, at] = cell
    masses[row, at] = mass
    return cells, masses, counts


def _batch_law(table, batch: slice, n_cells: int):
    """The rows batch of a _step_table on n_cells cells, cut to their own
    atom count, as the law of a _lattice_step: (rows, window starts, masses)
    to shift and add, or, with more than _SHIFT_ADD_ATOMS atoms in a row, the
    2(L+1)-point spectrum to multiply by."""
    cells, masses, counts = table
    m = int(counts[batch].max())
    cells, masses = cells[batch, :m], masses[batch, :m]
    width = n_cells + 1
    row = np.arange(cells.shape[0])[:, None]
    if m <= _SHIFT_ADD_ATOMS:
        # a[r, s - c] is window width - c at s
        return row, width - cells, masses[:, None, :]
    pmf = np.bincount((row * width + cells).ravel(), masses.ravel(), row.size * width)
    return np.fft.rfft(pmf.reshape(row.size, width), 2 * width)


def _windows(rows: int, n_cells: int):
    """The windows of width L+1, L = n_cells, of a zeroed (rows, 2(L+1))
    buffer: a step writes its array into window L+1, the right half, and the
    left half stays zero, the cells below 0."""
    width = n_cells + 1
    return np.lib.stride_tricks.sliding_window_view(np.zeros((rows, 2 * width)), width,
                                                    axis=1, writeable=True)


def _lattice_step(a, law, windows, out, n_cells: int):
    """a, shaped (rows, L+1), L = n_cells, convolved with each row's law
    from _batch_law and truncated to [0, L], written into out, which may be a
    itself: both forms read a before they write.

    A shift-and-add law sums shifted copies of the array read from windows
    (see _windows, at least rows rows), out[r, s] = sum_i p[r, i]
    a[r, s - c[r, i]], which is exact and never negative. A spectrum is
    multiplied by."""
    width = n_cells + 1
    if isinstance(law, tuple):
        row, start, p = law
        windows[:row.size, width] = a
        np.matmul(p, windows[row, start], out=out[:, None])
        return
    full = np.fft.irfft(np.fft.rfft(a, 2 * width) * law, 2 * width)
    np.maximum(full[:, :width], 0.0, out=out)


def _difference(thr: float, inner, outer, n_active: int, n_cells: int):
    """The outer law less the inner one on the lattice of n_cells cells, row
    by row and for both bounds, as (cells, masses, counts, usable): the
    _step_table of the signed masses p_out - p_in. usable[r] tells whether
    row r may take the difference path: its C(n_active - 1 + counts[r],
    counts[r]) terms are at most _DELTA_TERMS per step saved, and their
    binomials C(n_active-kappa, k) are finite doubles (up to 1030 users).
    None where no row may, as where the two laws do not share their gains,
    like the exact side grids."""
    (g_in, p_in), (g_out, p_out) = inner, outer
    if not np.array_equal(g_in, g_out):
        return None
    cells, d, counts = _step_table(thr, g_in, p_out - p_in, n_cells)
    fits = [math.comb(n_active - 1 + c, c) <= _DELTA_TERMS * (n_active - 1)
            for c in range(counts.max(initial=0) + 1)]
    usable = np.array(fits)[counts]
    usable &= math.comb(n_active - 1, (n_active - 1) // 2) <= sys.float_info.max
    return (cells, d, counts, usable) if usable.any() else None


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


def _difference_cp(cdf, delta, batch: slice, n_active: int, n_cells: int):
    """P{I <= thr} of the lattice laws for every user order 1..n_active, and
    where it is done, both shaped (rows, n_active), from cdf, the inner law's
    CDF powers 0..n_active-1, and the rows batch of delta, the _difference of
    the outer law from the inner one. A row that may not take the difference
    path is done nowhere.

    With out = in + Delta, in^(kappa-1) * out^(n-kappa) is the sum over k of
    C(n-kappa, k) in^(n-1-k) * Delta^k, and Delta^k puts the mass
    k!/prod(e_a!) prod(d_a^e_a) on the cell sum(e_a c_a) for each split e of k
    over the cells of Delta. Each term reads the CDF of in^(n-1-k) at
    L = n_cells minus that cell, 0 where the cell is past L. The terms of
    each k are summed in a fixed order and every order then takes one matrix
    product. The terms have both signs: an order is done where the same sum
    of their magnitudes is at most _DELTA_GROWTH times its CP, so that it
    keeps its relative accuracy however small it is."""
    cells, d, counts, usable = delta
    usable = usable[batch]
    parts = int(counts[batch].max(initial=0, where=usable))
    if parts == 0:
        # the outer law is the inner one: every order reads in^(n-1)
        return (np.repeat(cdf[n_active - 1, :, -1:], n_active, axis=1),
                np.repeat(usable[:, None], n_active, axis=1))
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
    terms[shift > n_cells] = 0.0
    terms *= cdf[level, rows, np.maximum(n_cells - shift, 0)]
    cp = np.add.reduceat(terms, starts, axis=1) @ binomial.T
    size = np.add.reduceat(np.abs(terms, out=terms), starts, axis=1) @ binomial.T
    return cp, usable[:, None] & (size <= _DELTA_GROWTH * np.abs(cp))


def _lattice_cp(thr: float, inner, outer, n_active: int, n_cells: int):
    """Lower and upper bounds on P{I <= thr} for every user order
    1..n_active, on a lattice of L = n_cells cells.

    inner and outer are the (gains, probs) laws of one interferer on each
    side, shaped (m,) or (R, m), one focal node per row. The inner law's
    _step_table and the _difference of the outer law from it hold both
    bounds, 2R rows, which go _BATCH_CELLS // (L+1) at a time, but at least
    one, each batch cutting its rows out of those tables. Each batch steps
    one ladder, the inner law's CDF powers 0..n_active-1: it starts from the
    CDF of zero interference, which is 1 on every cell, and each step
    convolves it with one more inner law (convolution commutes with the
    cumulative sum, and a CDF is 0 below cell 0). Where a difference exists,
    _difference_cp gives every order of the batch's rows from that ladder.
    The (row, order) pairs it leaves undone walk the outer law's pmf powers
    0..n_active-1 from its _step_table, built for the first such batch;
    CP_kappa is the dot product of the outer pmf power n_active-kappa with
    the inner CDF power kappa-1 read from the top down.
    Every batch writes its ladder into one workspace and shifts its arrays
    in one window buffer, both allocated once per call: taken afresh for
    every batch, they are large enough for the allocator to hand them back
    and fault them in again. Returns (lower, upper), each of shape
    (R, n_active).
    """
    rows = 2 * np.atleast_2d(outer[1]).shape[0]
    size = max(1, _BATCH_CELLS // (n_cells + 1))
    ladder = np.empty((n_active, min(rows, size), n_cells + 1))
    windows = _windows(ladder.shape[1], n_cells)
    table_in = _step_table(thr, *inner, n_cells)
    delta = _difference(thr, inner, outer, n_active, n_cells)
    table_out = None
    cp = np.empty((rows, n_active))
    for lo in range(0, rows, size):
        batch = slice(lo, lo + size)
        cdf = ladder[:, :min(rows - lo, size)]
        law_in = _batch_law(table_in, batch, n_cells)
        cdf[0] = 1.0
        for j in range(n_active - 1):
            _lattice_step(cdf[j], law_in, windows, cdf[j + 1], n_cells)
        done = np.zeros((cdf.shape[1], n_active), bool)
        if delta is not None:
            cp[batch], done = _difference_cp(cdf, delta, batch, n_active, n_cells)
        if done.all():
            continue
        if table_out is None:
            table_out = _step_table(thr, *outer, n_cells)
        law_out = _batch_law(table_out, batch, n_cells)
        pmf = np.zeros(cdf.shape[1:])
        pmf[:, 0] = 1.0
        for k in range(n_active, 0, -1):
            if k < n_active:
                _lattice_step(pmf, law_out, windows, pmf, n_cells)
            np.copyto(cp[batch, k - 1], np.einsum("rl,rl->r", pmf, cdf[k - 1, :, ::-1]),
                      where=~done[:, k - 1])
    np.clip(cp, 0.0, 1.0, out=cp)
    return cp[:rows // 2], cp[rows // 2:]


def _node_cp(thr: float, inner, outer, n_active: int, mode: str):
    """Lower and upper bounds on the route's P{I <= thr} at each focal node
    for every user order 1..n_active, each shaped (rows, n_active).

    inner and outer are the (gains, probs) laws of one interferer on each
    side, shaped (rows, m), one node per row: side grids for 'exact',
    quantized laws otherwise. 'upper' gives the closed form as both bounds:
    every interferer's gain must stay below thr on its own. thr = 1/tau is
    positive: the callers settle tau = +inf before any law is built. Nodes
    where every interferer clears thr are covered for sure. Nodes with no
    gain in (0, thr] (the frozen region) are covered only when every
    interferer sits on gain 0, which is the closed-form product. The rest,
    if any, go through one _lattice_cp call, on _EXACT_CELLS cells for
    'exact' and _MLAP_CELLS for 'mlap'. The side grids put the inner mass
    inside r_k sqrt(_INNER_MASS_TOL) at gain 0, so the exact lower bound
    takes off the chance 1 - (1 - _INNER_MASS_TOL)^(kappa-1) that an inner
    interferer lies there, wherever its gain.
    """
    (g_in, p_in), (g_out, p_out) = inner, outer
    # an exponent per node and order: numpy squares for a broadcast exponent
    # 2 but calls pow for varying ones, a last bit apart
    k = np.tile(np.arange(1, n_active + 1), (g_in.shape[0], 1))
    closed = (((p_in * (g_in < thr)).sum(axis=1)[:, None] ** (k - 1))
              * ((p_out * (g_out < thr)).sum(axis=1)[:, None] ** (n_active - k)))
    if mode == "upper":
        return closed, closed
    lower, upper = closed.copy(), closed.copy()
    covered = thr > (n_active - 1) * np.maximum(g_in.max(axis=1), g_out.max(axis=1))
    lower[covered] = upper[covered] = 1.0
    frozen = ~(((g_in > 0) & (g_in <= thr)).any(axis=1)
               | ((g_out > 0) & (g_out <= thr)).any(axis=1))
    todo = np.flatnonzero(~(covered | frozen))
    if todo.size:
        # a slice keeps the laws as views; the padded exact stacks are tens
        # of MB
        rows = slice(None) if todo.size == covered.size else todo
        lower[rows], upper[rows] = _lattice_cp(
            thr, (g_in[rows], p_in[rows]), (g_out[rows], p_out[rows]), n_active,
            _EXACT_CELLS if mode == "exact" else _MLAP_CELLS)
    if mode == "exact":
        lower += np.expm1((k[0] - 1) * math.log1p(-_INNER_MASS_TOL))
        np.maximum(lower, 0.0, out=lower)
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
    lower, upper = _node_cp(1.0 / tau, inner, outer, scenario.n_active, mode)
    return float(lower[0, kappa - 1]), float(upper[0, kappa - 1])


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
    if not 0 < r_k < math.inf:
        raise DomainError("r_k must be positive and finite")
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
    The node laws come from `_node_laws`, and one `_node_cp` and one
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
        laws = _node_laws(scenario.array, sec, scenario.mlap, mode == "exact",
                          tuple(np.repeat(th, r.size).tolist()),
                          tuple(np.tile(r, th.size).tolist()), (True, True))
        lower, upper = _node_cp(1.0 / tau, *laws, n_active, mode)
        cp_nodes = (0.5 * (lower + upper))[:, orders - 1].reshape(th.size, r.size,
                                                                  orders.size)
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

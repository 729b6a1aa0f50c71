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
          two phase coefficients, so one zero-padded FFT per beta node gives
          it at every spatial-angle column (see _side_grid).
  mlap  - G is the multi-level pattern; each side's gain law is a finite
          mixture of the quantized levels g_i with level-hit probabilities
          p_i from the spatial-angle law and the conditional distance law.
          One builder, vectorised over focal points, gives the levels and
          both sides' probabilities from array expressions (only the
          distance floor of g_0 and the beam-depth edges depend on the
          focal point); they do not depend on tau.

One per-node evaluator turns the side laws into CP for every route: it
returns 1 where every interferer clears 1/tau, the all-interferers-at-zero
probability where no gain falls in (0, 1/tau] (the frozen region), the
closed-form product for the upper bound, and the lattice bounds below for
the rest. The location average runs that evaluator on the quadrature nodes
once per threshold for every user order, in every mode on the node laws of
_anchor_laws: the quantized laws or the side grids, built once per array,
sector and pattern, whatever the user count.

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
with the reversed CDF of the outer power n_active-kappa, so the outer
ladder is held reversed from the start and its steps correlate instead of
convolving: the shift-and-add step reads its windows from the other end,
and the FFT step multiplies by the conjugate spectrum. The lattice batches
of one evaluation write their outer ladders into one workspace, which
keeps the allocator from handing that memory back and faulting it in
again for every batch. The public
functions return the midpoint of the two bounds. For the exact route the
bound covers the lattice rounding only, not the error of the side grid: its
cells and its gain bins.

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

from .errors import (DegenerateSupportError, DomainError, InvalidArgumentError,
                     NumericFailureError)
from .geometry import (PolarPoint, SectorGeometry, conditional_cdf_extended,
                       ordered_distance_dist, spatial_angle_cdf_extended)
from .pattern import (ArrayConfig, MlapConfig, MlapLevels, beam_depth, depth_edges,
                      distance_floor, mlap_levels)
from .scenario import ScenarioConfig

def _check_orders(kappas, n_active: int, mode: str):
    if not all(1 <= k <= n_active for k in kappas):
        raise InvalidArgumentError("kappa must be in [1, n_active]")
    if mode not in ("exact", "mlap", "upper"):
        raise InvalidArgumentError("mode must be 'exact', 'mlap' or 'upper'")


def _pinned_sides(theta_k: float, r_k: float, kappa: int, scenario: ScenarioConfig,
                  mode: str) -> tuple[bool, bool]:
    """Check user kappa fixed at (theta_k, r_k): order, mode, sector,
    supports. Returns whether the inner and the outer side hold an
    interferer; r_k = 0 leaves the inner support empty and r_k = cell_radius
    the outer one."""
    _check_orders([kappa], scenario.n_active, mode)
    sec = scenario.sector
    if abs(theta_k) > sec.half_width or not 0 <= r_k <= sec.cell_radius:
        raise DomainError("focal point outside the sector")
    inner, outer = kappa > 1, kappa < scenario.n_active
    if inner and r_k == 0.0:
        raise DegenerateSupportError("inner interferers conditioned on r_k = 0")
    if outer and r_k == sec.cell_radius:
        raise DegenerateSupportError("outer interferers conditioned on r_k = cell_radius")
    return inner, outer


def _level_laws(array: ArrayConfig, sector: SectorGeometry, mlap: MlapConfig,
                theta_k, r_k) -> tuple[np.ndarray, ...]:
    """Quantized laws (g, p_in, p_out) of the beams focused on the points
    (theta_k, r_k), two equal-length arrays, each shaped (rows, M+2): the
    levels g_0..g_{M+1} and the probability that one inner / outer
    interferer lands on each of them.

    Only g_0, through the distance floor, and the beam-depth edges depend on
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
    g[:, 0] = first.gains[1] * distance_floor(array, theta_k, r_k)
    # an unbounded interval reaches past the cell, where both radial CDFs are 1
    d_left, d_right, _ = depth_edges(array, theta_k, r_k, mlap.beta_gamma)
    vk = 0.5 * np.sin(theta_k)
    # spatial-angle CDF at the band edges vk + k/N, k = -M..M
    cdf = spatial_angle_cdf_extended(vk[:, None] + np.arange(-m, m + 1) / n, sector)
    band = np.diff(cdf, axis=1)
    a_main = cdf[:, m + 1] - cdf[:, m - 1]
    # lobe i >= 2 covers the band (i-1)/N..i/N on either side of vk
    a_side = band[:, m + 1:] + band[:, :m - 1][:, ::-1]

    def law(side):
        f_left = conditional_cdf_extended(side, d_left, r_k, sector)
        f_right = conditional_cdf_extended(side, d_right, r_k, sector)
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
            g = np.zeros((len(grids), max(grid.g.size for grid in grids)))
            p = np.zeros_like(g)
            for row, grid in enumerate(grids):
                g[row, :grid.g.size], p[row, :grid.g.size] = grid.g, grid.w
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
        return tuple((grid.g[None], grid.w[None]) for grid in sides)
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


def laplace(s: complex, theta_k: float, r_k: float, kappa: int,
            scenario: ScenarioConfig, mode: str = "mlap") -> complex:
    """Interference Laplace transform E[exp(-s I)] for user kappa fixed at
    (theta_k, r_k): the inner factor to the (kappa-1) power times the outer
    factor to the (n_active-kappa) power, each the average of exp(-s G) over
    one interferer's gain law, the side grid ('exact') or the quantized
    levels ('mlap'). 'upper' is a CP bound and has no transform."""
    (g_in, p_in), (g_out, p_out) = _pinned_laws(theta_k, r_k, kappa, scenario, mode)
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
#
# An interferer at spatial angle v = sin(theta)/2 and distance r sees the beam
# focused on (theta_k, r_k) through two phase coefficients only:
#     alpha = 2 pi (v - v_k),
#     beta  = (pi lambda/4) (cos^2(theta_k)/r_k - (1 - 4 v^2)/r).
# For one beta, the gains at alpha = 2 pi m/(P N) for every m are one
# zero-padded FFT of exp(j beta n^2) of length P N; the half-integer offsets
# of even N only add a phase, which |.|^2 removes.

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
# how far in t the gain grid fully resolves exp(j t G); beyond it the
# binned histogram is still measure-accurate and its transform error
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


@lru_cache(maxsize=16)
def _side_grid(arr: ArrayConfig, sec: SectorGeometry, mlap: MlapConfig, side: str,
               theta_k: float, r_k: float) -> _SideGrid:
    """Gain law (g, w) of one interferer on one side of the user at
    (theta_k, r_k), binned on gain. It does not depend on the user count.

    The grid runs over (v, beta). Its v columns are cells of width 1/(P N)
    centred on the FFT samples v_k + m/(P N), each with its spatial-angle
    mass. Its beta cells come from `_beta_panels`, each panel cut into
    _ORD_BETA cells whose widths are its Gauss-Legendre weights and sampled
    at its nodes. The beam-depth edges and the focal distance, taken on the
    focal angle, are kinks of the panels. Within a column, beta maps to the
    distance r = c q / (c cos^2(theta_k)/r_k - beta), with c = pi lambda/4
    and q = 1 - 4 v^2, so a beta cell's mass is the conditional distance law
    between the distances its edges map to, clipped to the side's support.
    The inner side stops at r_k sqrt(_INNER_MASS_TOL), and the mass inside
    that goes to gain 0. The gains of one panel come from one FFT per node.
    The masses are summed into log bins of relative width _CLUSTER_REL, with
    every gain up to _CLUSTER_ABS in bin 0; each bin keeps its mass and its
    mean gain. The masses sum to 1 up to rounding.
    """
    # rejects r_k = 0 with a DomainError before anything divides by it
    depth = beam_depth(arr, theta_k, r_k, mlap.beta_gamma)
    n = arr.n_antennas
    pn = _FFT_PAD * n
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
    kinks = [focus * (1.0 - r_k / d) for d in (depth.d_left, depth.d_right, r_k)
             if d is not None]
    edges = _beta_panels(n, sorted({beta_lo, beta_hi,
                                    *(b for b in kinks if beta_lo < b < beta_hi)}))

    x, wt = _gl_rule(_ORD_BETA)
    cuts = np.append(0.0, np.cumsum(wt)) / wt.sum()
    offsets = np.arange(n) - (n - 1) / 2.0
    n_sq = offsets * offsets
    log_rel = math.log1p(_CLUSTER_REL)
    n_bins = math.ceil(math.log(1.0 / _CLUSTER_ABS) / log_rel) + 2
    w_sum = np.zeros(n_bins)
    gw_sum = np.zeros(n_bins)
    for lo, hi in zip(edges[:-1], edges[1:]):
        nodes = lo + (hi - lo) * 0.5 * (x + 1.0)
        cell = lo + (hi - lo) * cuts
        # panels share their edges exactly, so the masses telescope
        cell[0], cell[-1] = lo, hi
        spec = np.fft.ifft(np.exp(1j * nodes[:, None] * n_sq), pn)[:, cols]
        g = (spec.real ** 2 + spec.imag ** 2) * _FFT_PAD ** 2
        den = focus - cell[:, None]
        r = np.divide(cq, den, out=np.full((cell.size, cq.size), np.inf),
                      where=den > 0)
        w = np.diff(conditional_cdf_extended(side, np.maximum(r, r_lo), r_k, sec),
                    axis=0) * p_v
        bins = np.ceil(np.log(np.maximum(g, _CLUSTER_ABS) / _CLUSTER_ABS) / log_rel)
        bins = np.minimum(bins, n_bins - 1).astype(np.intp).ravel()
        w_sum += np.bincount(bins, w.ravel(), n_bins)
        gw_sum += np.bincount(bins, (g * w).ravel(), n_bins)
    w_sum[0] += trunc
    keep = w_sum > 0
    return _SideGrid(g=gw_sum[keep] / w_sum[keep], w=w_sum[keep])


# ---------------------------------------------------------------------------
# Truncated lattice convolution

# Lattice cells on [0, 1/tau]. The bound width shrinks as 1/L; 2(L+1)-point
# FFTs keep every product of two truncated laws free of wrap-around.
_LATTICE_CELLS = 1023
_NFFT = 2 * (_LATTICE_CELLS + 1)
# Focal nodes per lattice pass. One shift-and-add gather holds
# rows x atoms x (L+1) doubles: 0.8 MB at 8 rows and M = 10, which fits a
# 2 MiB L2 cache, and 2.8 MB at 28 rows, which does not. With one outer-
# ladder workspace per _node_cp call, a whole overall-analytic benchmark
# run (mlap and upper at 9 thresholds, N = 256, 15 users) took 1.44 s at
# 4 rows, 1.05 s at 8 and 1.20 s at 16 (medians of 6 rotated runs; Xeon,
# 2 MiB L2 per core).
_LATTICE_ROWS = 8
# Most positive-mass atoms per row for which a shift-and-add step beats a
# 2(L+1)-point FFT round trip, a measured crossover. One _lattice_cp call at
# 8 rows, n_active = 15: 12 atoms 7.6 ms against 21.5 ms by FFT, 28 atoms
# 18.4 against 19.4, 32 atoms 22.2 against 20.0, 48 atoms 32.5 against
# 19.7. So mlap laws up to M = 28 shift and add, while M = 128 and the exact
# route's binned histograms take the FFT.
_SHIFT_ADD_ATOMS = 30


def _lattice_step(thr: float, gains, probs, round_up: bool, reverse: bool = False):
    """One interferer's gain law put on the lattice k*thr/L, as a function
    that convolves a (rows, L+1) array with it, truncated to [0, L]. With
    reverse the array is held reversed, a[r, L - s], and so is the result:
    the step correlates instead of convolving.

    gains and probs broadcast to (rows, m), one law per row. Mass above thr
    is dropped; the rest is rounded up (lower CP bound) or down (upper). A
    law with at most _SHIFT_ADD_ATOMS positive-mass atoms in every row sums
    shifted copies of the array, new[r, s] = sum_i p[r, i] a[r, s - c[r, i]],
    which is exact and never negative; reversed, the same products are
    summed in the same order. Denser laws multiply spectra, by the
    conjugate one when reversed."""
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
        shift = np.take_along_axis(cell, first, axis=1)
        p = np.take_along_axis(np.where(keep, probs, 0.0), first, axis=1)[:, None, :]
        # a[r, s - c] is buf[r, width + s - c], and cells below 0 stay zero;
        # reversed, a[r, t + c] is buf[r, t + c], and cells above L stay zero
        buf = np.zeros((rows, 2 * width))
        windows = np.lib.stride_tricks.sliding_window_view(buf, width, axis=1)
        row = np.arange(rows)[:, None]
        if reverse:
            held = buf[:, :width]
        else:
            held, shift = buf[:, width:], width - shift

        def shift_add(a):
            held[...] = a
            return (p @ windows[row, shift])[:, 0]
        return shift_add

    flat = np.arange(rows)[:, None] * width + cell
    pmf = np.bincount(flat[keep], weights=probs[keep], minlength=rows * width)
    spectrum = np.fft.rfft(pmf.reshape(rows, width), _NFFT)
    if reverse:
        # index t + c stays below 2(L+1), so the correlation never wraps
        spectrum = spectrum.conj()

    def fft(a):
        out = np.fft.irfft(np.fft.rfft(a, _NFFT) * spectrum, _NFFT)
        return np.maximum(out[:, :width], 0.0)
    return fft


def _lattice_cp(thr: float, inner, outer, n_active: int, kappas, ladder=None):
    """Lower and upper bounds on P{I <= thr} for each user order in kappas.

    inner and outer are the (gains, probs) laws of one interferer on each
    side, shaped (m,) or (rows, m) for a batch of focal points. The outer
    ladder starts from the CDF of zero interference, which is 1 on every
    cell, and each step convolves it with one more outer law: convolution
    commutes with the cumulative sum, and a CDF is 0 below cell 0. Those
    CDFs are held reversed, so their steps correlate, and are written into
    ladder, at least (n_active - min(kappas) + 1, rows, L+1), which one
    caller can reuse over many calls; it is taken afresh when omitted. The
    inner pmf walks up the kappa ladder, so every order costs one dot
    product. Returns (lower, upper), each of shape (rows, len(kappas)).
    """
    kap = np.asarray(kappas, int)
    width = _LATTICE_CELLS + 1
    rows = np.atleast_2d(outer[1]).shape[0]
    n_out = n_active - int(kap.min())
    if ladder is None:
        ladder = np.empty((n_out + 1, rows, width))
    cdf_out = ladder[:n_out + 1, :rows]
    bounds = []
    for round_up in (True, False):
        step_in = _lattice_step(thr, *inner, round_up)
        step_out = _lattice_step(thr, *outer, round_up, reverse=True)
        cdf_out[0] = 1.0
        for j in range(n_out):
            cdf_out[j + 1] = step_out(cdf_out[j])
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
    at a time, every batch writing its outer ladder into one workspace.
    Returns (lower, upper), each of shape (rows, len(kappas)).
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
    # a fresh ladder per batch is large enough for the allocator to hand it
    # back and fault it in again every time
    ladder = np.empty((n_active - int(kap.min()) + 1, min(todo.size, _LATTICE_ROWS),
                       _LATTICE_CELLS + 1))
    for lo in range(0, todo.size, _LATTICE_ROWS):
        rows = todo[lo:lo + _LATTICE_ROWS]
        lower[rows], upper[rows] = _lattice_cp(
            thr, (g_in[rows], p_in[rows]), (g_out[rows], p_out[rows]), n_active, kap,
            ladder)
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


def _radial_weights_for_kappa(kappa, r, w_r, scenario):
    _, pdf = ordered_distance_dist(kappa, r, scenario.n_active, scenario.sector)
    w = w_r * pdf
    return w / w.sum()


def _overall_cp_batch(tau: float, scenario: ScenarioConfig, mode: str,
                      kappas) -> np.ndarray:
    """Overall CP for each requested kappa at one threshold.

    The node laws do not depend on kappa or on the threshold: every route
    reads them from `_anchor_laws`, built once per array, sector and
    pattern, and one `_node_cp` call serves every node and user order.
    """
    if not tau > 0:
        raise DomainError("tau must be positive")
    kap = np.asarray(list(kappas), int)
    _check_orders(kap, scenario.n_active, mode)
    n_active = scenario.n_active
    if n_active == 1:
        return np.ones(kap.size)
    th, w_th, r, w_r = _anchor_nodes(scenario.sector)
    laws = _anchor_laws(scenario.array, scenario.sector, scenario.mlap, mode == "exact")
    lower, upper = _node_cp(1.0 / tau, *laws, n_active, kap, closed_form=mode == "upper")
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

"""Near-field array physics: response vectors, polar-domain beam patterns,
beam-depth geometry, and the multi-level quantized pattern.

A half-wavelength ULA of N elements is centered at the origin, so the element
offsets n are integers for odd N and half-integers for even N (the baseline
N is even). A beam focused on (theta_f, r_f) produces, at an observation
point (theta, r), the normalized gain

    G = |sum_n exp(j Phi_n)|^2 / N^2,
    Phi_n = 2*pi*n*phi + c*n^2,
    phi = (sin theta - sin theta_f)/2,
    c = (pi*lambda/4)*((1-sin^2 theta_f)/r_f - (1-sin^2 theta)/r),

which peaks at 1 on the focal point, collapses to the angle-only squared
Dirichlet kernel in the far field, and along the focal angle reduces to a
Fresnel-integral profile whose -gamma-dB extent is the beam depth.

Every law has one checked implementation whose point arguments broadcast
together and which returns a float for scalar input: the point-pair laws
exact_gain (this gain) and mlap_gain (the multi-level pattern, with
mlap_level_index), and the distance-cut laws distance_gain,
asymptotic_gain, beam_depth and three_level_distance_gain, which take arrays
of focal points too. An interval that is unbounded on the right ends at inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import DomainError, InvalidArgumentError
from .fresnel import fresnel_integrals
from .geometry import PolarPoint

C_LIGHT = 299792458.0


@dataclass(frozen=True)
class ArrayConfig:
    """Half-wavelength ULA. Wavelength, spacing and aperture derive from the
    carrier frequency and are never set independently."""

    n_antennas: int
    carrier_freq: float

    def __post_init__(self):
        if self.n_antennas < 3:
            raise InvalidArgumentError("n_antennas must be >= 3")
        if not 0 < self.carrier_freq < math.inf:
            raise InvalidArgumentError("carrier_freq must be positive and finite")

    @property
    def wavelength(self) -> float:
        return C_LIGHT / self.carrier_freq

    @property
    def spacing(self) -> float:
        return 0.5 * self.wavelength

    @property
    def aperture(self) -> float:
        return (self.n_antennas - 1) * self.spacing

    @property
    def element_offsets(self) -> np.ndarray:
        """Element positions in units of the spacing, symmetric about the
        center (integers for odd N, half-integers for even N)."""
        return np.arange(self.n_antennas, dtype=float) - (self.n_antennas - 1) / 2.0

    @property
    def rayleigh_distance(self) -> float:
        """2 D^2 / lambda: beyond this the planar-wavefront model suffices."""
        return 2.0 * self.aperture**2 / self.wavelength

    @property
    def fresnel_distance(self) -> float:
        """0.62 sqrt(D^3/lambda): inner edge of the radiative near field."""
        return 0.62 * math.sqrt(self.aperture**3 / self.wavelength)


@dataclass(frozen=True)
class MlapConfig:
    """Multi-level pattern parameters: lobe count M, -3 dB depth constant
    beta_gamma, and the roll-off compensation factor delta."""

    n_levels: int
    beta_gamma: float = 1.3
    delta: float = 1.0 / math.sqrt(2.0)

    def __post_init__(self):
        if self.n_levels < 1:
            raise InvalidArgumentError("n_levels must be >= 1")
        if not 0 < self.beta_gamma < math.inf:
            raise InvalidArgumentError("beta_gamma must be positive and finite")
        if not 0 < self.delta < math.inf:
            raise InvalidArgumentError("delta must be positive and finite")


@dataclass(frozen=True)
class BeamDepthInterval:
    """Distance interval around the focal point where the distance-cut gain
    stays above the gamma-dB level. d_right is inf when the interval is
    unbounded (focal distance at or beyond focal_limit). The fields are
    floats for one focal point and arrays for an array of them."""

    d_left: float | np.ndarray
    d_right: float | np.ndarray
    focal_limit: float | np.ndarray

    @property
    def unbounded(self):
        return self.d_right == math.inf

    @property
    def depth(self):
        return self.d_right - self.d_left


@dataclass(frozen=True)
class MlapLevels:
    """Quantized gains g_0..g_{M+1} built for one focal point.

    gains[0] is the beyond-depth mainlobe level, g_1 times the asymptotic
    gain, gains[1] the in-depth mainlobe level, gains[m] the m-th lobe level,
    and gains[M+1] is exactly 0.
    """

    gains: tuple[float, ...]
    focal: PolarPoint
    depth: BeamDepthInterval = field(compare=False)

    @property
    def n_levels(self) -> int:
        return len(self.gains) - 2


class MStar(NamedTuple):
    m: int
    saturated: bool


def _float_if_scalar(a):
    return float(a) if np.ndim(a) == 0 else a


def array_response(cfg: ArrayConfig, p: PolarPoint) -> np.ndarray:
    """Unit-norm response vector from exact element distances.

    Element n carries phase -(2*pi/lambda)*(r_n - r) with
    r_n = sqrt(r^2 + n^2 d^2 - 2 r n d sin(theta)); the difference is formed
    as (n^2 d^2 - 2 r n d sin(theta)) / (r_n + r) to avoid cancellation at
    large r.
    """
    if not (0 < p.r < math.inf and math.isfinite(p.theta)):
        raise DomainError("array_response requires a finite angle and 0 < r < inf")
    n = cfg.element_offsets
    d = cfg.spacing
    a = n * n * d * d - 2.0 * p.r * n * d * math.sin(p.theta)
    rn = np.sqrt(p.r * p.r + a)
    delta_r = a / (rn + p.r)
    phase = -(2.0 * math.pi / cfg.wavelength) * delta_r
    return np.exp(1j * phase) / math.sqrt(cfg.n_antennas)


def exact_gain(cfg: ArrayConfig, theta_obs, r_obs, focal: PolarPoint):
    """Fresnel-phase pattern gain of a beam focused on `focal`, seen at the
    observation points (theta_obs, r_obs). The arguments broadcast together;
    scalar input gives a float. An observation distance may be +inf, the
    far-field limit."""
    theta_obs, r_obs = np.asarray(theta_obs, float), np.asarray(r_obs, float)
    if not (focal.r > 0 and np.all(r_obs > 0)):
        raise DomainError("exact_gain requires r > 0 for every point")
    if not (math.isfinite(focal.theta) and np.all(np.isfinite(theta_obs))):
        raise DomainError("exact_gain requires finite angles")
    g = kernels.gain_pairs(theta_obs, r_obs, focal.theta, focal.r,
                           cfg.n_antennas, cfg.wavelength)
    return float(g) if g.ndim == 0 else g


def angular_gain(n_antennas: int, phi):
    """Squared Dirichlet kernel sin^2(pi N phi) / (N sin(pi phi))^2.

    Removable singularities at integer phi evaluate to 1 via the series
    1 - (N^2-1)(pi e)^2/6 for |e| < 1e-6, e the distance to the nearest
    integer.
    """
    n = int(n_antennas)
    phi = np.asarray(phi, float)
    scalar = phi.ndim == 0
    phi = np.atleast_1d(phi)
    e = phi - np.round(phi)
    ratio = np.empty_like(e)
    tiny = np.abs(e) < 1e-6
    et = e[tiny]
    ratio[tiny] = 1.0 - (n * n - 1) * (math.pi * et) ** 2 / 6.0
    eb = e[~tiny]
    ratio[~tiny] = np.sin(math.pi * n * eb) / (n * np.sin(math.pi * eb))
    out = ratio * ratio
    return float(out[0]) if scalar else out


def ff_gain(cfg: ArrayConfig, theta: float, theta_focal: float) -> float:
    """Far-field (angle-only) pattern; identical to angular_gain at the
    spatial-angle offset (sin theta - sin theta_focal)/2."""
    phi = 0.5 * (math.sin(theta) - math.sin(theta_focal))
    return float(angular_gain(cfg.n_antennas, phi))


def _fresnel_profile(beta):
    # (C(b)^2 + S(b)^2)/b^2 with the b -> 0 limit handled by series; takes
    # an array and returns one
    beta = np.asarray(beta, float)
    c, s = fresnel_integrals(beta)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(beta < 1e-6, 1.0 - math.pi**2 * beta**4 / 45.0,
                        (c * c + s * s) / (beta * beta))


def _a_over(cfg: ArrayConfig, theta_focal, per):
    """A / per with A = N^2 d^2 (1-sin^2 theta_focal)/(2 lambda); theta_focal
    and per broadcast together."""
    if not np.all(np.isfinite(theta_focal)):
        raise DomainError("the focal angle must be finite")
    s2 = np.sin(theta_focal) ** 2
    return cfg.n_antennas**2 * cfg.spacing**2 * (1.0 - s2) / (2.0 * cfg.wavelength * per)


def distance_gain(cfg: ArrayConfig, theta_focal, r_focal, r_obs):
    """Gain along the focal angle as a function of observation distance only:
    |(C(beta) + j S(beta))/beta|^2 with beta = sqrt(A |1/r_focal - 1/r_obs|).
    The arguments broadcast together; scalar input gives a float."""
    r_focal, r_obs = np.asarray(r_focal, float), np.asarray(r_obs, float)
    if not (np.all(r_focal > 0) and np.all(r_obs > 0)):
        raise DomainError("distance_gain requires positive distances")
    beta = np.sqrt(_a_over(cfg, theta_focal, 1.0) * np.abs(1.0 / r_focal - 1.0 / r_obs))
    return _float_if_scalar(_fresnel_profile(beta))


def asymptotic_gain(cfg: ArrayConfig, theta_focal, r_focal):
    """Limit of distance_gain as the observation distance grows without
    bound, the Fresnel profile at beta = sqrt(A / r_focal). The arguments
    broadcast together; scalar input gives a float."""
    r_focal = np.asarray(r_focal, float)
    if not np.all(r_focal > 0):
        raise DomainError("asymptotic_gain requires r_focal > 0")
    return _float_if_scalar(_fresnel_profile(np.sqrt(_a_over(cfg, theta_focal, r_focal))))


def beam_depth(cfg: ArrayConfig, theta_focal, r_focal,
               beta_gamma: float) -> BeamDepthInterval:
    """Distance interval where the distance-cut gain exceeds the gamma level
    G_D(beta_gamma).

    The interval endpoints satisfy |1/r_focal - 1/r_end| = beta_gamma^2 / A
    with A = N^2 d^2 (1-sin^2 theta)/(2 lambda), so the depth scale is
    A / beta_gamma^2; unbounded on the right once r_focal reaches it. The
    focal arguments broadcast together; scalar input gives float fields. A
    beam focused at infinity has no beam depth, so r_focal must be finite.
    """
    r_focal = np.asarray(r_focal, float)
    if not np.all((r_focal > 0) & (r_focal < np.inf)):
        raise DomainError("beam_depth requires 0 < r_focal < inf")
    if not beta_gamma > 0:
        raise DomainError("beam_depth requires beta_gamma > 0")
    limit = _a_over(cfg, theta_focal, beta_gamma**2)
    left = r_focal * limit / (limit + r_focal)
    with np.errstate(divide="ignore"):
        right = np.where(r_focal < limit, r_focal * limit / (limit - r_focal), np.inf)
    edges = np.broadcast_arrays(left, right, limit)
    return BeamDepthInterval(*map(_float_if_scalar, edges))


def solve_beta_gamma(gamma_db: float) -> float:
    """Root of G_D(beta) = 10^(gamma_db/10) on the monotone head of the
    Fresnel profile (gamma_db in (-9, 0))."""
    if not -9.0 < gamma_db < 0.0:
        raise DomainError("gamma_db must lie in (-9, 0)")
    target = 10.0 ** (gamma_db / 10.0)
    lo, hi = 1e-9, 2.2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _fresnel_profile(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def three_level_distance_gain(cfg: ArrayConfig, theta_focal, r_focal, r_obs,
                              beta_gamma: float):
    """Three-level quantization of the distance cut: 1 inside the beam-depth
    interval, the asymptotic floor beyond it, 0 below it. Diagnostic pattern
    only; the composite multi-level pattern scales its mainlobe differently.
    The arguments broadcast together; scalar input gives a float."""
    r_obs = np.asarray(r_obs, float)
    if not np.all(r_obs > 0):
        raise DomainError("three_level_distance_gain requires r_obs > 0")
    depth = beam_depth(cfg, theta_focal, r_focal, beta_gamma)
    floor = asymptotic_gain(cfg, theta_focal, r_focal)
    g = np.where((r_obs > depth.d_left) & (r_obs < depth.d_right), 1.0,
                 np.where(r_obs >= depth.d_right, floor, 0.0))
    return _float_if_scalar(g)


def _lobe_levels(cfg: ArrayConfig, mlap: MlapConfig, count: int) -> np.ndarray:
    """The mid-lobe levels (delta/2) * G_A((2m-1)/(2N)) of the lobes
    m = 1..count."""
    n = cfg.n_antennas
    return mlap.delta / 2.0 * angular_gain(n, (2 * np.arange(1, count + 1) - 1) / (2.0 * n))


def mlap_levels(cfg: ArrayConfig, mlap: MlapConfig, focal: PolarPoint) -> MlapLevels:
    """Quantized gain levels for a beam focused on `focal`.

    g_1 = (delta/2) * G_A(0), g_m = (delta/2) * G_A((2m-1)/(2N)) for m >= 2,
    g_0 = g_1 * asymptotic gain, g_{M+1} = 0.
    """
    m = mlap.n_levels
    if m > cfg.n_antennas // 2:
        raise InvalidArgumentError("n_levels must not exceed floor(n_antennas/2)")
    g1 = mlap.delta / 2.0  # G_A(0) = 1
    floor = asymptotic_gain(cfg, focal.theta, focal.r)
    gains = (g1 * floor, g1, *_lobe_levels(cfg, mlap, m)[1:].tolist(), 0.0)
    depth = beam_depth(cfg, focal.theta, focal.r, mlap.beta_gamma)
    return MlapLevels(gains=gains, focal=focal, depth=depth)


def mlap_level_index(cfg: ArrayConfig, levels: MlapLevels, theta_obs, r_obs):
    """Index into levels.gains that the piecewise pattern selects at the
    observation points (theta_obs, r_obs). The arguments broadcast together;
    scalar input gives an int.

    The mainlobe |phi| <= 1/N maps to 0 beyond the beam-depth interval, 1
    inside it and M+1 below it; lobe m >= 2 covers (m-1)/N < |phi| <= m/N
    and maps to m, or to M+1 past the last kept lobe. An observation
    distance may be +inf, the far-field limit."""
    theta, r = np.broadcast_arrays(np.asarray(theta_obs, float),
                                   np.asarray(r_obs, float))
    if not (np.all(np.isfinite(theta)) and np.all(r > 0)):
        raise DomainError("the multi-level pattern requires finite angles and r > 0")
    phi = np.abs(0.5 * (np.sin(theta) - math.sin(levels.focal.theta)))
    idx = _level_index(cfg.n_antennas, levels, phi, r)
    return int(idx) if idx.ndim == 0 else idx


def _level_index(n: int, levels: MlapLevels, phi_abs, r) -> np.ndarray:
    """mlap_level_index at the spatial-angle offset |phi| and distance r."""
    m_max = levels.n_levels
    lobe = np.clip(np.ceil(phi_abs * n).astype(int), 2, m_max + 1)
    depth = levels.depth
    inside = (r > depth.d_left) & (r < depth.d_right)
    main = np.where(r >= depth.d_right, 0, np.where(inside, 1, m_max + 1))
    return np.where(phi_abs <= 1.0 / n, main, lobe)


def mlap_gain(cfg: ArrayConfig, levels: MlapLevels, theta_obs, r_obs):
    """Multi-level pattern gain at the observation points (theta_obs, r_obs);
    scalar input gives a float."""
    g = np.asarray(levels.gains)[mlap_level_index(cfg, levels, theta_obs, r_obs)]
    return float(g) if g.ndim == 0 else g


def m_star(cfg: ArrayConfig, mlap: MlapConfig, tau: float) -> MStar:
    """Smallest lobe count whose reference level drops below 1/tau.

    Levels are scored by the uniform mid-lobe rule
    (delta/2) * G_A((2m-1)/(2N)) for every m >= 1, i.e. the mainlobe counts
    at its half-offset midpoint, so low thresholds resolve to m = 1. Capped
    at floor(N/2); `saturated` marks a capped result.
    """
    if not tau > 0:
        raise DomainError("tau must be positive")
    cap = cfg.n_antennas // 2
    below = np.flatnonzero(_lobe_levels(cfg, mlap, cap) < 1.0 / tau)
    return MStar(int(below[0]) + 1, False) if below.size else MStar(cap, True)

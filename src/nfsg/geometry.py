"""Sector spatial model: uniform binomial point process over one cell sector,
with ordered and conditional distance distributions.

The sector spans angles [-pi/n_sectors, pi/n_sectors] with the base station at
the origin. A fixed number of active users is dropped i.i.d. uniformly over the
sector area, so radial distances have CDF (r/R_c)^2, and users are indexed by
increasing distance.

Draws come as (theta, r) arrays of shape (n_sets, n_active), one row per
realization: sample_user_arrays for free user sets, sample_conditional_arrays
for sets with one user pinned. The spatial-angle and conditional distance
CDFs are written once, in their *_cdf_extended form; spatial_angle_dist and
conditional_distance_dist check the support and add the PDF. NaN fails
every support check with DomainError. A pinned user is checked once, by
_pinned_user, which the conditional sampler and every analytic route call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSupportError, DomainError, InvalidArgumentError


@dataclass(frozen=True)
class SectorGeometry:
    """Cell sector: sector count, cell radius, LoS ball radius (meters)."""

    n_sectors: int
    cell_radius: float
    los_radius: float

    def __post_init__(self):
        # the spatial-angle law assumes |theta| <= pi/2, i.e. at least 2 sectors
        if self.n_sectors < 2 or int(self.n_sectors) != self.n_sectors:
            raise InvalidArgumentError("n_sectors must be an integer >= 2")
        if not self.cell_radius > 0:
            raise InvalidArgumentError("cell_radius must be positive")
        if self.cell_radius > self.los_radius:
            raise InvalidArgumentError("cell_radius must not exceed los_radius")

    @property
    def half_width(self) -> float:
        """Angular half-width of the sector, pi / n_sectors."""
        return math.pi / self.n_sectors

    @property
    def spatial_angle_bound(self) -> float:
        """Support bound of the spatial angle (1/2) sin(theta): (1/2) sin(pi/n_sectors)."""
        return 0.5 * math.sin(math.pi / self.n_sectors)


@dataclass(frozen=True)
class PolarPoint:
    """Polar location (theta in radians, r in meters) relative to the array."""

    theta: float
    r: float


def _sorted_by_distance(theta: np.ndarray, r: np.ndarray):
    # ties broken by angle, then by draw index, for reproducible ordering
    idx = np.broadcast_to(np.arange(r.shape[-1]), r.shape)
    order = np.lexsort((idx, theta, r), axis=-1)
    return np.take_along_axis(theta, order, axis=-1), np.take_along_axis(r, order, axis=-1)


def sample_user_arrays(sector: SectorGeometry, n_active: int, n_sets: int,
                       rng: np.random.Generator):
    """Draw `n_sets` independent user sets; returns (theta, r) of shape (n_sets, n_active),
    each row sorted by distance."""
    if n_active < 1:
        raise InvalidArgumentError("n_active must be >= 1")
    theta = rng.uniform(-sector.half_width, sector.half_width, (n_sets, n_active))
    r = sector.cell_radius * np.sqrt(rng.random((n_sets, n_active)))
    return _sorted_by_distance(theta, r)


def unordered_distance_dist(r, sector: SectorGeometry):
    """(CDF, PDF) of the distance of a random (non-ordered) user: r^2/R_c^2, 2r/R_c^2."""
    r = np.asarray(r, float)
    if not np.all((0 <= r) & (r <= sector.cell_radius)):
        raise DomainError("r must lie in [0, cell_radius]")
    q = r / sector.cell_radius
    cdf = q * q
    pdf = 2.0 * r / sector.cell_radius**2
    if cdf.ndim == 0:
        return float(cdf), float(pdf)
    return cdf, pdf


def _user_orders(kappa, n_active: int) -> np.ndarray:
    """kappa as an int array, checked to be nonempty and whole in [1, n_active]."""
    kap = np.asarray(kappa)
    if kap.size == 0 or not np.all((kap >= 1) & (kap <= n_active) & (kap % 1 == 0)):
        raise InvalidArgumentError("kappa must be whole numbers in [1, n_active]")
    return kap.astype(int)


def _pinned_user(kappa, theta: float, r: float, n_active: int,
                 sector: SectorGeometry) -> tuple[int, int]:
    """(kappa - 1, n_active - kappa) interferers of user kappa pinned at
    (theta, r), after checking, in order: kappa; the point inside the sector,
    NaN outside; room on every side that holds an interferer; r > 0."""
    kappa = int(_user_orders(kappa, n_active))
    rc = sector.cell_radius
    if not (abs(theta) <= sector.half_width and 0 <= r <= rc):
        raise DomainError("pinned user outside the sector")
    n_in, n_out = kappa - 1, n_active - kappa
    if n_in and r == 0.0:
        raise DegenerateSupportError("inner interferers conditioned on r = 0")
    if n_out and r == rc:
        raise DegenerateSupportError("outer interferers conditioned on r = cell_radius")
    if r == 0.0:
        raise DomainError("a beam focused on the array has no beam depth")
    return n_in, n_out


def ordered_distance_dist(kappa, r, n_active: int, sector: SectorGeometry):
    """(CDF, PDF) of the distance of the kappa-th closest of n_active users.

    kappa and r broadcast together, so kappa[:, None] against a vector r
    gives one row per order; scalar input gives floats. The CDF is 1 minus
    the cumulative sum of the binomial terms u < kappa, each evaluated in log
    space from one table of log-factorials, so large user counts do not
    overflow the binomial coefficients.
    """
    kap = _user_orders(kappa, n_active)
    r = np.asarray(r, float)
    if not np.all((0 <= r) & (r <= sector.cell_radius)):
        raise DomainError("r must lie in [0, cell_radius]")
    kap, r = np.broadcast_arrays(kap, r)
    q = (r / sector.cell_radius) ** 2
    n = n_active
    log_fact = np.array([math.lgamma(i + 1) for i in range(n + 1)])

    cdf = np.ones(q.shape)
    interior = (q > 0) & (q < 1)
    ki, qi = kap[interior], q[interior]
    u = np.arange(kap.max())[:, None]
    terms = np.exp(log_fact[n] - log_fact[u] - log_fact[n - u]
                   + u * np.log(qi) + (n - u) * np.log1p(-qi))
    cdf[interior] = 1.0 - np.cumsum(terms, axis=0)[ki - 1, np.arange(qi.size)]
    cdf[q <= 0] = 0.0
    cdf = np.clip(cdf, 0.0, 1.0)

    pdf = np.zeros(q.shape)
    # the factor (1 - q)^(n_active - kappa) is 1 on the cell edge if kappa = n_active
    support = (q > 0) & ((q < 1) | (kap == n))
    ks, qs = kap[support], q[support]
    log_2k = np.array([math.log(2.0 * k) for k in range(1, kap.max() + 1)])
    lpdf = (log_2k[ks - 1] - np.log(r[support])
            + (log_fact[n] - log_fact[ks] - log_fact[n - ks]) + ks * np.log(qs))
    below = ks < n
    lpdf[below] += (n - ks[below]) * np.log1p(-qs[below])
    pdf[support] = np.exp(lpdf)
    if q.ndim == 0:
        return float(cdf), float(pdf)
    return cdf, pdf


def conditional_distance_dist(side: str, r, r_kappa: float, sector: SectorGeometry):
    """(CDF, PDF) of an interferer's distance given the reference user at r_kappa.

    side="inner": users closer than r_kappa, support [0, r_kappa);
    side="outer": users farther, support [r_kappa, cell_radius].
    """
    if side not in ("inner", "outer"):
        raise InvalidArgumentError("side must be 'inner' or 'outer'")
    rc = sector.cell_radius
    if not 0 <= r_kappa <= rc:
        raise DomainError("r_kappa must lie in [0, cell_radius]")
    if side == "inner" and r_kappa == 0.0:
        raise DegenerateSupportError("inner side empty: r_kappa = 0")
    if side == "outer" and r_kappa == rc:
        raise DegenerateSupportError("outer side empty: r_kappa = cell_radius")
    r = np.asarray(r, float)
    if side == "inner":
        if not np.all((0 <= r) & (r < r_kappa)):
            raise DomainError("inner side requires 0 <= r < r_kappa")
        span = r_kappa**2
    else:
        if not np.all((r_kappa <= r) & (r <= rc)):
            raise DomainError("outer side requires r_kappa <= r <= cell_radius")
        span = rc**2 - r_kappa**2
    pdf = 2.0 * r / span
    return (conditional_cdf_extended(side, r, r_kappa, sector),
            float(pdf) if pdf.ndim == 0 else pdf)


def conditional_cdf_extended(side: str, r, r_kappa: float, sector: SectorGeometry,
                             out=None):
    """Conditional distance CDF extended to the whole line (0 below the support,
    1 above). Used for interval probabilities with clamped limits. The CDF
    is written into out if given, an array shaped like r that may be r."""
    rc = sector.cell_radius
    r = np.asarray(r, float)
    out = np.empty_like(r) if out is None else out
    if side == "inner":
        np.clip(r, 0.0, r_kappa, out=out)
        out /= r_kappa
        np.square(out, out=out)
    else:
        np.clip(r, r_kappa, rc, out=out)
        np.multiply(out, out, out=out)
        out -= r_kappa**2
        out /= rc**2 - r_kappa**2
    return float(out) if out.ndim == 0 else out


def spatial_angle_dist(vartheta, sector: SectorGeometry):
    """(CDF, PDF) of the spatial angle (1/2) sin(theta) of a uniform sector angle."""
    bound = sector.spatial_angle_bound
    v = np.asarray(vartheta, float)
    if not np.all(np.abs(v) <= bound):
        raise DomainError("spatial angle outside the sector support")
    ns = sector.n_sectors
    with np.errstate(divide="ignore"):
        pdf = ns / (math.pi * np.sqrt(np.maximum(1.0 - 4.0 * v * v, 0.0)))
    return (spatial_angle_cdf_extended(v, sector),
            float(pdf) if pdf.ndim == 0 else pdf)


def spatial_angle_cdf_extended(vartheta, sector: SectorGeometry):
    """Spatial-angle CDF with arguments clamped to the sector support."""
    bound = sector.spatial_angle_bound
    v = np.clip(np.asarray(vartheta, float), -bound, bound)
    ns = sector.n_sectors
    out = (ns / (2.0 * math.pi)) * (np.arcsin(2.0 * v) + math.pi / ns)
    return float(out) if out.ndim == 0 else out


def sample_conditional_arrays(kappa: int, anchor: PolarPoint, n_active: int,
                              sector: SectorGeometry, n_sets: int,
                              rng: np.random.Generator):
    """Draw user sets conditioned on user `kappa` fixed at `anchor`.

    Returns (theta, r) of shape (n_sets, n_active); column kappa-1 holds the
    anchor, columns before it the sorted inner users, columns after it the
    sorted outer users. The anchor is checked by `_pinned_user`, as in every
    analytic route: InvalidArgumentError for kappa outside [1, n_active] or
    not whole; DomainError for an anchor outside the sector, NaN included,
    or at r = 0; DegenerateSupportError, a DomainError, for inner users at
    r = 0 or outer users on the cell edge.
    """
    n_in, n_out = _pinned_user(kappa, anchor.theta, anchor.r, n_active, sector)
    kappa, rc = n_in + 1, sector.cell_radius
    theta = rng.uniform(-sector.half_width, sector.half_width, (n_sets, n_active))
    theta[:, kappa - 1] = anchor.theta
    r = np.empty((n_sets, n_active))
    if n_in:
        ri = anchor.r * np.sqrt(rng.random((n_sets, n_in)))
        ti = theta[:, :n_in]
        ti_s, ri_s = _sorted_by_distance(ti, ri)
        theta[:, :n_in] = ti_s
        r[:, :n_in] = ri_s
    r[:, kappa - 1] = anchor.r
    if n_out:
        u = rng.random((n_sets, n_out))
        ro = np.sqrt(anchor.r**2 + u * (rc**2 - anchor.r**2))
        to = theta[:, kappa:]
        to_s, ro_s = _sorted_by_distance(to, ro)
        theta[:, kappa:] = to_s
        r[:, kappa:] = ro_s
    return theta, r

"""Brute-force validation engine.

Simulates the physical model directly: drop users, form the pairwise
Fresnel-phase cross gains, sum them into per-user beam interference, and
count threshold exceedances. Serves as the independent oracle for the
analytical routes.

Reproducibility: trials are grouped into fixed-size blocks; block b of a plan
draws from a counter-based Philox stream keyed (root_seed, b), and block
partials are reduced in block order, so estimates are bit-identical for any
worker count. NFSG_THREADS > 1 runs blocks on a thread pool of that many
workers; it is the only pool, so a run never holds more than NFSG_THREADS
worker threads.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConfigError, DomainError, InvalidArgumentError
from .geometry import PolarPoint, sample_conditional_arrays, sample_user_arrays
from .pattern import array_response
from .scenario import ScenarioConfig


@dataclass(frozen=True)
class TrialPlan:
    """Deterministic simulation request; identical plans give identical
    estimates."""

    n_trials: int
    root_seed: int
    scenario: ScenarioConfig
    block_size: int = 8192

    def __post_init__(self):
        if self.n_trials < 1:
            raise InvalidArgumentError("n_trials must be >= 1")
        if self.block_size < 1:
            raise InvalidArgumentError("block_size must be >= 1")


@dataclass(frozen=True)
class EstimateWithError:
    value: float
    std_error: float
    n_trials: int


def _block_rng(root_seed: int, block_index: int) -> np.random.Generator:
    key = np.array([root_seed & 0xFFFFFFFFFFFFFFFF, block_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _blocks(plan: TrialPlan):
    full, rem = divmod(plan.n_trials, plan.block_size)
    sizes = [plan.block_size] * full + ([rem] if rem else [])
    return list(enumerate(sizes))


def _workers() -> int:
    """Worker count from NFSG_THREADS (default 1); anything but a positive
    integer is a ConfigError."""
    raw = os.environ.get("NFSG_THREADS", "1")
    try:
        n = int(raw)
        if n >= 1:
            return n
    except ValueError:
        pass
    raise ConfigError("NFSG_THREADS", f"must be a positive integer, got {raw!r}")


def _map_blocks(plan: TrialPlan, fn):
    """Apply fn(block_index, size, rng) to every block; results in block order."""
    blocks = _blocks(plan)
    nw = _workers()
    if nw <= 1 or len(blocks) <= 1:
        return [fn(b, size, _block_rng(plan.root_seed, b)) for b, size in blocks]
    with ThreadPoolExecutor(max_workers=nw) as pool:
        futures = [pool.submit(fn, b, size, _block_rng(plan.root_seed, b))
                   for b, size in blocks]
        return [f.result() for f in futures]


def _interference(theta, r, scenario: ScenarioConfig,
                  exact_distances: bool = False) -> np.ndarray:
    """Per-user beam interference, the sum of cross gains, for one
    realization with the users at (theta, r)."""
    theta, r = np.asarray(theta, float), np.asarray(r, float)
    if exact_distances:
        vecs = np.stack([array_response(scenario.array, PolarPoint(t, d))
                         for t, d in zip(theta, r)])
        cross = np.abs(np.conj(vecs) @ vecs.T) ** 2
        return cross.sum(axis=1) - np.diag(cross)
    return kernels.interference_sums(theta[None, :], r[None, :],
                                     scenario.array.n_antennas,
                                     scenario.array.wavelength)[0]


def realize_sir(theta, r, scenario: ScenarioConfig,
                exact_distances: bool = False) -> np.ndarray:
    """Per-user SIR for one realization, the users at (theta, r): 1 / sum of
    cross gains.

    A single user has no interference and reports an infinite SIR. The
    opt-in exact-distance mode rebuilds the gains from raw response-vector
    inner products instead of the Fresnel-phase sum, for cross-validation.
    """
    with np.errstate(divide="ignore"):
        return 1.0 / _interference(theta, r, scenario, exact_distances)


def realize_sinr(theta, r, scenario: ScenarioConfig) -> np.ndarray:
    """Per-user SINR for one realization: the interference sum plus the
    location-dependent noise term n_active * sigma^2 / (P_t N zeta r^-alpha)."""
    noise = scenario.noise_term(np.asarray(r, float))
    with np.errstate(divide="ignore"):
        return 1.0 / (_interference(theta, r, scenario) + noise)


def _thresholds(tau_grid, finite: bool) -> np.ndarray:
    """tau_grid as an array. Every threshold must be positive, as in the
    analytic routes, and finite where a rate is taken; no user clears +inf."""
    taus = np.asarray(tau_grid, float)
    if not np.all(taus > 0):
        raise DomainError("tau must be positive")
    if finite and not np.all(taus < math.inf):
        raise DomainError("tau must be positive and finite")
    return taus


def _coverage_counts(sir_kappa: np.ndarray, tau_grid: np.ndarray) -> np.ndarray:
    return (sir_kappa[:, None] > tau_grid[None, :]).sum(axis=0)


def estimate_overall_cp(plan: TrialPlan, tau_grid, kappa: int
                        ) -> list[EstimateWithError]:
    """Empirical P{SIR_kappa > tau} over fresh user sets, one estimate per
    threshold: user kappa's row of estimate_network."""
    if not 1 <= kappa <= plan.scenario.n_active:
        raise InvalidArgumentError("kappa must be in [1, n_active]")
    return estimate_network(plan, tau_grid)[0][kappa - 1]


def _binomial_estimates(counts: np.ndarray, n: int) -> list[EstimateWithError]:
    out = []
    for c in np.atleast_1d(counts):
        p = float(c) / n
        out.append(EstimateWithError(p, math.sqrt(max(p * (1.0 - p), 0.0) / n), n))
    return out


def conditional_interference_samples(plan: TrialPlan, kappa: int,
                                     anchor: PolarPoint) -> np.ndarray:
    """Beam-interference draws for a user pinned at `anchor` with order kappa;
    oracle material for the conditional Laplace transform and CP."""
    scn = plan.scenario

    def block(b, size, rng):
        theta, r = sample_conditional_arrays(kappa, anchor, scn.n_active,
                                             scn.sector, size, rng)
        others = np.delete(np.arange(scn.n_active), kappa - 1)
        gains = kernels.gain_pairs(theta[:, others], r[:, others],
                                   anchor.theta, anchor.r,
                                   scn.array.n_antennas, scn.array.wavelength)
        return gains.sum(axis=1)

    return np.concatenate(_map_blocks(plan, block))


def estimate_conditional_cp(plan: TrialPlan, kappa: int, anchor: PolarPoint,
                            tau_grid) -> list[EstimateWithError]:
    """Empirical conditional SIR coverage for a user pinned at `anchor`, one
    estimate per threshold from one draw. The pinned user's noise term is a
    constant, so its SINR coverage is the SIR coverage at
    analysis.sinr_equivalent_threshold; +inf, which no SIR exceeds, not even
    a lone user's, gives 0."""
    taus = _thresholds(tau_grid, finite=False)
    interference = conditional_interference_samples(plan, kappa, anchor)
    with np.errstate(divide="ignore"):
        sir = 1.0 / interference
    counts = _coverage_counts(sir, taus)
    return _binomial_estimates(counts, plan.n_trials)


def estimate_network(plan: TrialPlan, tau_grid):
    """One simulation pass giving per-user overall CP and the aggregate ASE.

    Returns (cp, ase): cp[k-1] is the per-threshold estimate list for user k,
    ase the per-threshold aggregate list. +inf has no finite rate and raises
    DomainError.
    """
    scn = plan.scenario
    taus = _thresholds(tau_grid, finite=True)
    n_a = scn.n_active

    def block(b, size, rng):
        theta, r = sample_user_arrays(scn.sector, n_a, size, rng)
        with np.errstate(divide="ignore"):
            sir = 1.0 / kernels.interference_sums(theta, r, scn.array.n_antennas,
                                                  scn.array.wavelength)
        covered = sir[:, :, None] > taus[None, None, :]
        per_user = covered.sum(axis=0)                 # (n_a, n_tau)
        per_trial = covered.sum(axis=1).astype(float)  # (size, n_tau)
        return per_user, per_trial.sum(axis=0), (per_trial**2).sum(axis=0)

    parts = _map_blocks(plan, block)
    per_user = sum(p[0] for p in parts)
    s1 = sum(p[1] for p in parts)
    s2 = sum(p[2] for p in parts)

    n = plan.n_trials
    cp = [_binomial_estimates(per_user[k], n) for k in range(n_a)]
    const = scn.sector.n_sectors / (math.pi * scn.sector.cell_radius**2)
    ase = []
    for i, t in enumerate(taus):
        mean = s1[i] / n
        var = max(s2[i] / n - mean * mean, 0.0)
        scale = const * math.log2(1.0 + float(t))
        ase.append(EstimateWithError(scale * mean, scale * math.sqrt(var / n), n))
    return cp, ase


def estimate_ase(plan: TrialPlan, tau_grid) -> list[EstimateWithError]:
    """Aggregate per-area efficiency estimate per threshold."""
    return estimate_network(plan, tau_grid)[1]

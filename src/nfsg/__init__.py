"""Stochastic-geometry performance analysis for near-field multi-user
beamfocusing networks: exact, quantized-pattern, and closed-form-bound
coverage/efficiency metrics, validated by Monte Carlo simulation of the
physical model."""

from .analysis import (conditional_cp, conditional_cp_sinr, level_probabilities,
                       overall_cp, se_and_ase, sinr_equivalent_threshold, tau_star)
from .config import default_scenario, thermal_noise_power
from .errors import (ConfigError, DegenerateSupportError, DomainError,
                     InvalidArgumentError)
from .fresnel import fresnel_integrals
from .geometry import (PolarPoint, SectorGeometry, conditional_distance_dist,
                       ordered_distance_dist, sample_conditional_arrays,
                       sample_user_arrays, spatial_angle_dist,
                       unordered_distance_dist)
from .montecarlo import (EstimateWithError, TrialPlan, estimate_conditional_cp,
                         estimate_network, realize_sinr, realize_sir)
from .pattern import (ArrayConfig, BeamDepthInterval, MlapConfig, MlapLevels,
                      angular_gain, array_response, asymptotic_gain, beam_depth,
                      distance_gain, exact_gain, ff_gain, m_star, mlap_gain,
                      mlap_levels, solve_beta_gamma)
from .scenario import ScenarioConfig

__version__ = "0.1.0"

# Backend of the pattern kernels (`nfsg.kernels`); numpy is the only one.
KERNEL_IMPL = "numpy"

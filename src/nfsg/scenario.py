"""Full experiment description: array + sector + load, power and noise.

The baseline values and the config checks live in `config`; the baseline
scenario is `config.default_scenario()`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import InvalidArgumentError
from .geometry import SectorGeometry
from .pattern import ArrayConfig, MlapConfig


@dataclass(frozen=True)
class ScenarioConfig:
    array: ArrayConfig
    sector: SectorGeometry
    n_active: int
    pathloss_exponent: float
    tx_power: float
    noise_power: float
    mlap: MlapConfig

    def __post_init__(self):
        if self.n_active < 1:
            raise InvalidArgumentError("n_active must be >= 1")
        if self.pathloss_exponent < 2:
            raise InvalidArgumentError("pathloss_exponent must be >= 2")
        if not self.tx_power > 0:
            raise InvalidArgumentError("tx_power must be positive")
        if self.noise_power < 0:
            raise InvalidArgumentError("noise_power must be >= 0")
        if self.mlap.n_levels > self.array.n_antennas // 2:
            raise InvalidArgumentError("mlap.n_levels must not exceed floor(n_antennas/2)")

    @property
    def ref_pathloss(self) -> float:
        """(lambda / 4 pi)^2, derived from the array so it can never disagree
        with the carrier frequency."""
        return (self.array.wavelength / (4.0 * math.pi)) ** 2

    def noise_term(self, r_k: float) -> float:
        """Noise contribution in the SINR denominator for a user at r_k:
        N_a sigma^2 / (P_t N zeta r_k^-alpha)."""
        signal = (self.tx_power * self.array.n_antennas * self.ref_pathloss
                  * r_k ** (-self.pathloss_exponent))
        return self.n_active * self.noise_power / signal

    def with_(self, **changes) -> "ScenarioConfig":
        return replace(self, **changes)


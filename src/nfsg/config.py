"""Experiment configuration: JSON document -> ExperimentSpec.

Every field is optional; omitted scenario fields fall back to the baseline
(N=256 at 28 GHz, 3 sectors of 150 m, 15 active users, alpha=2, 10 W,
beta_gamma=1.3, M=10). Wavelength and spacing are derived from the carrier
frequency and are not settable. Unknown keys are rejected with their path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import ConfigError, InvalidArgumentError
from .geometry import PolarPoint, SectorGeometry
from .pattern import ArrayConfig, MlapConfig
from .scenario import ScenarioConfig, thermal_noise_power

EXPERIMENTS = ("pattern-cut", "polar-heatmap", "cond-cp", "m-sweep", "overall",
               "ase-vs-n", "ase-vs-na", "ratio-sweep")
MODES = ("exact", "mlap", "upper", "montecarlo")
SWEEP_PARAMS = ("tau_db", "n_antennas", "n_active", "na_over_n", "n_levels")

_SCENARIO_DEFAULTS = {
    "n_antennas": 256,
    "carrier_freq_hz": 28e9,
    "n_sectors": 3,
    "cell_radius_m": 150.0,
    "los_radius_m": 150.0,
    "n_active": 15,
    "pathloss_exponent": 2.0,
    "tx_power_w": 10.0,
    "noise_power_w": 0.0,
    "noise_bandwidth_hz": None,
    "noise_figure_db": None,
    "beta_gamma": 1.3,
    "n_levels": 10,
}

_TOP_DEFAULTS = {
    "experiment": "overall",
    "modes": ["mlap", "montecarlo"],
    "tau_grid_db": None,  # experiment-specific default
    "kappa": 3,
    "anchor": {"theta_deg": 0.0, "r_m": 30.0},
    "sweep": None,
    "trials": 10000,
    "seed": 1,
    "output": "results.csv",
    "format": "csv",
}


@dataclass(frozen=True)
class SweepSpec:
    param: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    scenario: ScenarioConfig
    modes: tuple[str, ...]
    tau_grid_db: tuple[float, ...] | None
    kappa: int
    anchor: PolarPoint
    sweep: SweepSpec | None
    trials: int
    seed: int
    output_path: str
    fmt: str


def _reject_unknown(doc: dict, allowed, prefix: str):
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"{prefix}{key}", "unknown key")


def _take(doc: dict, key: str, defaults: dict):
    return doc.get(key, defaults[key])


def _number(value, key: str, minimum=None, integer=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(key, "must be a number")
    if integer and int(value) != value:
        raise ConfigError(key, "must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(key, f"must be >= {minimum}")
    return int(value) if integer else float(value)


def _build_scenario(doc: dict) -> ScenarioConfig:
    _reject_unknown(doc, _SCENARIO_DEFAULTS, "scenario.")
    get = lambda k: _take(doc, k, _SCENARIO_DEFAULTS)
    noise = _number(get("noise_power_w"), "scenario.noise_power_w", minimum=0.0)
    bw = get("noise_bandwidth_hz")
    nf = get("noise_figure_db")
    if (bw is None) != (nf is None):
        raise ConfigError("scenario.noise_bandwidth_hz",
                          "noise_bandwidth_hz and noise_figure_db come together")
    if bw is not None:
        if noise:
            raise ConfigError("scenario.noise_power_w",
                              "give either noise_power_w or the bandwidth/figure pair")
        noise = thermal_noise_power(
            _number(bw, "scenario.noise_bandwidth_hz", minimum=1.0),
            _number(nf, "scenario.noise_figure_db"))
    try:
        array = ArrayConfig(
            n_antennas=_number(get("n_antennas"), "scenario.n_antennas",
                               minimum=3, integer=True),
            carrier_freq=_number(get("carrier_freq_hz"), "scenario.carrier_freq_hz",
                                 minimum=1.0),
        )
        sector = SectorGeometry(
            n_sectors=_number(get("n_sectors"), "scenario.n_sectors",
                              minimum=2, integer=True),
            cell_radius=_number(get("cell_radius_m"), "scenario.cell_radius_m",
                                minimum=1e-9),
            los_radius=_number(get("los_radius_m"), "scenario.los_radius_m",
                               minimum=1e-9),
        )
        mlap = MlapConfig(
            n_levels=_number(get("n_levels"), "scenario.n_levels",
                             minimum=1, integer=True),
            beta_gamma=_number(get("beta_gamma"), "scenario.beta_gamma", minimum=1e-9),
        )
        return ScenarioConfig(
            array=array,
            sector=sector,
            n_active=_number(get("n_active"), "scenario.n_active",
                             minimum=1, integer=True),
            pathloss_exponent=_number(get("pathloss_exponent"),
                                      "scenario.pathloss_exponent", minimum=2.0),
            tx_power=_number(get("tx_power_w"), "scenario.tx_power_w", minimum=1e-12),
            noise_power=noise,
            mlap=mlap,
        )
    except InvalidArgumentError as exc:
        raise ConfigError("scenario", str(exc)) from None


def _build_sweep(doc) -> SweepSpec | None:
    if doc is None:
        return None
    if not isinstance(doc, dict):
        raise ConfigError("sweep", "must be an object")
    _reject_unknown(doc, ("param", "values"), "sweep.")
    param = doc.get("param")
    if param not in SWEEP_PARAMS:
        raise ConfigError("sweep.param", f"must be one of {SWEEP_PARAMS}")
    values = doc.get("values")
    if not isinstance(values, list) or not values:
        raise ConfigError("sweep.values", "must be a nonempty list")
    vals = tuple(_number(v, "sweep.values") for v in values)
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ConfigError("sweep.values", "must be strictly increasing")
    return SweepSpec(param=param, values=vals)


def parse_config(text: str) -> ExperimentSpec:
    """Parse a JSON configuration document into an ExperimentSpec."""
    try:
        doc = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError("<document>", f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("<document>", "top level must be an object")
    _reject_unknown(doc, set(_TOP_DEFAULTS) | {"scenario"}, "")

    scenario_doc = doc.get("scenario", {})
    if not isinstance(scenario_doc, dict):
        raise ConfigError("scenario", "must be an object")
    scenario = _build_scenario(scenario_doc)

    get = lambda k: _take(doc, k, _TOP_DEFAULTS)
    name = get("experiment")
    if name not in EXPERIMENTS:
        raise ConfigError("experiment", f"must be one of {EXPERIMENTS}")
    modes = get("modes")
    if not isinstance(modes, list) or not modes:
        raise ConfigError("modes", "must be a nonempty list")
    for mode in modes:
        if mode not in MODES:
            raise ConfigError("modes", f"unknown mode {mode!r}")

    tau_raw = get("tau_grid_db")
    tau_grid = None
    if tau_raw is not None:
        if not isinstance(tau_raw, list) or not tau_raw:
            raise ConfigError("tau_grid_db", "must be a nonempty list")
        tau_grid = tuple(_number(v, "tau_grid_db") for v in tau_raw)
        if any(b <= a for a, b in zip(tau_grid, tau_grid[1:])):
            raise ConfigError("tau_grid_db", "must be strictly increasing")

    anchor_doc = get("anchor")
    if not isinstance(anchor_doc, dict):
        raise ConfigError("anchor", "must be an object")
    _reject_unknown(anchor_doc, ("theta_deg", "r_m"), "anchor.")
    anchor = PolarPoint(
        theta=math.radians(_number(anchor_doc.get("theta_deg", 0.0),
                                   "anchor.theta_deg")),
        r=_number(anchor_doc.get("r_m", 30.0), "anchor.r_m", minimum=0.0),
    )
    if abs(anchor.theta) > scenario.sector.half_width \
            or anchor.r > scenario.sector.cell_radius:
        raise ConfigError("anchor", "outside the sector")

    kappa = _number(get("kappa"), "kappa", minimum=1, integer=True)
    if kappa > scenario.n_active:
        raise ConfigError("kappa", "exceeds n_active")

    fmt = get("format")
    if fmt not in ("csv", "jsonl"):
        raise ConfigError("format", "must be 'csv' or 'jsonl'")

    return ExperimentSpec(
        name=name,
        scenario=scenario,
        modes=tuple(modes),
        tau_grid_db=tau_grid,
        kappa=kappa,
        anchor=anchor,
        sweep=_build_sweep(get("sweep")),
        trials=_number(get("trials"), "trials", minimum=1, integer=True),
        seed=_number(get("seed"), "seed", minimum=0, integer=True),
        output_path=str(get("output")),
        fmt=fmt,
    )


def emit_config(spec: ExperimentSpec) -> str:
    """Render a spec back to its JSON document (parse_config round-trips it)."""
    scn = spec.scenario
    doc = {
        "scenario": {
            "n_antennas": scn.array.n_antennas,
            "carrier_freq_hz": scn.array.carrier_freq,
            "n_sectors": scn.sector.n_sectors,
            "cell_radius_m": scn.sector.cell_radius,
            "los_radius_m": scn.sector.los_radius,
            "n_active": scn.n_active,
            "pathloss_exponent": scn.pathloss_exponent,
            "tx_power_w": scn.tx_power,
            "noise_power_w": scn.noise_power,
            "beta_gamma": scn.mlap.beta_gamma,
            "n_levels": scn.mlap.n_levels,
        },
        "experiment": spec.name,
        "modes": list(spec.modes),
        "tau_grid_db": None if spec.tau_grid_db is None else list(spec.tau_grid_db),
        "kappa": spec.kappa,
        "anchor": {"theta_deg": math.degrees(spec.anchor.theta), "r_m": spec.anchor.r},
        "sweep": None if spec.sweep is None else
                 {"param": spec.sweep.param, "values": list(spec.sweep.values)},
        "trials": spec.trials,
        "seed": spec.seed,
        "output": spec.output_path,
        "format": spec.fmt,
    }
    return json.dumps(doc, indent=2, sort_keys=True)

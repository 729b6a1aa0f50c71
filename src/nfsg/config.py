"""Experiment configuration: JSON document -> complete ExperimentSpec.

Every field is optional, and parse_config resolves every default, so the CLI
runs the spec as it is. An omitted scenario field takes its value from
_SCENARIO_KEYS, whose defaults are the baseline scenario (default_scenario).
Wavelength and spacing are derived from the carrier frequency and are not
settable. An omitted threshold grid or sweep takes the experiment's default
from EXPERIMENTS. Only the four sweep experiments take a `sweep` block, and
only on their own parameter; every scenario a sweep runs is built here. Each
experiment takes only the modes it runs, each at most once, and its default
modes are those of the default list that it runs.
Unknown keys and inputs outside the model are rejected with their path.
The anchor, and the kappa of cond-cp and m-sweep, are checked by
geometry._pinned_user, the rule every route runs.
An input that no row of the experiment reads is rejected: noise on every
experiment but cond-cp, whose pinned user alone has a constant noise term,
and a threshold grid on pattern-cut and polar-heatmap, whose default grid
is empty.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from .errors import ConfigError, DomainError, InvalidArgumentError
from .geometry import PolarPoint, SectorGeometry, _pinned_user
from .pattern import ArrayConfig, MlapConfig
from .scenario import ScenarioConfig

MODES = ("exact", "mlap", "upper", "montecarlo")

_FULL_TAU_DB = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
_PATTERN_MODES = ("exact", "mlap")
# Per experiment: the default threshold grid in dB, for a sweep the parameter
# it varies with its default values, and the modes it runs.
EXPERIMENTS = {
    "pattern-cut": ((), None, _PATTERN_MODES),
    "polar-heatmap": ((), None, _PATTERN_MODES),
    "cond-cp": (_FULL_TAU_DB, None, MODES),
    "m-sweep": ((5.0, 20.0, 30.0, 35.0),
                ("n_levels", (1, 2, 3, 4, 5, 6, 7, 8, 10, 12)), ("mlap",)),
    "overall": (_FULL_TAU_DB, None, MODES),
    "ase-vs-n": ((10.0, 20.0), ("n_antennas", (64, 128, 192, 256)), MODES),
    "ase-vs-na": ((10.0, 20.0), ("n_active", (4, 8, 16, 24, 32)), MODES),
    "ratio-sweep": ((20.0,), ("na_over_n", (0.04, 0.08, 0.16, 0.24, 0.32)),
                    MODES),
}

# Scenario key: (baseline value, minimum, integer). The noise pair has no
# baseline; the baseline is noiseless.
_SCENARIO_KEYS = {
    "n_antennas": (256, 3, True),
    "carrier_freq_hz": (28e9, 1.0, False),
    "n_sectors": (3, 2, True),
    "cell_radius_m": (150.0, 1e-9, False),
    "los_radius_m": (150.0, 1e-9, False),
    "n_active": (15, 1, True),
    "pathloss_exponent": (2.0, 2.0, False),
    "tx_power_w": (10.0, 1e-12, False),
    "noise_power_w": (0.0, 0.0, False),
    "noise_bandwidth_hz": (None, 1.0, False),
    "noise_figure_db": (None, None, False),
    "beta_gamma": (1.3, 1e-9, False),
    "n_levels": (10, 1, True),
}

_TOP_DEFAULTS = {
    "experiment": "overall",
    "modes": ["mlap", "montecarlo"],
    "kappa": 3,
    "anchor": {"theta_deg": 0.0, "r_m": 30.0},
    "trials": 10000,
    "seed": 1,
    "output": "results.csv",
    "format": "csv",
}


@dataclass(frozen=True)
class SweepSpec:
    """A sweep's parameter, its values, and the scenario run at each value."""

    param: str
    values: tuple[float, ...]
    scenarios: tuple[ScenarioConfig, ...]


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    scenario: ScenarioConfig
    modes: tuple[str, ...]
    tau_grid_db: tuple[float, ...]
    kappa: int
    anchor: PolarPoint
    sweep: SweepSpec | None  # None exactly for the experiments that do not sweep
    trials: int
    seed: int
    output_path: str
    fmt: str


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def thermal_noise_power(bandwidth_hz: float, noise_figure_db: float) -> float:
    """Receiver noise power in watts: -174 dBm/Hz + 10 log10(B) + F, for a
    positive, finite bandwidth B and a finite noise figure F."""
    if not (0 < bandwidth_hz < math.inf and math.isfinite(noise_figure_db)):
        raise InvalidArgumentError("thermal_noise_power requires 0 < bandwidth_hz < inf "
                                   "and a finite noise_figure_db")
    dbm = -174.0 + 10.0 * math.log10(bandwidth_hz) + noise_figure_db
    return db_to_linear(dbm - 30.0)


def _reject_unknown(doc: dict, allowed, prefix: str):
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"{prefix}{key}", "unknown key")


def _take(doc: dict, key: str, defaults: dict):
    return doc.get(key, defaults[key])


def _number(value, key: str, minimum=None, integer=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise ConfigError(key, "must be a finite number")
    if integer and int(value) != value:
        raise ConfigError(key, "must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(key, f"must be >= {minimum}")
    return int(value) if integer else float(value)


def _increasing(doc, key: str) -> tuple[float, ...]:
    if not isinstance(doc, (list, tuple)) or not doc:
        raise ConfigError(key, "must be a nonempty list")
    values = tuple(_number(v, key) for v in doc)
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(key, "must be strictly increasing")
    return values


def _build_scenario(doc: dict) -> ScenarioConfig:
    _reject_unknown(doc, _SCENARIO_KEYS, "scenario.")
    v = {}
    for key, (default, minimum, integer) in _SCENARIO_KEYS.items():
        raw = doc.get(key, default)
        v[key] = None if raw is None else _number(raw, f"scenario.{key}",
                                                   minimum, integer)
    noise, bw, nf = v["noise_power_w"], v["noise_bandwidth_hz"], v["noise_figure_db"]
    if (bw is None) != (nf is None):
        raise ConfigError("scenario.noise_bandwidth_hz",
                          "noise_bandwidth_hz and noise_figure_db come together")
    if bw is not None:
        if noise:
            raise ConfigError("scenario.noise_power_w",
                              "give either noise_power_w or the bandwidth/figure pair")
        noise = thermal_noise_power(bw, nf)
    try:
        return ScenarioConfig(
            array=ArrayConfig(n_antennas=v["n_antennas"],
                              carrier_freq=v["carrier_freq_hz"]),
            sector=SectorGeometry(n_sectors=v["n_sectors"],
                                  cell_radius=v["cell_radius_m"],
                                  los_radius=v["los_radius_m"]),
            n_active=v["n_active"],
            pathloss_exponent=v["pathloss_exponent"],
            tx_power=v["tx_power_w"],
            noise_power=noise,
            mlap=MlapConfig(n_levels=v["n_levels"], beta_gamma=v["beta_gamma"]),
        )
    except InvalidArgumentError as exc:
        raise ConfigError("scenario", str(exc)) from None


def default_scenario() -> ScenarioConfig:
    """The baseline scenario: the one an empty config document selects."""
    return _build_scenario({})


def _scenario_for_sweep(scn: ScenarioConfig, param: str,
                        value: float) -> ScenarioConfig:
    """The scenario at one point of a sweep over param; the lobe count is
    clamped to N//2."""
    if param == "n_active":
        return scn.with_(n_active=int(value))
    if param == "na_over_n":
        return scn.with_(n_active=max(1, round(value * scn.array.n_antennas)))
    n = int(value) if param == "n_antennas" else scn.array.n_antennas
    m = int(value) if param == "n_levels" else scn.mlap.n_levels
    return scn.with_(array=replace(scn.array, n_antennas=n),
                     mlap=replace(scn.mlap, n_levels=min(m, n // 2)))


def _build_sweep(doc, name: str, scenario: ScenarioConfig) -> SweepSpec | None:
    """The experiment's sweep, given or default, with the scenario at each
    value; None for an experiment that does not sweep."""
    default = EXPERIMENTS[name][1]
    if default is None:
        if doc is not None:
            raise ConfigError("sweep.param", f"{name} does not sweep")
        return None
    param, values = default
    if doc is not None:
        if not isinstance(doc, dict):
            raise ConfigError("sweep", "must be an object")
        _reject_unknown(doc, ("param", "values"), "sweep.")
        if doc.get("param") != param:
            raise ConfigError("sweep.param", f"{name} sweeps {param}")
        values = doc.get("values")
    values = _increasing(values, "sweep.values")
    # every parameter but the ratio counts antennas, users or lobes
    if param != "na_over_n" and not all(v.is_integer() for v in values):
        raise ConfigError("sweep.values", f"{param} takes integers")
    scenarios = []
    for v in values:
        try:
            scenarios.append(_scenario_for_sweep(scenario, param, v))
        except InvalidArgumentError as exc:
            raise ConfigError("sweep.values", f"{param}={v:g}: {exc}") from None
    return SweepSpec(param=param, values=values, scenarios=tuple(scenarios))


def _build_tau_grid(doc, name: str) -> tuple[float, ...]:
    """The threshold grid in dB; each one must convert to a finite, positive
    linear threshold. An experiment whose default grid is empty reads none."""
    default = EXPERIMENTS[name][0]
    if doc is None:
        return default
    if not default:
        raise ConfigError("tau_grid_db", f"{name} uses no threshold")
    grid = _increasing(doc, "tau_grid_db")
    for d in grid:
        try:
            linear = db_to_linear(d)
        except OverflowError:
            linear = math.inf
        if not 0.0 < linear < math.inf:
            raise ConfigError("tau_grid_db",
                              f"{d:g} dB is not a finite positive linear threshold")
    return grid


def parse_config(text: str, overrides: dict | None = None) -> ExperimentSpec:
    """Parse a JSON configuration document into a complete ExperimentSpec.

    overrides (the command-line flags) replace top-level keys of the decoded
    document before any key is checked."""
    try:
        doc = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError("<document>", f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("<document>", "top level must be an object")
    doc.update(overrides or {})
    _reject_unknown(doc, {*_TOP_DEFAULTS, "scenario", "tau_grid_db", "sweep"}, "")

    scenario_doc = doc.get("scenario", {})
    if not isinstance(scenario_doc, dict):
        raise ConfigError("scenario", "must be an object")
    scenario = _build_scenario(scenario_doc)

    get = lambda k: _take(doc, k, _TOP_DEFAULTS)
    name = get("experiment")
    if name not in EXPERIMENTS:
        raise ConfigError("experiment", f"must be one of {tuple(EXPERIMENTS)}")
    # the network metrics are SIR coverage, and the pattern and m-sweep rows
    # read no noise either
    if name != "cond-cp" and scenario.noise_power > 0:
        raise ConfigError("scenario.noise_power_w",
                          f"only cond-cp reads the noise; {name} would drop it")
    runs = EXPERIMENTS[name][2]
    # the default modes are the ones of _TOP_DEFAULTS that the experiment runs
    modes = doc.get("modes", [m for m in _TOP_DEFAULTS["modes"] if m in runs])
    if not isinstance(modes, list) or not modes:
        raise ConfigError("modes", "must be a nonempty list")
    for mode in modes:
        if mode not in MODES:
            raise ConfigError("modes", f"unknown mode {mode!r}")
        if mode not in runs:
            raise ConfigError("modes", f"{name} runs only {', '.join(runs)}")
        if modes.count(mode) > 1:
            raise ConfigError("modes", f"{mode!r} is listed more than once")

    tau_grid = _build_tau_grid(doc.get("tau_grid_db"), name)

    anchor_doc = get("anchor")
    if not isinstance(anchor_doc, dict):
        raise ConfigError("anchor", "must be an object")
    _reject_unknown(anchor_doc, _TOP_DEFAULTS["anchor"], "anchor.")
    anchor_get = lambda k: _take(anchor_doc, k, _TOP_DEFAULTS["anchor"])
    anchor = PolarPoint(
        theta=math.radians(_number(anchor_get("theta_deg"), "anchor.theta_deg")),
        r=_number(anchor_get("r_m"), "anchor.r_m", minimum=0.0),
    )

    kappa = _number(get("kappa"), "kappa", minimum=1, integer=True)
    # the user of cond-cp and m-sweep is checked as every route checks it;
    # the other experiments read no kappa and only focus on the anchor, as
    # for a lone user
    pinned = name in ("cond-cp", "m-sweep")
    try:
        _pinned_user(kappa if pinned else 1, anchor.theta, anchor.r,
                     scenario.n_active if pinned else 1, scenario.sector)
    except InvalidArgumentError as exc:
        raise ConfigError("kappa", str(exc)) from None
    except DomainError as exc:
        raise ConfigError("anchor", str(exc)) from None

    sweep = _build_sweep(doc.get("sweep"), name, scenario)

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
        sweep=sweep,
        trials=_number(get("trials"), "trials", minimum=1, integer=True),
        seed=_number(get("seed"), "seed", minimum=0, integer=True),
        output_path=str(get("output")),
        fmt=fmt,
    )

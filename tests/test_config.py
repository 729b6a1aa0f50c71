import json
import math

import pytest

from nfsg.config import ExperimentSpec, emit_config, parse_config
from nfsg.errors import ConfigError


def test_empty_config_gives_baseline():
    spec = parse_config("{}")
    scn = spec.scenario
    assert scn.array.n_antennas == 256
    assert scn.array.carrier_freq == 28e9
    assert scn.n_active == 15
    assert scn.sector.cell_radius == 150.0
    assert scn.sector.n_sectors == 3
    assert scn.mlap.beta_gamma == 1.3
    assert scn.mlap.n_levels == 10
    assert scn.tx_power == 10.0
    assert scn.pathloss_exponent == 2.0
    assert scn.noise_power == 0.0


def test_wavelength_is_derived():
    spec = parse_config("{}")
    assert spec.scenario.array.wavelength == pytest.approx(0.010707, abs=5e-7)
    assert spec.scenario.array.spacing == pytest.approx(0.0053534, abs=3e-7)
    with pytest.raises(ConfigError, match="wavelength"):
        parse_config(json.dumps({"scenario": {"wavelength": 0.01}}))


def test_single_sector_rejected():
    with pytest.raises(ConfigError, match="scenario.n_sectors"):
        parse_config(json.dumps({"scenario": {"n_sectors": 1}}))


def test_level_count_cap_rejected():
    with pytest.raises(ConfigError, match="scenario"):
        parse_config(json.dumps({"scenario": {"n_antennas": 256, "n_levels": 200}}))


def test_unknown_key_paths():
    with pytest.raises(ConfigError, match="scenario.bogus"):
        parse_config(json.dumps({"scenario": {"bogus": 1}}))
    with pytest.raises(ConfigError, match="sweep.param"):
        parse_config(json.dumps({"sweep": {"param": "nope", "values": [1]}}))


def test_malformed_document():
    with pytest.raises(ConfigError):
        parse_config("{not json")
    with pytest.raises(ConfigError):
        parse_config("[1, 2]")


def test_sweep_must_be_sorted():
    with pytest.raises(ConfigError, match="sweep.values"):
        parse_config(json.dumps(
            {"sweep": {"param": "n_active", "values": [8, 4]}}))


def test_tau_grid_validation():
    with pytest.raises(ConfigError, match="tau_grid_db"):
        parse_config(json.dumps({"tau_grid_db": []}))


def test_kappa_bounds():
    with pytest.raises(ConfigError, match="kappa"):
        parse_config(json.dumps({"kappa": 16}))


def test_anchor_inside_sector():
    with pytest.raises(ConfigError, match="anchor"):
        parse_config(json.dumps({"anchor": {"theta_deg": 90.0, "r_m": 30.0}}))


def test_thermal_noise_pair():
    spec = parse_config(json.dumps(
        {"scenario": {"noise_bandwidth_hz": 200e6, "noise_figure_db": 10.0}}))
    assert spec.scenario.noise_power == pytest.approx(7.962e-12, rel=1e-3)
    with pytest.raises(ConfigError):
        parse_config(json.dumps({"scenario": {"noise_bandwidth_hz": 200e6}}))


def test_round_trip():
    doc = json.dumps({
        "experiment": "cond-cp",
        "modes": ["mlap", "upper"],
        "scenario": {"n_antennas": 128, "n_active": 9},
        "tau_grid_db": [0.0, 10.0, 20.0],
        "kappa": 4,
        "anchor": {"theta_deg": 10.0, "r_m": 25.0},
        "trials": 500,
        "seed": 11,
    })
    spec = parse_config(doc)
    again = parse_config(emit_config(spec))
    assert again == spec
    assert isinstance(spec, ExperimentSpec)
    assert spec.anchor.theta == pytest.approx(math.radians(10.0))


def test_sweep_param_belongs_to_experiment():
    # each of these used to validate, then ran mislabelled or crashed
    for experiment, param in (("m-sweep", "n_active"), ("ase-vs-n", "n_levels"),
                              ("ase-vs-na", "na_over_n"), ("ratio-sweep", "n_active")):
        with pytest.raises(ConfigError, match="sweep.param"):
            parse_config(json.dumps({"experiment": experiment,
                                     "sweep": {"param": param, "values": [4, 8]}}))
    with pytest.raises(ConfigError, match="sweep.param"):
        parse_config(json.dumps({"sweep": {"param": "tau_db", "values": [10.0]}}))


def test_swept_scenarios_must_be_valid():
    with pytest.raises(ConfigError, match="sweep.values"):
        parse_config(json.dumps({"experiment": "ase-vs-n",
                                 "sweep": {"param": "n_antennas", "values": [2, 8]}}))
    with pytest.raises(ConfigError, match="sweep.values"):
        parse_config(json.dumps({"experiment": "m-sweep",
                                 "sweep": {"param": "n_levels", "values": [0, 4]}}))
    with pytest.raises(ConfigError, match="sweep.values"):
        parse_config(json.dumps({"experiment": "ase-vs-na",
                                 "sweep": {"param": "n_active", "values": [4, 8.5]}}))
    # lobe counts beyond N//2 are clamped, and ratios need not be integers
    parse_config(json.dumps({"experiment": "m-sweep",
                             "sweep": {"param": "n_levels", "values": [4, 200]}}))
    parse_config(json.dumps({"experiment": "ratio-sweep",
                             "sweep": {"param": "na_over_n", "values": [0.05]}}))


def test_numbers_must_be_finite():
    # JSON parsing accepts Infinity and NaN
    for doc in ('{"experiment": "ratio-sweep", '
                '"sweep": {"param": "na_over_n", "values": [Infinity]}}',
                '{"tau_grid_db": [NaN]}', '{"scenario": {"tx_power_w": Infinity}}'):
        with pytest.raises(ConfigError, match="finite"):
            parse_config(doc)


def test_sweep_defaults_and_other_experiments():
    for experiment in ("m-sweep", "ase-vs-n", "ase-vs-na", "ratio-sweep"):
        assert parse_config(json.dumps({"experiment": experiment})).sweep is None
    # an experiment that does not sweep ignores the parameter it is given
    spec = parse_config(json.dumps({"experiment": "overall",
                                    "sweep": {"param": "n_levels", "values": [500]}}))
    assert spec.sweep.param == "n_levels"


def test_anchor_radius_positive():
    for experiment in ("pattern-cut", "polar-heatmap", "cond-cp", "m-sweep",
                       "overall", "ase-vs-n", "ase-vs-na", "ratio-sweep"):
        with pytest.raises(ConfigError, match="anchor"):
            parse_config(json.dumps({"experiment": experiment, "kappa": 1,
                                     "anchor": {"theta_deg": 0.0, "r_m": 0.0}}))


def test_anchor_on_cell_edge():
    edge = {"theta_deg": 10.0, "r_m": 150.0}
    for experiment in ("cond-cp", "m-sweep"):
        for kappa in (1, 3, 14):
            with pytest.raises(ConfigError, match="anchor"):
                parse_config(json.dumps({"experiment": experiment, "kappa": kappa,
                                         "anchor": edge}))
        spec = parse_config(json.dumps({"experiment": experiment, "kappa": 15,
                                        "anchor": edge}))
        assert spec.anchor.r == 150.0
    for experiment in ("pattern-cut", "polar-heatmap"):
        parse_config(json.dumps({"experiment": experiment, "kappa": 3,
                                 "anchor": edge}))

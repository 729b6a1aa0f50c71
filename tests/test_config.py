import json
import math
import re
from pathlib import Path

import pytest

from nfsg import default_scenario
from nfsg.config import ExperimentSpec, parse_config
from nfsg.errors import ConfigError

FULL_GRID = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)


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


def test_overrides_replace_keys_before_checks():
    spec = parse_config(json.dumps({"experiment": "bogus", "trials": 5}),
                        {"experiment": "cond-cp", "seed": 4})
    assert (spec.name, spec.trials, spec.seed) == ("cond-cp", 5, 4)
    with pytest.raises(ConfigError, match="trials"):
        parse_config("{}", {"trials": 0})


def test_sweep_must_be_sorted():
    with pytest.raises(ConfigError, match="sweep.values"):
        parse_config(json.dumps({"experiment": "ase-vs-na",
                                 "sweep": {"param": "n_active", "values": [8, 4]}}))


def test_threshold_grid_validation():
    with pytest.raises(ConfigError, match="tau_grid_db"):
        parse_config(json.dumps({"tau_grid_db": []}))


@pytest.mark.parametrize("grid", [[10.0, 4000.0], [-4000.0, 10.0]])
def test_thresholds_must_convert(grid):
    # 10^400 overflows a float and 10^-400 is 0.0; both used to pass
    # validation and stop the run
    with pytest.raises(ConfigError, match="tau_grid_db"):
        parse_config(json.dumps({"experiment": "cond-cp", "modes": ["upper"],
                                 "tau_grid_db": grid}))


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


def test_parse_document():
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
    assert isinstance(spec, ExperimentSpec)
    assert spec.anchor.theta == pytest.approx(math.radians(10.0))
    assert spec.scenario.array.n_antennas == 128 and spec.scenario.n_active == 9
    assert spec.tau_grid_db == (0.0, 10.0, 20.0)
    assert (spec.modes, spec.kappa, spec.trials, spec.seed) == (("mlap", "upper"),
                                                                4, 500, 11)


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


DEFAULT_SWEEPS = {
    "m-sweep": ("n_levels", (1, 2, 3, 4, 5, 6, 7, 8, 10, 12)),
    "ase-vs-n": ("n_antennas", (64, 128, 192, 256)),
    "ase-vs-na": ("n_active", (4, 8, 16, 24, 32)),
    "ratio-sweep": ("na_over_n", (0.04, 0.08, 0.16, 0.24, 0.32)),
}


def test_sweep_defaults_and_other_experiments():
    for experiment, (param, values) in DEFAULT_SWEEPS.items():
        sweep = parse_config(json.dumps({"experiment": experiment})).sweep
        assert (sweep.param, sweep.values) == (param, values)
    for experiment in ("pattern-cut", "polar-heatmap", "cond-cp", "overall"):
        assert parse_config(json.dumps({"experiment": experiment})).sweep is None
    # an experiment that does not sweep rejects a sweep instead of ignoring it
    with pytest.raises(ConfigError, match="sweep.param"):
        parse_config(json.dumps({"experiment": "overall",
                                 "sweep": {"param": "n_levels", "values": [500]}}))


def test_default_thresholds():
    grids = {"pattern-cut": (20.0,), "polar-heatmap": (20.0,), "cond-cp": FULL_GRID,
             "m-sweep": (5.0, 20.0, 30.0, 35.0), "overall": FULL_GRID,
             "ase-vs-n": (10.0, 20.0), "ase-vs-na": (10.0, 20.0),
             "ratio-sweep": (20.0,)}
    for experiment, grid in grids.items():
        assert parse_config(json.dumps({"experiment": experiment})).tau_grid_db == grid


def test_default_sweep_scenarios():
    base = default_scenario()
    for experiment, (param, values) in DEFAULT_SWEEPS.items():
        sweep = parse_config(json.dumps({"experiment": experiment})).sweep
        assert len(sweep.scenarios) == len(values)
        for v, scn in zip(values, sweep.scenarios):
            n = v if param == "n_antennas" else 256
            if param == "n_active":
                users = v
            elif param == "na_over_n":
                users = max(1, round(v * 256))
            else:
                users = 15
            lobes = min(v if param == "n_levels" else 10, n // 2)
            assert scn.array.n_antennas == n
            assert scn.n_active == users
            assert scn.mlap.n_levels == lobes
            assert scn.with_(array=base.array, n_active=15, mlap=base.mlap) == base


def test_default_scenario_is_empty_document():
    assert default_scenario() == parse_config("{}").scenario
    assert default_scenario() == parse_config("").scenario


def test_readme_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
    assert blocks
    for block in blocks:
        parse_config(block)


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

import json
import math
import re
from pathlib import Path

import pytest

from nfsg import DomainError, InvalidArgumentError, conditional_cp, default_scenario
from nfsg.config import EXPERIMENTS, ExperimentSpec, parse_config, thermal_noise_power
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
    # only cond-cp and m-sweep read kappa, so only they reject one above
    # n_active; the others parse scenarios with fewer users than the default
    # kappa, 3
    for name in EXPERIMENTS:
        if name in ("cond-cp", "m-sweep"):
            with pytest.raises(ConfigError, match="^kappa: "):
                parse_config(json.dumps({"experiment": name, "kappa": 16}))
            continue
        for n_active in (1, 2):
            spec = parse_config(json.dumps({"experiment": name,
                                            "scenario": {"n_active": n_active}}))
            assert spec.scenario.n_active == n_active and spec.kappa == 3


def test_anchor_inside_sector():
    with pytest.raises(ConfigError, match="anchor"):
        parse_config(json.dumps({"anchor": {"theta_deg": 90.0, "r_m": 30.0}}))


def test_thermal_noise_pair():
    spec = parse_config(json.dumps(
        {"experiment": "cond-cp",
         "scenario": {"noise_bandwidth_hz": 200e6, "noise_figure_db": 10.0}}))
    assert spec.scenario.noise_power == pytest.approx(7.962e-12, rel=1e-3)
    with pytest.raises(ConfigError):
        parse_config(json.dumps({"scenario": {"noise_bandwidth_hz": 200e6}}))


@pytest.mark.parametrize("bandwidth_hz, noise_figure_db", [
    (math.nan, 10.0), (math.inf, 10.0), (0.0, 10.0), (-200e6, 10.0),
    (200e6, math.nan), (200e6, math.inf), (200e6, -math.inf)],
    ids=["bandwidth-nan", "bandwidth-inf", "bandwidth-zero", "bandwidth-negative",
         "figure-nan", "figure-inf", "figure-minus-inf"])
def test_thermal_noise_checked(bandwidth_hz, noise_figure_db):
    # a direct call gets what a scenario built from these values gets: an
    # error, not NaN or inf
    with pytest.raises(InvalidArgumentError):
        thermal_noise_power(bandwidth_hz, noise_figure_db)


@pytest.mark.parametrize("noise", [{"noise_power_w": 1e-10},
                                   {"noise_bandwidth_hz": 200e6, "noise_figure_db": 10.0}],
                         ids=["power", "thermal"])
@pytest.mark.parametrize("experiment", ["pattern-cut", "polar-heatmap", "m-sweep", "overall",
                                        "ase-vs-n", "ase-vs-na", "ratio-sweep"])
def test_noise_rejected_where_dropped(experiment, noise):
    # only cond-cp's rows read the noise: the network metrics are SIR
    # coverage, and the pattern and m-sweep rows read none, so a noisy
    # scenario would be dropped; a noiseless one still parses
    with pytest.raises(ConfigError, match="noise") as err:
        parse_config(json.dumps({"experiment": experiment, "scenario": noise}))
    assert err.value.key == "scenario.noise_power_w"
    assert parse_config(json.dumps({"experiment": experiment,
                                    "scenario": {"noise_power_w": 0.0}})).name == experiment
    spec = parse_config(json.dumps({"experiment": "cond-cp", "scenario": noise}))
    assert spec.scenario.noise_power > 0


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


def test_modes_belong_to_experiment():
    # each of these used to validate, then wrote no rows of that mode
    for experiment, mode in (("pattern-cut", "upper"), ("polar-heatmap", "montecarlo"),
                             ("m-sweep", "montecarlo"), ("m-sweep", "exact")):
        with pytest.raises(ConfigError, match="modes"):
            parse_config(json.dumps({"experiment": experiment, "modes": [mode]}))
    with pytest.raises(ConfigError, match="unknown mode"):
        parse_config(json.dumps({"experiment": "overall", "modes": ["bogus"]}))
    # a repeated mode wrote every row of its route twice
    with pytest.raises(ConfigError, match="'mlap' is listed more than once"):
        parse_config(json.dumps({"experiment": "cond-cp", "modes": ["mlap", "upper", "mlap"]}))
    # the default modes are mlap and montecarlo where the experiment runs them
    defaults = {"pattern-cut": ("mlap",), "polar-heatmap": ("mlap",),
                "m-sweep": ("mlap",)}
    for experiment in ("pattern-cut", "polar-heatmap", "cond-cp", "m-sweep",
                       "overall", "ase-vs-n", "ase-vs-na", "ratio-sweep"):
        spec = parse_config(json.dumps({"experiment": experiment}))
        assert spec.modes == defaults.get(experiment, ("mlap", "montecarlo"))


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
    grids = {"pattern-cut": (), "polar-heatmap": (), "cond-cp": FULL_GRID,
             "m-sweep": (5.0, 20.0, 30.0, 35.0), "overall": FULL_GRID,
             "ase-vs-n": (10.0, 20.0), "ase-vs-na": (10.0, 20.0),
             "ratio-sweep": (20.0,)}
    for experiment, grid in grids.items():
        assert parse_config(json.dumps({"experiment": experiment})).tau_grid_db == grid
    # no pattern row reads a threshold, so a grid there is rejected, not ignored
    for experiment in ("pattern-cut", "polar-heatmap"):
        with pytest.raises(ConfigError, match="uses no threshold") as err:
            parse_config(json.dumps({"experiment": experiment, "tau_grid_db": [20.0]}))
        assert err.value.key == "tau_grid_db"


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


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", readme, re.DOTALL)
    assert block
    env = {}
    exec(compile(block.group(1), "README.md", "exec"), env)
    assert 0.0 <= env["cp"] <= 1.0
    assert env["ase"] > 0.0 and env["mc"].value > 0.0


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


# (theta, r, kappa): the finite inputs of the pinned-user test of every
# route, on the baseline sector (half-width pi/3, radius 150 m) with 15
# users, and two users the routes accept
@pytest.mark.parametrize("theta,r,kappa", [
    (0.0, 30.0, 0), (0.0, 30.0, 16), (0.0, 30.0, 2.5), (1.1, 30.0, 3),
    (0.0, 151.0, 3), (0.0, 0.0, 3), (0.0, 150.0, 3), (0.0, 0.0, 1),
    (0.0, 30.0, 3), (0.2, 150.0, 15),
])
def test_cond_cp_anchor_checked_as_by_routes(theta, r, kappa):
    # a cond-cp document is rejected exactly where conditional_cp rejects
    # its user, naming kappa for the order and anchor for the point
    try:
        conditional_cp(10.0, theta, r, kappa, default_scenario(), "mlap")
        expected = None
    except InvalidArgumentError:
        expected = "kappa"
    except DomainError:
        expected = "anchor"
    doc = {"experiment": "cond-cp", "kappa": kappa,
           "anchor": {"theta_deg": math.degrees(theta), "r_m": r}}
    try:
        parse_config(json.dumps(doc))
        key = None
    except ConfigError as err:
        key = err.key
    assert key == expected


@pytest.mark.parametrize("doc,key", [
    ({"trials": 2.5}, "trials"),
    ({"scenario": {"noise_power_w": 1e-10, "noise_bandwidth_hz": 200e6,
                   "noise_figure_db": 10.0}}, "scenario.noise_power_w"),
    ({"experiment": "ase-vs-n", "sweep": ["n_antennas", [64, 128]]}, "sweep"),
    ({"scenario": [256]}, "scenario"),
    ({"experiment": "bogus"}, "experiment"),
    ({"modes": []}, "modes"),
    ({"modes": "mlap"}, "modes"),
    ({"anchor": [0.0, 30.0]}, "anchor"),
    ({"format": "xml"}, "format"),
])
def test_rejection_names_its_key(doc, key):
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.key == key


@pytest.mark.parametrize("changes", [
    {"n_active": 0}, {"pathloss_exponent": 1.5}, {"tx_power": 0.0}, {"noise_power": -1.0},
    {"pathloss_exponent": math.nan}, {"pathloss_exponent": math.inf}, {"tx_power": math.inf},
    {"tx_power": math.nan}, {"noise_power": math.nan}, {"noise_power": math.inf},
])
def test_scenario_checks(changes):
    # the config keys' minimums keep these out of a document; a scenario
    # built in code meets the checks of ScenarioConfig itself
    with pytest.raises(InvalidArgumentError):
        default_scenario().with_(**changes)

import csv
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from helpers import fresnel_phase_gain
from nfsg import TrialPlan, analysis, conditional_cp, sinr_equivalent_threshold
from nfsg.cli import COLUMNS, Row, _frozen, emit_results, main, run_experiment
from nfsg.config import db_to_linear, parse_config
from nfsg.errors import ConfigError
from nfsg.montecarlo import conditional_interference_samples
from nfsg.pattern import m_star, mlap_gain, mlap_levels

SMALL_SCENARIO = {
    "n_antennas": 32, "n_active": 5, "cell_radius_m": 60.0,
    "los_radius_m": 60.0, "n_levels": 6,
}


def _tables_agree_at_1_and_2_threads(tmp_path, monkeypatch, doc) -> bytes:
    """The CSV table that `nfsg run` writes for doc, which must be the same
    bytes at NFSG_THREADS 1 and 2."""
    cfg = tmp_path / "threads.json"
    cfg.write_text(json.dumps(doc))
    tables = []
    for threads in ("1", "2"):
        monkeypatch.setenv("NFSG_THREADS", threads)
        out = tmp_path / f"threads{threads}.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        tables.append(out.read_bytes())
    assert tables[0] == tables[1]
    return tables[0]


def _spec(**overrides):
    doc = {"scenario": SMALL_SCENARIO,
           "anchor": {"theta_deg": 0.0, "r_m": 20.0},
           "kappa": 3, "trials": 400, "seed": 5}
    doc.update(overrides)
    return parse_config(json.dumps(doc))


class TestEmitResults:
    def test_header_only_for_empty_table(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_results([], str(path), "csv")
        assert path.read_text().strip() == ",".join(COLUMNS)
        assert len(path.read_text().strip().splitlines()) == 1

    def test_csv_roundtrip_values(self, tmp_path):
        rows = [Row("overall", "mlap", None, None, 3, 20.0, "cp", 0.5, None)]
        path = tmp_path / "t.csv"
        emit_results(rows, str(path), "csv")
        with open(path) as fh:
            got = list(csv.DictReader(fh))
        assert got[0]["metric"] == "cp"
        assert float(got[0]["value"]) == 0.5
        assert got[0]["std_error"] == ""

    def test_jsonl(self, tmp_path):
        rows = [Row("overall", "mlap", None, None, None, 5.0, "ase", 0.25, 0.01)]
        path = tmp_path / "t.jsonl"
        emit_results(rows, str(path), "jsonl")
        obj = json.loads(path.read_text().splitlines()[0])
        assert list(obj) == list(COLUMNS)
        assert obj["value"] == 0.25

    def test_unknown_format(self, tmp_path):
        rows = [Row("overall", "mlap", None, None, 3, 20.0, "cp", 0.5, None)]
        with pytest.raises(ValueError, match="unknown format"):
            emit_results(rows, str(tmp_path / "t.xml"), "xml")

    def test_deterministic_bytes(self, tmp_path):
        spec = _spec(experiment="cond-cp", modes=["upper", "montecarlo"],
                     tau_grid_db=[5.0, 15.0])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_results(run_experiment(spec), str(p1), "csv")
        emit_results(run_experiment(spec), str(p2), "csv")
        assert p1.read_bytes() == p2.read_bytes()


class TestExperiments:
    def test_pattern_cut_peak_row(self):
        spec = _spec(experiment="pattern-cut", modes=["exact", "mlap"])
        rows = run_experiment(spec)
        peak = [r for r in rows if r.mode == "exact" and r.sweep_param == "r_m"
                and r.sweep_value == 20.0]
        assert peak and peak[0].value == pytest.approx(1.0)

    def test_pattern_cut_mlap_phi_rows(self):
        # five lobes keep every phi of the cut away from a lobe edge k/N
        scenario = {**SMALL_SCENARIO, "n_levels": 5}
        spec = _spec(experiment="pattern-cut", modes=["mlap"], scenario=scenario,
                     anchor={"theta_deg": 50.0, "r_m": 20.0})
        rows = [r for r in run_experiment(spec) if r.sweep_param == "phi"]
        phi = np.array([r.sweep_value for r in rows])
        gain = np.array([r.value for r in rows])
        scn, f = spec.scenario, spec.anchor
        # an offset phi is an observation angle only where |2 phi + sin theta_f| <= 1
        s = 2.0 * phi + math.sin(f.theta)
        real = np.abs(s) <= 1.0
        assert 0 < real.sum() < phi.size
        levels = mlap_levels(scn.array, scn.mlap, f)
        want = mlap_gain(scn.array, levels, np.arcsin(s[real]), f.r)
        assert np.array_equal(gain[real], want)

    def test_polar_heatmap_structure(self):
        spec = _spec(experiment="polar-heatmap", modes=["mlap"])
        rows = run_experiment(spec)
        coords = [r for r in rows if r.mode == "grid"]
        gains = [r for r in rows if r.mode == "mlap"]
        assert len(coords) == 2 * len(gains)
        assert all(0.0 <= r.value <= 1.0 for r in gains)

    def test_polar_heatmap_gain_rows(self):
        spec = _spec(experiment="polar-heatmap", modes=["exact", "mlap"])
        rows = run_experiment(spec)
        theta, r = (np.array([row.value for row in rows
                              if row.mode == "grid" and row.metric == m])
                    for m in ("theta_rad", "r_m"))
        exact, mlap = (np.array([row.value for row in rows if row.mode == m])
                       for m in ("exact", "mlap"))
        assert theta.size == r.size == exact.size == mlap.size == 41 * 41
        scn, f = spec.scenario, spec.anchor
        ref = fresnel_phase_gain(scn.array, theta, r, f.theta, f.r)
        assert np.max(np.abs(exact - ref)) < 1e-10
        levels = mlap_levels(scn.array, scn.mlap, f)
        assert np.array_equal(mlap, mlap_gain(scn.array, levels, theta, r))

    def test_cond_cp_modes(self):
        spec = _spec(experiment="cond-cp", modes=["mlap", "upper", "montecarlo"],
                     tau_grid_db=[0.0, 10.0])
        rows = run_experiment(spec)
        by_mode = {}
        for r in rows:
            by_mode.setdefault((r.mode, r.tau_db), r.value)
        for d in (0.0, 10.0):
            assert by_mode[("mlap", d)] <= by_mode[("upper", d)] + 1e-3
            assert 0.0 <= by_mode[("montecarlo", d)] <= 1.0
        mc = [r for r in rows if r.mode == "montecarlo"]
        assert all(r.std_error is not None for r in mc)

    def test_cond_cp_builds_levels_once(self):
        # the pinned user's quantized laws do not depend on the threshold:
        # the default grid's nine thresholds build them once, in the one
        # cache of node laws, and they are handed out read-only
        spec = parse_config(json.dumps({"experiment": "cond-cp", "modes": ["mlap"]}))
        analysis._node_laws.cache_clear()
        with mock.patch.object(analysis, "_level_laws", wraps=analysis._level_laws) as build:
            rows = run_experiment(spec)
        assert build.call_count == 1 and len(rows) == len(spec.tau_grid_db) == 9
        f = spec.anchor
        for g, p in analysis._pinned_laws(f.theta, f.r, spec.kappa, spec.scenario, "mlap"):
            assert not (g.flags.writeable or p.flags.writeable)

    def test_cond_cp_noise_rows(self):
        noisy = {**SMALL_SCENARIO, "noise_power_w": 1e-8}
        modes = ["exact", "mlap", "upper", "montecarlo"]
        spec = _spec(experiment="cond-cp", scenario=noisy, modes=modes,
                     kappa=2, anchor={"theta_deg": -5.0, "r_m": 20.0},
                     tau_grid_db=[0.0, 10.0, 20.0])
        scn, f = spec.scenario, spec.anchor
        # at 20 dB the noise term alone uses up 1/tau
        assert sinr_equivalent_threshold(db_to_linear(20.0), f.r, scn) == math.inf
        value = {(r.mode, r.tau_db, r.metric): r.value for r in run_experiment(spec)}
        for mode in modes:
            for d in spec.tau_grid_db:
                assert value[(mode, d, "cp_sinr")] <= value[(mode, d, "cp")]
                if mode != "montecarlo":
                    tau_eq = sinr_equivalent_threshold(db_to_linear(d), f.r, scn)
                    assert value[(mode, d, "cp_sinr")] == conditional_cp(
                        tau_eq, f.theta, f.r, spec.kappa, scn, mode)
            assert value[(mode, 20.0, "cp_sinr")] == 0.0

    def test_cond_cp_sinr_from_one_draw(self):
        # Monte Carlo cp_sinr rows count 1/(I + noise) > tau on the draw of
        # the cp rows; 20 dB is beyond the noise budget and never met
        noisy = {**SMALL_SCENARIO, "noise_power_w": 1e-8}
        spec = _spec(experiment="cond-cp", scenario=noisy, modes=["montecarlo"],
                     tau_grid_db=[0.0, 10.0, 20.0])
        scn, f = spec.scenario, spec.anchor
        assert 1.0 / db_to_linear(20.0) < scn.noise_term(f.r) < 1.0 / db_to_linear(10.0)
        plan = TrialPlan(n_trials=spec.trials, root_seed=spec.seed, scenario=scn)
        interference = conditional_interference_samples(plan, spec.kappa, f)
        value = {(r.tau_db, r.metric): (r.value, r.std_error)
                 for r in run_experiment(spec)}
        for d in spec.tau_grid_db:
            tau = db_to_linear(d)
            for metric, noise in (("cp", 0.0), ("cp_sinr", scn.noise_term(f.r))):
                with np.errstate(divide="ignore"):
                    covered = (1.0 / (interference + noise) > tau).mean()
                assert value[(d, metric)][0] == covered
        assert value[(20.0, "cp_sinr")] == (0.0, 0.0)

    def test_m_sweep(self):
        spec = _spec(experiment="m-sweep", tau_grid_db=[10.0],
                     sweep={"param": "n_levels", "values": [1, 2, 4]},
                     modes=["mlap"])
        rows = run_experiment(spec)
        cps = [r for r in rows if r.metric == "cp"]
        assert {int(r.sweep_value) for r in cps} == {1, 2, 4}
        assert any(r.metric == "m_star" for r in rows)

    @pytest.mark.parametrize("noise", [0.0, 1e-8])
    def test_sweeps_rerun_base_rows(self, noise):
        # each sweep row is its base experiment's row at that point's
        # scenario, tagged with the point: m-sweep the cond-cp mlap cp rows,
        # the ASE sweeps the overall ase rows. Only cond-cp reads the noise,
        # so a noisy scenario is a config error on every sweep.
        scenario = {**SMALL_SCENARIO, "noise_power_w": noise}
        taus = [0.0, 10.0, 20.0]

        def base(experiment, point, **doc):
            return run_experiment(_spec(experiment=experiment, tau_grid_db=taus,
                                        scenario={**scenario, **point}, **doc))

        doc = dict(experiment="m-sweep", scenario=scenario, tau_grid_db=taus,
                   sweep={"param": "n_levels", "values": [2, 6]})
        if noise:
            with pytest.raises(ConfigError, match="noise"):
                _spec(**doc)
        else:
            assert [r for r in run_experiment(_spec(**doc)) if r.metric != "m_star"] == [
                r._replace(experiment="m-sweep", sweep_param="n_levels", sweep_value=float(m))
                for m in (2, 6) for r in base("cond-cp", {"n_levels": m}, modes=["mlap"])
                if r.metric == "cp"]
        modes = ["mlap", "upper", "montecarlo"]
        for experiment, param, values, users in (
                ("ase-vs-na", "n_active", [3, 6], lambda v: v),
                ("ratio-sweep", "na_over_n", [0.125, 0.25], lambda v: round(32 * v))):
            doc = dict(experiment=experiment, scenario=scenario, modes=modes,
                       tau_grid_db=taus, trials=200, sweep={"param": param, "values": values})
            if noise:
                with pytest.raises(ConfigError, match="noise"):
                    _spec(**doc)
                continue
            rows = run_experiment(_spec(**doc))
            assert rows == [
                r._replace(experiment=experiment, sweep_param=param, sweep_value=float(v))
                for v in values
                for r in base("overall", {"n_active": users(v)}, modes=modes,
                              trials=200, kappa=1)
                if r.metric == "ase"]

    def test_overall_rows(self):
        spec = _spec(experiment="overall", modes=["upper", "montecarlo"],
                     tau_grid_db=[10.0], trials=300)
        rows = run_experiment(spec)
        for mode in ("upper", "montecarlo"):
            cp_rows = [r for r in rows if r.mode == mode and r.metric == "cp"]
            assert len(cp_rows) == 5  # one per user
            ase_rows = [r for r in rows if r.mode == mode and r.metric == "ase"]
            assert len(ase_rows) == 1 and ase_rows[0].kappa is None

    def test_ase_vs_na_sweep(self):
        spec = _spec(experiment="ase-vs-na", modes=["montecarlo"],
                     tau_grid_db=[20.0], trials=200,
                     sweep={"param": "n_active", "values": [2, 4]})
        rows = run_experiment(spec)
        assert [r.sweep_value for r in rows] == [2.0, 4.0]
        assert all(np.isfinite(r.value) for r in rows)

    def test_ase_vs_n_sweep(self):
        # at N = 8 the sweep clamps the 6 lobes to 4
        spec = _spec(experiment="ase-vs-n", modes=["upper", "mlap", "montecarlo"],
                     trials=300, sweep={"param": "n_antennas", "values": [8, 32]})
        assert spec.sweep.scenarios[0].mlap.n_levels == 4
        rows = run_experiment(spec)
        assert sorted({r.sweep_value for r in rows}) == [8.0, 32.0]
        assert all(np.isfinite(r.value) for r in rows)
        ase = {(r.mode, r.sweep_value, r.tau_db): r.value for r in rows}
        assert len(ase) == len(rows) == 3 * 2 * 2
        for n in (8.0, 32.0):
            for d in spec.tau_grid_db:
                assert ase[("upper", n, d)] >= ase[("mlap", n, d)]

    def test_ratio_sweep_scales_users(self):
        spec = _spec(experiment="ratio-sweep", modes=["upper"],
                     tau_grid_db=[20.0],
                     sweep={"param": "na_over_n", "values": [0.0625, 0.125]})
        rows = run_experiment(spec)
        assert [r.sweep_value for r in rows] == [0.0625, 0.125]


class TestMain:
    def test_validate_ok(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("{}")
        assert main(["validate", "--config", str(cfg)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_validate_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": {"bogus": 1}}))
        assert main(["validate", "--config", str(cfg)]) == 1
        assert "scenario.bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("text, reason", [("{not json", "invalid JSON: "),
                                              ("[1, 2]", "top level must be an object")])
    def test_validate_malformed_document(self, tmp_path, capsys, text, reason):
        # the document is decoded once, by parse_config, which names it
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        assert main(["validate", "--config", str(cfg)]) == 1
        assert f"config error: <document>: {reason}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "0", "-2"])
    def test_bad_thread_count(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("NFSG_THREADS", value)
        cfg = tmp_path / "c.json"
        cfg.write_text("{}")
        out = tmp_path / "r.csv"
        for argv in (["validate", "--config", str(cfg)],
                     ["run", "--config", str(cfg), "--out", str(out)]):
            assert main(argv) == 1
            assert "config error: NFSG_THREADS:" in capsys.readouterr().err
        assert not out.exists()

    def test_run_and_overrides(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": SMALL_SCENARIO,
                                   "modes": ["upper"], "tau_grid_db": [10.0]}))
        out = tmp_path / "r.csv"
        code = main(["run", "--config", str(cfg), "--experiment", "cond-cp",
                     "--seed", "9", "--trials", "100", "--out", str(out)])
        assert code == 0
        text = out.read_text().splitlines()
        assert text[0] == ",".join(COLUMNS)
        assert len(text) > 1

    def test_sweep_thread_count_invariance(self, tmp_path, monkeypatch):
        table = _tables_agree_at_1_and_2_threads(tmp_path, monkeypatch, {
            "scenario": SMALL_SCENARIO, "experiment": "ase-vs-na",
            "modes": ["mlap", "montecarlo"], "tau_grid_db": [10.0, 20.0],
            "trials": 300, "seed": 5,
            "sweep": {"param": "n_active", "values": [1, 2, 4]}})
        assert len(table.splitlines()) == 1 + 3 * 2 * 2

    def test_noisy_cond_cp_thread_count_invariance(self, tmp_path, monkeypatch):
        # 10,000 trials make two Monte Carlo blocks, so the conditional
        # sampler's block pool runs them on two workers; 20 dB is past the
        # noise budget, so every route also answers tau = +inf
        table = _tables_agree_at_1_and_2_threads(tmp_path, monkeypatch, {
            "scenario": {**SMALL_SCENARIO, "noise_power_w": 1e-8},
            "experiment": "cond-cp", "modes": ["exact", "mlap", "upper", "montecarlo"],
            "tau_grid_db": [0.0, 10.0, 20.0], "trials": 10_000, "seed": 3})
        rows = list(csv.DictReader(table.decode().splitlines()))
        # every route emits each cp_sinr row right after its cp row
        assert [(r["mode"], r["tau_db"], r["metric"]) for r in rows] == [
            (m, repr(d), metric) for m in ("exact", "mlap", "upper", "montecarlo")
            for d in (0.0, 10.0, 20.0) for metric in ("cp", "cp_sinr")]
        assert all(r["value"] == "0.0" for r in rows
                   if (r["tau_db"], r["metric"]) == ("20.0", "cp_sinr"))

    def test_io_error_exit_code(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": SMALL_SCENARIO,
                                   "modes": ["upper"], "tau_grid_db": [10.0]}))
        code = main(["run", "--config", str(cfg), "--experiment", "cond-cp",
                     "--out", "/nonexistent-dir/x.csv"])
        assert code == 2

    def test_missing_config_file(self):
        assert main(["run", "--config", "/no/such/file.json"]) == 2

    def test_run_flags_frozen_rows_per_sweep_point(self, tmp_path, capsys):
        # one stderr line per sweep point, quantized mode and threshold whose
        # m_star passes the lobes kept; the table is the one run_experiment
        # gives
        doc = {"scenario": SMALL_SCENARIO, "experiment": "m-sweep",
               "tau_grid_db": [5.0, 30.0], "sweep": {"param": "n_levels", "values": [1, 6]}}
        cfg, out = tmp_path / "c.json", tmp_path / "r.csv"
        cfg.write_text(json.dumps(doc))
        spec = parse_config(json.dumps(doc))
        need = [m_star(spec.scenario.array, spec.scenario.mlap, db_to_linear(d)).m
                for d in (5.0, 30.0)]
        assert need[0] <= 1 < 6 < need[1]
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"warning: mlap at 30 dB at n_levels={m} is in the frozen regime: the "
            f"threshold needs {need[1]} lobes, the pattern keeps {m}" for m in (1, 6)]
        table = tmp_path / "t.csv"
        emit_results(run_experiment(spec), str(table))
        assert out.read_bytes() == table.read_bytes()


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FULL_GRID_DB = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0]
# the overall mlap and upper table at N = 256 with 15 users and 9
# thresholds, its scenario pinned as in the overall-analytic benchmark
ANALYTIC = {"experiment": "overall", "modes": ["mlap", "upper"],
            "tau_grid_db": FULL_GRID_DB,
            "scenario": {"n_antennas": 256, "carrier_freq_hz": 28e9, "n_sectors": 3,
                         "cell_radius_m": 150.0, "los_radius_m": 150.0, "n_active": 15}}


class TestAnalyticTable:
    def test_threads_and_json_lines(self, tmp_path, monkeypatch):
        # The location average cuts every lattice batch out of one step
        # table per side, which holds both bounds; no thread count may change
        # a row of it. Both output formats read each row's fields in column
        # order, and the JSON lines must hold the CSV rows: equal floats, and
        # an empty CSV cell wherever JSON has null.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(ANALYTIC))
        for threads, fmt in (("1", "csv"), ("2", "csv"), ("1", "jsonl")):
            monkeypatch.setenv("NFSG_THREADS", threads)
            assert main(["run", "--config", str(cfg), "--format", fmt,
                         "--out", str(tmp_path / f"t{threads}.{fmt}")]) == 0
        assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()
        with open(tmp_path / "t1.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        objs = [json.loads(line) for line in (tmp_path / "t1.jsonl").read_text().splitlines()]
        assert tuple(header) == COLUMNS and len(rows) == len(objs) == 9 * 2 * 31
        for cells, obj in zip(rows, objs):
            assert tuple(obj) == COLUMNS
            for cell, value in zip(cells, obj.values()):
                if value is None:
                    assert cell == ""
                elif isinstance(value, float):
                    assert float(cell) == value
                else:
                    assert cell == str(value)

    def test_without_difference_path(self, tmp_path):
        # Every mlap batch steps one ladder, the inner law's CDF powers, and
        # sums the outer law's difference from it (the difference path).
        # Switched off, every batch walks the outer law's pmf powers against
        # the same ladder, for every order; every row must agree to
        # round-off.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(ANALYTIC))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "one.csv")]) == 0
        with mock.patch.object(analysis, "_DELTA_TERMS", 0):
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "two.csv")]) == 0
        one, two = (list(csv.DictReader(open(tmp_path / name))) for name in ("one.csv", "two.csv"))
        assert len(one) == len(two) == 9 * 2 * 31
        for a, b in zip(one, two):
            assert {**a, "value": None} == {**b, "value": None}
            x, y = float(a["value"]), float(b["value"])
            assert abs(x - y) <= 1e-14 * max(abs(x), abs(y)), (a, b)


class TestThreadsAtFullScale:
    """The benchmark's Monte Carlo table and the noisy cond-cp table at
    N = 256, at one and two threads; Tier-1's other thread checks run small
    scenarios."""

    def test_overall_mc(self, tmp_path, monkeypatch):
        # four 8192-trial blocks in the Monte Carlo pool
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import workloads
        doc = workloads.WORKLOADS["overall-mc"].config(1)
        table = _tables_agree_at_1_and_2_threads(tmp_path, monkeypatch, doc)
        assert len(table.splitlines()) == 1 + 9 * (2 * 15 + 1)

    def test_noisy_cond_cp_and_m_sweep(self, tmp_path, monkeypatch, capsys):
        # All four routes, with three blocks in the conditional sampler's
        # pool. At 35 and 40 dB the noise term alone uses up 1/tau, so the
        # cp_sinr rows ask for tau = +inf and read 0 in every route.
        scenario = {"n_antennas": 256, "noise_power_w": 1e-10}
        table = _tables_agree_at_1_and_2_threads(tmp_path, monkeypatch, {
            "experiment": "cond-cp", "modes": ["exact", "mlap", "upper", "montecarlo"],
            "scenario": scenario, "trials": 20000, "seed": 1})
        rows = list(csv.DictReader(table.decode().splitlines()))
        assert sum((r["metric"], r["value"]) == ("cp_sinr", "0.0") for r in rows) == 8
        # m-sweep re-runs the cond-cp rows at each lobe count, and no m-sweep
        # row reads the noise, so a noisy one is a config error; at the
        # baseline's 10 lobes its cp rows are the mlap cp rows above
        doc = {"experiment": "m-sweep", "sweep": {"param": "n_levels", "values": [10]},
               "tau_grid_db": FULL_GRID_DB, "scenario": scenario}
        cfg, out = tmp_path / "m-sweep.json", tmp_path / "m-sweep.csv"
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith(
            "config error: scenario.noise_power_w: ")
        cfg.write_text(json.dumps({**doc, "scenario": {"n_antennas": 256}}))
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        m_sweep = list(csv.DictReader(out.read_text().splitlines()))
        cp = [[(r["tau_db"], r["value"]) for r in got if r["mode"] == "mlap"
               and r["metric"] == "cp"] for got in (rows, m_sweep)]
        assert len(cp[0]) == 9 and cp[1] == cp[0]
        assert sorted(r["metric"] for r in m_sweep) == ["cp"] * 9 + ["m_star"] * 9


class TestFrozenRegime:
    def test_noisy_cond_cp(self, tmp_path, capsys):
        # a cp_sinr row evaluates the SINR-equivalent threshold, which the
        # noise lifts above tau: at 30 dB it is 35.63 dB, which needs 12
        # lobes of the 10 kept. At 35 and 40 dB it is +inf, where CP is 0,
        # not frozen; the cp rows there are flagged as without noise
        doc = {"experiment": "cond-cp", "modes": ["mlap", "upper"],
               "scenario": {"n_antennas": 256, "noise_power_w": 1e-10}}
        scn = parse_config(json.dumps(doc)).scenario
        tau_eq = [sinr_equivalent_threshold(db_to_linear(d), 30.0, scn) for d in (30, 35, 40)]
        assert round(10.0 * math.log10(tau_eq[0]), 2) == 35.63
        assert m_star(scn.array, scn.mlap, tau_eq[0]).m == 12
        assert tau_eq[1:] == [math.inf, math.inf]
        cfg, out = tmp_path / "c.json", tmp_path / "r.csv"
        err = {}
        for noise in (1e-10, 0.0):
            doc["scenario"]["noise_power_w"] = noise
            cfg.write_text(json.dumps(doc))
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            err[noise] = capsys.readouterr().err.splitlines()
        cp = [[f"warning: {mode} at {d} dB is in the frozen regime: the threshold needs "
               f"{need} lobes, the pattern keeps 10" for d, need in ((35, 12), (40, 20))]
              for mode in ("mlap", "upper")]
        assert err[0.0] == cp[0] + cp[1]
        assert err[1e-10] == [
            line for mode, lines in zip(("mlap", "upper"), cp)
            for line in [f"warning: {mode} cp_sinr at 30 dB is in the frozen regime: its "
                         "SINR-equivalent threshold 35.63 dB needs 12 lobes, the pattern "
                         "keeps 10", *lines]]

    def test_default_overall(self):
        # at the baseline's 10 lobes, 35 and 40 dB need 12 and 20: every
        # quantized route is frozen there, and nowhere else
        spec = parse_config(json.dumps({"experiment": "overall",
                                        "modes": ["exact", "mlap", "upper", "montecarlo"]}))
        assert [(value, mode, d) for value, mode, d, *_ in _frozen(spec)] == [
            (None, mode, d) for mode in ("mlap", "upper") for d in (35.0, 40.0)]

    def test_saturated_thresholds(self, tmp_path, capsys):
        # m_star caps the lobe count at N//2 = 8 and marks 30 and 35 dB
        # saturated: they need more lobes than N = 16 antennas give, so they
        # are flagged at every lobe count, the three clamped to 8 included
        doc = {"experiment": "m-sweep", "scenario": {"n_antennas": 16, "n_levels": 8}}
        spec = parse_config(json.dumps(doc))
        arr, mlap = spec.scenario.array, spec.scenario.mlap
        assert [m_star(arr, mlap, db_to_linear(d)) for d in spec.tau_grid_db] == [
            (1, False), (3, False), (8, True), (8, True)]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 0
        lines = []
        for value, scn in zip(spec.sweep.values, spec.sweep.scenarios):
            kept = scn.mlap.n_levels
            need = [(20, 3)] * (kept < 3) + [(30, "more than 8"), (35, "more than 8")]
            lines += [f"warning: mlap at {d} dB at n_levels={value:g} is in the frozen "
                      f"regime: the threshold needs {m} lobes, the pattern keeps {kept}"
                      for d, m in need]
        assert capsys.readouterr().err.splitlines() == lines
        assert [scn.mlap.n_levels for scn in spec.sweep.scenarios[-3:]] == [8, 8, 8]

    @pytest.mark.parametrize("experiment", ["pattern-cut", "polar-heatmap"])
    def test_pattern_rows_have_no_threshold(self, tmp_path, capsys, experiment):
        # one lobe is frozen at 20 dB, but no pattern row reads a threshold
        doc = {"experiment": experiment, "modes": ["exact", "mlap"],
               "scenario": {"n_levels": 1}}
        spec = parse_config(json.dumps(doc))
        assert spec.tau_grid_db == ()
        assert m_star(spec.scenario.array, spec.scenario.mlap, db_to_linear(20.0)).m > 1
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 0
        assert capsys.readouterr().err == ""

    def test_criterion_9_grid(self):
        # criterion 9 runs its quantized half at the lobe count m_star gives
        # its largest threshold, so none of its thresholds is frozen
        taus_db = [1e-3, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0]
        spec = parse_config(json.dumps({"experiment": "overall", "modes": ["mlap", "upper"],
                                        "tau_grid_db": taus_db,
                                        "scenario": {"n_levels": 20}}))
        assert m_star(spec.scenario.array, spec.scenario.mlap, db_to_linear(40.0)).m == 20
        assert _frozen(spec) == []


def test_overall_mlap_vs_mc_gap(tmp_path):
    """Default-scale overall run: quantized-route CP tracks the simulation
    loosely (the quantized pattern understates defocused-beam interference;
    measured worst per-user gap ~0.15 near kappa=1 at 15-20 dB)."""
    doc = {"experiment": "overall", "modes": ["mlap", "montecarlo"],
           "tau_grid_db": [10.0, 20.0], "trials": 4000, "seed": 77}
    spec = parse_config(json.dumps(doc))
    rows = run_experiment(spec)
    gaps = {}
    for r in rows:
        if r.metric == "cp":
            gaps.setdefault((r.tau_db, r.kappa), {})[r.mode] = r.value
    worst = max(abs(v["mlap"] - v["montecarlo"]) for v in gaps.values())
    assert worst <= 0.17
    mean_gap = np.mean([abs(v["mlap"] - v["montecarlo"]) for v in gaps.values()])
    assert mean_gap <= 0.07

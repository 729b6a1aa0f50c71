import csv
import json
import math

import numpy as np
import pytest

from helpers import fresnel_phase_gain
from nfsg import TrialPlan, conditional_cp, sinr_equivalent_threshold
from nfsg.cli import COLUMNS, Row, emit_results, main, run_experiment
from nfsg.config import db_to_linear, parse_config
from nfsg.montecarlo import conditional_interference_samples
from nfsg.pattern import mlap_gain, mlap_levels

SMALL_SCENARIO = {
    "n_antennas": 32, "n_active": 5, "cell_radius_m": 60.0,
    "los_radius_m": 60.0, "n_levels": 6,
}


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
        # scenario, tagged with the point: m-sweep the cond-cp mlap cp rows
        # (with noise, not the cp_sinr ones), the ASE sweeps the overall ase rows
        scenario = {**SMALL_SCENARIO, "noise_power_w": noise}
        taus = [0.0, 10.0, 20.0]

        def base(experiment, point, **doc):
            return run_experiment(_spec(experiment=experiment, tau_grid_db=taus,
                                        scenario={**scenario, **point}, **doc))

        m_sweep = run_experiment(_spec(experiment="m-sweep", scenario=scenario,
                                       tau_grid_db=taus,
                                       sweep={"param": "n_levels", "values": [2, 6]}))
        assert [r for r in m_sweep if r.metric != "m_star"] == [
            r._replace(experiment="m-sweep", sweep_param="n_levels", sweep_value=float(m))
            for m in (2, 6) for r in base("cond-cp", {"n_levels": m}, modes=["mlap"])
            if r.metric == "cp"]
        modes = ["mlap", "upper", "montecarlo"]
        for experiment, param, values, users in (
                ("ase-vs-na", "n_active", [3, 6], lambda v: v),
                ("ratio-sweep", "na_over_n", [0.125, 0.25], lambda v: round(32 * v))):
            rows = run_experiment(_spec(experiment=experiment, scenario=scenario,
                                        modes=modes, tau_grid_db=taus, trials=200,
                                        sweep={"param": param, "values": values}))
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
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "scenario": SMALL_SCENARIO, "experiment": "ase-vs-na",
            "modes": ["mlap", "montecarlo"], "tau_grid_db": [10.0, 20.0],
            "trials": 300, "seed": 5,
            "sweep": {"param": "n_active", "values": [1, 2, 4]}}))
        tables = []
        for threads in ("1", "2"):
            monkeypatch.setenv("NFSG_THREADS", threads)
            out = tmp_path / f"r{threads}.csv"
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]
        assert len(tables[0].splitlines()) == 1 + 3 * 2 * 2

    def test_noisy_cond_cp_thread_count_invariance(self, tmp_path, monkeypatch):
        # 10,000 trials make two Monte Carlo blocks, so the conditional
        # sampler's block pool runs them on two workers; 20 dB is past the
        # noise budget, so every route also answers tau = +inf
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "scenario": {**SMALL_SCENARIO, "noise_power_w": 1e-8},
            "experiment": "cond-cp", "modes": ["exact", "mlap", "upper", "montecarlo"],
            "tau_grid_db": [0.0, 10.0, 20.0], "trials": 10_000, "seed": 3}))
        tables = []
        for threads in ("1", "2"):
            monkeypatch.setenv("NFSG_THREADS", threads)
            out = tmp_path / f"r{threads}.csv"
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]
        rows = list(csv.DictReader(tables[0].decode().splitlines()))
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

"""Experiment runner.

    nfsg run --config cfg.json --experiment overall --seed 7 --trials 20000 \
             --out results.csv [--format csv|jsonl]
    nfsg validate --config cfg.json

Emits machine-readable tables with the fixed column set
(experiment, mode, sweep_param, sweep_value, kappa, tau_db, metric, value,
std_error). All thresholds cross the CLI boundary in dB and are converted to
linear exactly once, here. NFSG_THREADS sets the sweep worker count; a value
that is not a positive integer is a config error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import analysis, montecarlo
from .config import SWEEP_PARAMS, ExperimentSpec, _scenario_for_sweep, parse_config
from .errors import ConfigError
from .pattern import (angular_gain, distance_gain, exact_gain, m_star, mlap_gain,
                      mlap_levels, three_level_distance_gain)

COLUMNS = ("experiment", "mode", "sweep_param", "sweep_value", "kappa",
           "tau_db", "metric", "value", "std_error")

_DEFAULT_TAU = {
    "cond-cp": (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0),
    "m-sweep": (5.0, 20.0, 30.0, 35.0),
    "overall": (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0),
    "ase-vs-n": (10.0, 20.0),
    "ase-vs-na": (10.0, 20.0),
    "ratio-sweep": (20.0,),
}


@dataclass
class Row:
    experiment: str
    mode: str
    sweep_param: str | None = None
    sweep_value: float | None = None
    kappa: int | None = None
    tau_db: float | None = None
    metric: str = ""
    value: float = math.nan
    std_error: float | None = None


def _db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _tau_grid(spec: ExperimentSpec):
    if spec.tau_grid_db is not None:
        return spec.tau_grid_db
    return _DEFAULT_TAU.get(spec.name, (20.0,))


def _sweep(spec: ExperimentSpec):
    if spec.sweep is not None:
        return spec.sweep.param, spec.sweep.values
    return SWEEP_PARAMS[spec.name]


def _plan(spec: ExperimentSpec, scenario) -> montecarlo.TrialPlan:
    return montecarlo.TrialPlan(n_trials=spec.trials, root_seed=spec.seed,
                                scenario=scenario)


def _rows_pattern_cut(spec: ExperimentSpec) -> list[Row]:
    scn = spec.scenario
    arr = scn.array
    f = spec.anchor
    n = arr.n_antennas
    m = scn.mlap.n_levels
    rows = []
    r_grid = np.unique(np.concatenate([
        np.linspace(max(0.02 * f.r, 0.25), scn.sector.cell_radius, 281), [f.r]]))
    levels = mlap_levels(arr, scn.mlap, f)
    for r in r_grid:
        if "exact" in spec.modes:
            rows.append(Row(spec.name, "exact", "r_m", float(r), None, None, "gain",
                            distance_gain(arr, f.theta, f.r, float(r))))
        if "mlap" in spec.modes:
            rows.append(Row(spec.name, "mlap", "r_m", float(r), None, None, "gain",
                            three_level_distance_gain(arr, f.theta, f.r, float(r),
                                                      scn.mlap.beta_gamma)))
    span = (m + 2) / n
    for phi in np.linspace(-span, span, 481):
        if "exact" in spec.modes:
            rows.append(Row(spec.name, "exact", "phi", float(phi), None, None,
                            "gain", float(angular_gain(n, phi))))
        if "mlap" in spec.modes:
            lobe = max(1, int(math.ceil(abs(phi) * n)))
            g = levels.gains[lobe] if lobe <= m else 0.0
            rows.append(Row(spec.name, "mlap", "phi", float(phi), None, None,
                            "gain", float(g)))
    return rows


def _rows_polar_heatmap(spec: ExperimentSpec) -> list[Row]:
    scn = spec.scenario
    sec = scn.sector
    f = spec.anchor
    theta = np.linspace(-sec.half_width, sec.half_width, 41)
    radius = np.linspace(max(1.0, 0.01 * sec.cell_radius), sec.cell_radius, 41)
    tt, rr = np.meshgrid(theta, radius, indexing="ij")
    tt, rr = tt.ravel(), rr.ravel()
    rows = []
    for i, (t, r) in enumerate(zip(tt, rr)):
        rows.append(Row(spec.name, "grid", "point", float(i), None, None,
                        "theta_rad", float(t)))
        rows.append(Row(spec.name, "grid", "point", float(i), None, None,
                        "r_m", float(r)))
    if "exact" in spec.modes:
        g = exact_gain(scn.array, tt, rr, f)
        rows += [Row(spec.name, "exact", "point", float(i), None, None, "gain",
                     float(v)) for i, v in enumerate(g)]
    if "mlap" in spec.modes:
        levels = mlap_levels(scn.array, scn.mlap, f)
        g = mlap_gain(scn.array, levels, tt, rr)
        rows += [Row(spec.name, "mlap", "point", float(i), None, None, "gain",
                     float(v)) for i, v in enumerate(g)]
    return rows


def _rows_cond_cp(spec: ExperimentSpec) -> list[Row]:
    scn = spec.scenario
    f = spec.anchor
    taus_db = _tau_grid(spec)
    rows = []
    with_noise = scn.noise_power > 0
    for mode in spec.modes:
        if mode == "montecarlo":
            plan = _plan(spec, scn)
            est = montecarlo.estimate_conditional_cp(
                plan, spec.kappa, f, [_db_to_linear(d) for d in taus_db])
            rows += [Row(spec.name, mode, None, None, spec.kappa, d, "cp",
                         e.value, e.std_error) for d, e in zip(taus_db, est)]
            if with_noise:
                est = montecarlo.estimate_conditional_cp(
                    plan, spec.kappa, f, [_db_to_linear(d) for d in taus_db],
                    use_sinr=True)
                rows += [Row(spec.name, mode, None, None, spec.kappa, d, "cp_sinr",
                             e.value, e.std_error) for d, e in zip(taus_db, est)]
            continue
        for d in taus_db:
            tau = _db_to_linear(d)
            val = analysis.conditional_cp(tau, f.theta, f.r, spec.kappa, scn, mode)
            rows.append(Row(spec.name, mode, None, None, spec.kappa, d, "cp", val))
            if with_noise:
                val = analysis.conditional_cp_sinr(tau, f.theta, f.r, spec.kappa,
                                                   scn, mode)
                rows.append(Row(spec.name, mode, None, None, spec.kappa, d,
                                "cp_sinr", val))
    return rows


def _rows_m_sweep(spec: ExperimentSpec) -> list[Row]:
    scn = spec.scenario
    f = spec.anchor
    param, values = _sweep(spec)
    taus_db = _tau_grid(spec)
    rows = []
    for v in values:
        scn_m = _scenario_for_sweep(scn, param, v)
        for d in taus_db:
            val = analysis.conditional_cp(_db_to_linear(d), f.theta, f.r,
                                          spec.kappa, scn_m, "mlap")
            rows.append(Row(spec.name, "mlap", param, float(v), spec.kappa, d,
                            "cp", val))
    for d in taus_db:
        ms = m_star(scn.array, scn.mlap, _db_to_linear(d))
        rows.append(Row(spec.name, "mlap", None, None, None, d, "m_star",
                        float(ms.m)))
    return rows


def _network_rows(spec: ExperimentSpec, scn, mode: str) -> list[Row]:
    """Per threshold, the cp and se rows of every user and the ase row of one
    route on one scenario."""
    rows = []
    taus_db = _tau_grid(spec)
    taus = [_db_to_linear(d) for d in taus_db]
    if mode == "montecarlo":
        cp, ase = montecarlo.estimate_network(_plan(spec, scn), taus)
    for i, (d, tau) in enumerate(zip(taus_db, taus)):
        rate = math.log2(1.0 + tau)
        if mode == "montecarlo":
            users = [(e.value, e.std_error, e.value * rate, e.std_error * rate)
                     for e in (c[i] for c in cp)]
            total = (ase[i].value, ase[i].std_error)
        else:
            se, total_ase = analysis.se_and_ase(tau, scn, mode)
            users = [(float(s / rate), None, float(s), None) for s in se]
            total = (total_ase, None)
        for k, (c, c_err, s, s_err) in enumerate(users, 1):
            rows.append(Row(spec.name, mode, None, None, k, d, "cp", c, c_err))
            rows.append(Row(spec.name, mode, None, None, k, d, "se", s, s_err))
        rows.append(Row(spec.name, mode, None, None, None, d, "ase", *total))
    return rows


def _rows_overall(spec: ExperimentSpec) -> list[Row]:
    return [row for mode in spec.modes
            for row in _network_rows(spec, spec.scenario, mode)]


def _rows_ase_sweep(spec: ExperimentSpec) -> list[Row]:
    param, values = _sweep(spec)

    def point(value):
        scn_v = _scenario_for_sweep(spec.scenario, param, value)
        return [replace(row, sweep_param=param, sweep_value=float(value))
                for mode in spec.modes for row in _network_rows(spec, scn_v, mode)
                if row.metric == "ase"]

    workers = montecarlo._workers()
    if workers > 1 and len(values) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(point, values))
    else:
        chunks = [point(v) for v in values]
    return [row for chunk in chunks for row in chunk]


_EXPERIMENTS = {
    "pattern-cut": _rows_pattern_cut,
    "polar-heatmap": _rows_polar_heatmap,
    "cond-cp": _rows_cond_cp,
    "m-sweep": _rows_m_sweep,
    "overall": _rows_overall,
    "ase-vs-n": _rows_ase_sweep,
    "ase-vs-na": _rows_ase_sweep,
    "ratio-sweep": _rows_ase_sweep,
}


def run_experiment(spec: ExperimentSpec) -> list[Row]:
    """Execute a named experiment and return its rows."""
    return _EXPERIMENTS[spec.name](spec)


def _format_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def emit_results(table: list[Row], path: str, fmt: str = "csv") -> str:
    """Write rows to CSV or JSON-lines with a fixed column order."""
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(COLUMNS)
            for row in table:
                d = asdict(row)
                writer.writerow([_format_cell(d[c]) for c in COLUMNS])
    elif fmt == "jsonl":
        with open(path, "w") as fh:
            for row in table:
                d = asdict(row)
                d["value"] = None if isinstance(d["value"], float) \
                    and math.isnan(d["value"]) else d["value"]
                fh.write(json.dumps({c: d[c] for c in COLUMNS}) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nfsg",
                                     description="near-field network experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a named experiment")
    run.add_argument("--config", default=None, help="JSON config path")
    run.add_argument("--experiment", default=None, help="experiment name override")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--trials", type=int, default=None)
    run.add_argument("--out", default=None, help="output file path")
    run.add_argument("--format", choices=("csv", "jsonl"), default=None)
    val = sub.add_parser("validate", help="validate a config document")
    val.add_argument("--config", required=True)
    return parser


def _load_spec(args) -> ExperimentSpec:
    text = "{}"
    if args.config is not None:
        with open(args.config) as fh:
            text = fh.read()
    doc = json.loads(text) if text.strip() else {}
    if not isinstance(doc, dict):
        raise ConfigError("<document>", "top level must be an object")
    if getattr(args, "experiment", None):
        doc["experiment"] = args.experiment
    if getattr(args, "seed", None) is not None:
        doc["seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        doc["trials"] = args.trials
    if getattr(args, "out", None):
        doc["output"] = args.out
    if getattr(args, "format", None):
        doc["format"] = args.format
    return parse_config(json.dumps(doc))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = _load_spec(args)
        montecarlo._workers()  # NFSG_THREADS is checked before anything runs
    except (ConfigError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    if args.command == "validate":
        print(f"ok: experiment={spec.name} modes={','.join(spec.modes)}")
        return 0
    table = run_experiment(spec)
    try:
        emit_results(table, spec.output_path, spec.fmt)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(table)} rows to {spec.output_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

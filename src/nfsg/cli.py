"""Experiment runner.

    nfsg run --config cfg.json --experiment overall --seed 7 --trials 20000 \
             --out results.csv [--format csv|jsonl]
    nfsg validate --config cfg.json

Runs the ExperimentSpec that `config.parse_config` returns as it is: the
spec carries every default, the threshold grid and, for a sweep, the scenario
at each value. The command-line flags only override document keys.

Emits machine-readable tables with the fixed column set
(experiment, mode, sweep_param, sweep_value, kappa, tau_db, metric, value,
std_error). All thresholds cross the CLI boundary in dB and are converted to
linear here, with `config.db_to_linear`. NFSG_THREADS sets the sweep worker
count; a value that is not a positive integer is a config error.
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
from .config import ExperimentSpec, db_to_linear, parse_config
from .errors import ConfigError
from .pattern import (_level_index, angular_gain, distance_gain, exact_gain, m_star,
                      mlap_gain, mlap_levels, three_level_distance_gain)

COLUMNS = ("experiment", "mode", "sweep_param", "sweep_value", "kappa",
           "tau_db", "metric", "value", "std_error")


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


def _plan(spec: ExperimentSpec, scenario) -> montecarlo.TrialPlan:
    return montecarlo.TrialPlan(n_trials=spec.trials, root_seed=spec.seed,
                                scenario=scenario)


def _rows_pattern_cut(spec: ExperimentSpec) -> list[Row]:
    scn = spec.scenario
    arr = scn.array
    f = spec.anchor
    n = arr.n_antennas
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
    span = (scn.mlap.n_levels + 2) / n
    phis = np.linspace(-span, span, 481)
    # the quantized pattern at the focal distance, one level per |phi|
    mlap = np.asarray(levels.gains)[_level_index(n, levels, np.abs(phis), f.r)]
    for phi, g in zip(phis, mlap):
        if "exact" in spec.modes:
            rows.append(Row(spec.name, "exact", "phi", float(phi), None, None,
                            "gain", float(angular_gain(n, phi))))
        if "mlap" in spec.modes:
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
    taus_db = spec.tau_grid_db
    taus = [db_to_linear(d) for d in taus_db]
    rows = []
    with_noise = scn.noise_power > 0
    for mode in spec.modes:
        if mode == "montecarlo":
            # one draw serves both metrics: the pinned user's noise term is a
            # constant, so cp_sinr is the SIR coverage at the equivalent
            # threshold, and a threshold the noise alone exhausts is never met
            metrics = ("cp", "cp_sinr") if with_noise else ("cp",)
            grid = list(taus)
            if with_noise:
                eq = (analysis.sinr_equivalent_threshold(t, f.r, scn) for t in taus)
                grid += [math.inf if t is None else t for t in eq]
            est = montecarlo.estimate_conditional_cp(_plan(spec, scn), spec.kappa, f, grid)
            keys = [(m, d) for m in metrics for d in taus_db]
            rows += [Row(spec.name, mode, None, None, spec.kappa, d, m, e.value,
                         e.std_error) for (m, d), e in zip(keys, est)]
            continue
        for d, tau in zip(taus_db, taus):
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
    sweep = spec.sweep
    rows = []
    for v, scn_m in zip(sweep.values, sweep.scenarios):
        for d in spec.tau_grid_db:
            val = analysis.conditional_cp(db_to_linear(d), f.theta, f.r,
                                          spec.kappa, scn_m, "mlap")
            rows.append(Row(spec.name, "mlap", sweep.param, v, spec.kappa, d,
                            "cp", val))
    for d in spec.tau_grid_db:
        ms = m_star(scn.array, scn.mlap, db_to_linear(d))
        rows.append(Row(spec.name, "mlap", None, None, None, d, "m_star",
                        float(ms.m)))
    return rows


def _network_rows(spec: ExperimentSpec, scn, mode: str) -> list[Row]:
    """Per threshold, the cp and se rows of every user and the ase row of one
    route on one scenario."""
    rows = []
    taus_db = spec.tau_grid_db
    taus = [db_to_linear(d) for d in taus_db]
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
    sweep = spec.sweep

    def point(value, scn_v):
        return [replace(row, sweep_param=sweep.param, sweep_value=value)
                for mode in spec.modes for row in _network_rows(spec, scn_v, mode)
                if row.metric == "ase"]

    workers = montecarlo._workers()
    if workers > 1 and len(sweep.values) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(point, sweep.values, sweep.scenarios))
    else:
        chunks = [point(v, s) for v, s in zip(sweep.values, sweep.scenarios)]
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


_OVERRIDES = ("experiment", "seed", "trials", "output", "format")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nfsg",
                                     description="near-field network experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a named experiment")
    run.add_argument("--config", default=None, help="JSON config path")
    run.add_argument("--experiment", default=None, help="experiment name override")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--trials", type=int, default=None)
    run.add_argument("--out", dest="output", default=None, help="output file path")
    run.add_argument("--format", choices=("csv", "jsonl"), default=None)
    val = sub.add_parser("validate", help="validate a config document")
    val.add_argument("--config", required=True)
    return parser


def _load_spec(args) -> ExperimentSpec:
    text = ""
    if args.config is not None:
        with open(args.config) as fh:
            text = fh.read()
    # each flag's dest is the document key it overrides; `validate` has none
    overrides = {key: getattr(args, key) for key in _OVERRIDES
                 if getattr(args, key, None) is not None}
    return parse_config(text, overrides)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = _load_spec(args)
        montecarlo._workers()  # NFSG_THREADS is checked before anything runs
    except ConfigError as exc:
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

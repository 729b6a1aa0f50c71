"""Experiment runner.

    nfsg run --config cfg.json --experiment overall --seed 7 --trials 20000 \
             --out results.csv [--format csv|jsonl]
    nfsg validate --config cfg.json

Runs the ExperimentSpec that `config.parse_config` returns as it is: the
spec carries every default, the threshold grid and, for a sweep, the scenario
at each value. The command-line flags only override document keys. A sweep
re-runs its base experiment's row builder at each value and keeps one metric.

Emits machine-readable tables with the fixed column set
(experiment, mode, sweep_param, sweep_value, kappa, tau_db, metric, value,
std_error). All thresholds cross the CLI boundary in dB and are converted to
linear here, with `config.db_to_linear`. `run` writes one stderr line for
each mlap or upper threshold, per sweep point, that lies in the quantized
pattern's frozen regime (`_frozen`); the table does not change.
NFSG_THREADS sets the worker count of the Monte Carlo block pool
(`montecarlo._map_blocks`), which runs the trial blocks of each Monte Carlo
estimate; the points of an ASE sweep run one after another. The output does
not depend on the count; a value that is not a positive integer is a config
error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from typing import NamedTuple

import numpy as np

from . import analysis, montecarlo
from .config import ExperimentSpec, db_to_linear, parse_config
from .errors import ConfigError
from .pattern import (_level_index, angular_gain, distance_gain, exact_gain, m_star,
                      mlap_gain, mlap_levels, three_level_distance_gain)


class Row(NamedTuple):
    """One table row; its fields are the columns, in output order."""

    experiment: str
    mode: str
    sweep_param: str | None = None
    sweep_value: float | None = None
    kappa: int | None = None
    tau_db: float | None = None
    metric: str = ""
    value: float = math.nan
    std_error: float | None = None


COLUMNS = Row._fields


def _plan(spec: ExperimentSpec, scenario) -> montecarlo.TrialPlan:
    return montecarlo.TrialPlan(n_trials=spec.trials, root_seed=spec.seed,
                                scenario=scenario)


def _rows_pattern_cut(spec: ExperimentSpec) -> list[Row]:
    scn = spec.scenario
    arr = scn.array
    f = spec.anchor
    n = arr.n_antennas
    r_grid = np.unique(np.concatenate([
        np.linspace(max(0.02 * f.r, 0.25), scn.sector.cell_radius, 281), [f.r]]))
    span = (scn.mlap.n_levels + 2) / n
    phis = np.linspace(-span, span, 481)
    levels = mlap_levels(arr, scn.mlap, f)
    # per mode, the distance cut on r_grid and the angle cut on phis; the
    # quantized angle cut is taken at the focal distance, one level per |phi|
    cuts = {"exact": (distance_gain(arr, f.theta, f.r, r_grid), angular_gain(n, phis)),
            "mlap": (three_level_distance_gain(arr, f.theta, f.r, r_grid,
                                               scn.mlap.beta_gamma),
                     np.asarray(levels.gains)[_level_index(n, levels, np.abs(phis), f.r)])}
    modes = [m for m in cuts if m in spec.modes]
    return [Row(spec.name, mode, param, float(x), None, None, "gain",
                float(cuts[mode][cut][i]))
            for cut, (param, xs) in enumerate((("r_m", r_grid), ("phi", phis)))
            for i, x in enumerate(xs) for mode in modes]


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


def _cond_cp_rows(spec: ExperimentSpec, scn) -> list[Row]:
    f = spec.anchor
    # one threshold grid for every route: each tau, then, with noise, its
    # SINR-equivalent threshold, since the pinned user's noise term is a
    # constant; it is +inf, never met, where the noise alone uses up 1/tau
    metrics = ("cp", "cp_sinr") if scn.noise_power > 0 else ("cp",)
    keys = [(m, d) for d in spec.tau_grid_db for m in metrics]
    grid = [db_to_linear(d) if m == "cp" else
            analysis.sinr_equivalent_threshold(db_to_linear(d), f.r, scn) for m, d in keys]
    rows = []
    for mode in spec.modes:
        if mode == "montecarlo":
            est = [(e.value, e.std_error) for e in montecarlo.estimate_conditional_cp(
                _plan(spec, scn), spec.kappa, f, grid)]
        else:
            est = [(analysis.conditional_cp(t, f.theta, f.r, spec.kappa, scn, mode), None)
                   for t in grid]
        rows += [Row(spec.name, mode, None, None, spec.kappa, d, metric, *e)
                 for (metric, d), e in zip(keys, est)]
    return rows


def _overall_rows(spec: ExperimentSpec, scn) -> list[Row]:
    """Per route and threshold, the cp and se rows of every user and the ase
    row."""
    rows = []
    taus_db = spec.tau_grid_db
    taus = [db_to_linear(d) for d in taus_db]
    for mode in spec.modes:
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


def _swept(spec: ExperimentSpec, rows_at, metric: str) -> list[Row]:
    """The `metric` rows that rows_at(spec, scenario) gives at every sweep
    point, tagged with that point."""
    sweep = spec.sweep
    return [row._replace(sweep_param=sweep.param, sweep_value=value)
            for value, scn in zip(sweep.values, sweep.scenarios)
            for row in rows_at(spec, scn) if row.metric == metric]


def _rows_m_sweep(spec: ExperimentSpec) -> list[Row]:
    scn = spec.scenario
    # no cp row reads the noise; without it, no cp_sinr row is built
    rows = _swept(spec, lambda _, at: _cond_cp_rows(spec, at.with_(noise_power=0.0)), "cp")
    for d in spec.tau_grid_db:
        ms = m_star(scn.array, scn.mlap, db_to_linear(d))
        rows.append(Row(spec.name, "mlap", None, None, None, d, "m_star",
                        float(ms.m)))
    return rows


_EXPERIMENTS = {
    "pattern-cut": _rows_pattern_cut,
    "polar-heatmap": _rows_polar_heatmap,
    "cond-cp": lambda spec: _cond_cp_rows(spec, spec.scenario),
    "m-sweep": _rows_m_sweep,
    "overall": lambda spec: _overall_rows(spec, spec.scenario),
    **dict.fromkeys(("ase-vs-n", "ase-vs-na", "ratio-sweep"),
                    lambda spec: _swept(spec, _overall_rows, "ase")),
}


def _frozen(spec: ExperimentSpec) -> list[tuple]:
    """(sweep value, mode, tau_db, lobes needed, lobes kept) for every mlap
    or upper threshold, per sweep point, that needs more lobes (m_star) than
    the pattern keeps. The lobes beyond the kept ones have gain 0, so there
    the quantized route reports its frozen regime, little more than the
    chance that every interferer sits on gain 0. pattern-cut and
    polar-heatmap rows have no threshold."""
    modes = [m for m in spec.modes if m in ("mlap", "upper")]
    if not modes or spec.name in ("pattern-cut", "polar-heatmap"):
        return []
    points = (zip(spec.sweep.values, spec.sweep.scenarios) if spec.sweep
              else [(None, spec.scenario)])
    flags = []
    for value, scn in points:
        need = [(d, m_star(scn.array, scn.mlap, db_to_linear(d)).m)
                for d in spec.tau_grid_db]
        flags += [(value, mode, d, m, scn.mlap.n_levels) for mode in modes
                  for d, m in need if m > scn.mlap.n_levels]
    return flags


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
                writer.writerow([_format_cell(v) for v in row])
    elif fmt == "jsonl":
        with open(path, "w") as fh:
            for row in table:
                if isinstance(row.value, float) and math.isnan(row.value):
                    row = row._replace(value=None)
                fh.write(json.dumps(row._asdict()) + "\n")
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
    for value, mode, d, need, kept in _frozen(spec):
        at = "" if value is None else f" at {spec.sweep.param}={value:g}"
        print(f"warning: {mode} at {d:g} dB{at} is in the frozen regime: the threshold "
              f"needs {need} lobes, the pattern keeps {kept}", file=sys.stderr)
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

"""Workload definitions: the `nfsg run` config each workload runs at a seed,
and the check of its result table against the stored references.

A seed selects one of SLOTS input slots (seed % SLOTS), so every input the
benchmark can generate has a stored reference table. references.json is made
by make_references.py at NFSG_THREADS=1.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

SLOTS = 10

# The benchmark pins the whole scenario instead of relying on the config
# defaults, so a change of defaults cannot silently change a workload.
SCENARIO = {"n_antennas": 256, "carrier_freq_hz": 28e9, "n_sectors": 3,
            "cell_radius_m": 150.0, "los_radius_m": 150.0, "n_active": 15}
TAU_GRID_DB = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0]

# Analytic rows may move by this much on the CP scale. The lattice-convolution
# CP evaluator moved single CPs by up to about 1.2e-3 against the Gil-Pelaez
# values stored here, and a more accurate evaluator must still pass.
CP_TOL = 5e-3

# Focal distances of cond-cp-exact stay in this band: the side-grid build
# cost grows as the focal point nears the array (1.31M pairs at 60 m, 2.3M at
# 30 m) but hardly depends on the angle, so the angle spans the sector.
FOCAL_R_M = (57.0, 63.0)
FOCAL_THETA_SHARE = 0.9


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int

    def config(self, seed: int) -> dict:
        slot = seed % SLOTS
        if self.name == "overall-analytic":
            # the analytic routes draw nothing, so every seed runs one input
            return {"scenario": SCENARIO, "experiment": "overall",
                    "modes": ["mlap", "upper"], "tau_grid_db": TAU_GRID_DB}
        if self.name == "cond-cp-exact":
            rng = random.Random(slot)
            half_width_deg = 180.0 / SCENARIO["n_sectors"]
            theta = rng.uniform(-1.0, 1.0) * FOCAL_THETA_SHARE * half_width_deg
            r = rng.uniform(*FOCAL_R_M)
            return {"scenario": SCENARIO, "experiment": "cond-cp",
                    "modes": ["exact"], "tau_grid_db": [10.0, 20.0], "kappa": 3,
                    "anchor": {"theta_deg": round(theta, 3), "r_m": round(r, 3)}}
        if self.name == "overall-mc":
            # four 8192-trial blocks: an even count keeps both pool threads busy
            return {"scenario": SCENARIO, "experiment": "overall",
                    "modes": ["montecarlo"], "tau_grid_db": TAU_GRID_DB,
                    "trials": 4 * 8192, "seed": slot}
        raise KeyError(self.name)


WORKLOADS = {w.name: w for w in (Workload("overall-analytic", threads=1),
                                 Workload("cond-cp-exact", threads=1),
                                 Workload("overall-mc", threads=2))}

REFERENCES = Path(__file__).with_name("references.json")


def config_text(config: dict) -> str:
    return json.dumps(config, sort_keys=True)


def table_lines(path: Path) -> list[str]:
    """Lines of a CSV result table without the header."""
    return path.read_text().splitlines()[1:]


def parse_rows(lines: list[str]) -> list[list[str]]:
    return list(csv.reader(lines))


def _key(row):
    # experiment, mode, sweep_param, sweep_value, kappa, tau_db, metric
    return tuple(row[:7])


def _cp_scale(row) -> float:
    """Factor that maps a row's value onto the CP scale."""
    mode, tau_db, metric = row[1], float(row[5]), row[6]
    rate = math.log2(1.0 + 10.0 ** (tau_db / 10.0))
    if metric == "cp":
        return 1.0
    if metric == "se":
        return rate
    if metric == "ase":
        area = math.pi * SCENARIO["cell_radius_m"] ** 2
        return SCENARIO["n_sectors"] / area * SCENARIO["n_active"] * rate
    raise ValueError(f"no tolerance for metric {metric!r} in mode {mode!r}")


def check_table(got: list[list[str]], reference: list[list[str]]) -> tuple[int, int]:
    """(attempted, failed) over result values.

    A value fails if it is missing or NaN, if a Monte Carlo row differs in
    any digit of its value or standard error, or if an analytic row is
    further than CP_TOL from its reference on the CP scale. Rows the
    reference does not have count as attempted and failed.
    """
    rows = {_key(r): r for r in got}
    failed = 0
    for ref in reference:
        row = rows.pop(_key(ref), None)
        if row is None or row[7] in ("", "nan"):
            failed += 1
        elif ref[1] == "montecarlo":
            failed += row[7:9] != ref[7:9]
        else:
            failed += not abs(float(row[7]) - float(ref[7])) <= CP_TOL * _cp_scale(ref)
    return len(reference) + len(rows), failed + len(rows)

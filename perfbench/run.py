"""nfsg benchmark: one `nfsg run` experiment per workload, end to end.

    python3 perfbench/run.py --workload overall-analytic --seed 1 --seconds 20 --trace 0

Run from the repository root. Each experiment runs in a fresh interpreter
(perfbench/child.py) that imports nfsg from ./src and calls nfsg.cli.main
in-process. The workload's config is generated from --seed (workloads.py)
and every result table is checked against references.json.

--trace 0 repeats the experiment while another repeat fits in --seconds and
reports medians of wall_s, setup_s (fresh interpreter to parsed config) and
peak_rss_mb, plus pass_ratio = 1 - failed/attempted over the checked values.
--trace 1 runs the experiment once untraced and once traced and reports the
per-layer metrics of perfbench/spans.py, process.cpu_s and trace.overhead_s.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The run context (backend, numpy version, cores,
NFSG_THREADS, seed, config hash) is printed before it and saved with the
metrics under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (REFERENCES, WORKLOADS, check_table, config_text, parse_rows,
                       table_lines)

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
CHILD = ROOT / "perfbench" / "child.py"
SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 150


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["NFSG_THREADS"] = str(threads)
    return env


def run_child(cfg: Path, out: Path, env: dict, spans: Path | None = None) -> dict:
    """Run one experiment in a fresh interpreter; returns its JSON report."""
    cmd = [sys.executable, str(CHILD), "--config", str(cfg), "--out", str(out)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"experiment process failed with code {proc.returncode}")
    return json.loads(lines[-1])


def setup_time(cfg: Path, env: dict) -> float:
    """Seconds from launching an interpreter to nfsg imported and cfg parsed."""
    cmd = [sys.executable, str(CHILD), "--config", str(cfg), "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=CHILD_TIMEOUT_S)
    if line != "ready" or proc.returncode != 0:
        raise SystemExit(f"set-up process failed with code {proc.returncode}")
    return elapsed


def unit(name: str) -> str:
    parts = name.split(".")
    if parts[-1].endswith("_s") or parts[-2].endswith("_s"):
        return "s"
    if parts[-1] in ("hit_ratio", "parallel_efficiency"):
        return "1"
    if parts[-1] == "bytes":
        return "bytes"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "nfsg" / "__init__.py").is_file():
        print(f"no nfsg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    config = config_text(workload.config(args.seed))
    config_hash = hashlib.sha256(config.encode()).hexdigest()
    references = json.loads(REFERENCES.read_text())
    entry = references["workloads"][workload.name].get(config_hash)
    if entry is None:
        print(f"no reference table for config {config_hash}", file=sys.stderr)
        return 2
    reference = parse_rows(entry["rows"])

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}"
    cfg = OUT / f"{stem}.json"
    cfg.write_text(config)
    table = OUT / f"{stem}.csv"
    env = child_env(workload.threads)
    attempted = failed = 0

    def experiment(spans: Path | None = None) -> dict:
        nonlocal attempted, failed
        report = run_child(cfg, table, env, spans)
        got = parse_rows(table_lines(table)) if report["rc"] == 0 else []
        a, f = check_table(got, reference)
        attempted += a
        failed += f
        print(f"{workload.name}: wall {report['wall_s']:.3f} s, peak rss "
              f"{report['peak_rss_mb']:.1f} MB, exit {report['rc']}, "
              f"{f} of {a} values failed", flush=True)
        return report

    if args.trace:
        plain = experiment()
        traced = experiment(OUT / f"{stem}.spans.csv.gz")
        values = dict(traced["layers"])
        values["process.cpu_s"] = traced["cpu_s"]
        values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        metrics = {k: {"value": v, "unit": unit(k)} for k, v in values.items()}
    else:
        setup = [setup_time(cfg, env) for _ in range(SETUP_SAMPLES)]
        start = time.perf_counter()
        reports = [experiment()]
        while (time.perf_counter() - start
               + statistics.median(r["wall_s"] for r in reports) <= args.seconds):
            reports.append(experiment())
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in reports),
                       "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in reports),
                            "unit": "MB"},
            "pass_ratio": {"value": 1.0 - failed / attempted, "unit": "1"},
        }
        plain = reports[0]

    context = {
        "workload": workload.name,
        "seed": args.seed,
        "config_sha256": config_hash,
        "kernel_impl": plain["kernel_impl"],
        "numpy": plain["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "nfsg_threads": workload.threads,
        "reference_kernel_impl": references["kernel_impl"],
    }
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    print("context " + json.dumps(context))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / f"{stem}-trace{args.trace}.result.json").write_text(
        json.dumps({"context": context, **result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

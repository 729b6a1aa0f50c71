"""Regenerate perfbench/references.json: the result table of every input the
benchmark can generate, keyed by the SHA-256 of its config.

    python3 perfbench/make_references.py [workload ...]

Every table is made at NFSG_THREADS=1, so the Monte Carlo workload, which
runs at 2 threads, checks on each run that results do not depend on the
thread count. Takes about ten minutes on 2 cores with the numpy kernels.
"""

from __future__ import annotations

import hashlib
import json
import sys

from run import OUT, child_env, run_child
from workloads import REFERENCES, SLOTS, WORKLOADS, config_text, table_lines


def main(names: list[str]) -> int:
    refs = (json.loads(REFERENCES.read_text()) if REFERENCES.exists()
            else {"kernel_impl": None, "nfsg_threads": 1, "workloads": {}})
    OUT.mkdir(exist_ok=True)
    env = child_env(threads=1)
    for name in names or sorted(WORKLOADS):
        tables = {}
        for seed in range(SLOTS):
            config = config_text(WORKLOADS[name].config(seed))
            digest = hashlib.sha256(config.encode()).hexdigest()
            if digest in tables:
                continue
            cfg, out = OUT / "reference.json", OUT / "reference.csv"
            cfg.write_text(config)
            report = run_child(cfg, out, env)
            if report["rc"] != 0:
                raise SystemExit(f"{name} seed {seed}: exit {report['rc']}")
            if refs["kernel_impl"] not in (None, report["kernel_impl"]):
                raise SystemExit("references exist for another kernel backend")
            refs["kernel_impl"] = report["kernel_impl"]
            tables[digest] = {"seed": seed, "config": json.loads(config),
                              "rows": table_lines(out)}
            print(f"{name} seed {seed}: {len(tables[digest]['rows'])} rows, "
                  f"{report['wall_s']:.1f} s", flush=True)
        refs["workloads"][name] = tables
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

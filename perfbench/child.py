"""One fresh interpreter running one `nfsg run` experiment in-process.

    python3 perfbench/child.py --config CFG --setup-only
    python3 perfbench/child.py --config CFG --out OUT.csv [--spans SPANS.csv.gz]

--setup-only imports nfsg, parses the config, prints "ready" and exits; the
parent times it from launch. Otherwise the child times `nfsg.cli.main` and
prints one JSON line: wall time, exit code, peak RSS, CPU time and backend,
plus the per-layer metrics when --spans asks for a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out")
    parser.add_argument("--spans", help="trace the run and write its spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import numpy
    import nfsg
    from nfsg import analysis, cli, config

    src = Path.cwd() / "src"
    if Path(nfsg.__file__).resolve().parent != (src / "nfsg").resolve():
        print(f"nfsg imported from {nfsg.__file__}, not from {src}", file=sys.stderr)
        return 2
    config.parse_config(Path(args.config).read_text())
    if args.setup_only:
        print("ready", flush=True)
        return 0

    tracer = None
    if args.spans:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    start = time.perf_counter()
    try:
        rc = cli.main(["run", "--config", args.config, "--out", args.out])
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "wall_s": wall,
        "rc": rc,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "kernel_impl": nfsg.KERNEL_IMPL,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        tracer.write(args.spans)
        result["layers"] = spans.layer_metrics(
            tracer, analysis._side_grid.cache_info(), wall)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare two saved benchmark results metric by metric.

    python3 perfbench/compare.py perfbench/out/A.result.json perfbench/out/B.result.json

Refuses (exit 2) when the two runs used different kernel backends or
different workloads: the compiled kernels are about 11x faster than the
numpy ones on gain_pairs, so such a comparison measures the backend.
Other context differences (numpy version, cores, seed) are printed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(a_path: str, b_path: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    for key in ("kernel_impl", "workload"):
        if a["context"][key] != b["context"][key]:
            print(f"refused: {key} differs ({a['context'][key]} vs "
                  f"{b['context'][key]})", file=sys.stderr)
            return 2
    for key in sorted(set(a["context"]) | set(b["context"])):
        if a["context"].get(key) != b["context"].get(key):
            print(f"context {key}: {a['context'].get(key)} vs {b['context'].get(key)}")
    print(f"failed: {a['failed']}/{a['attempted']} vs {b['failed']}/{b['attempted']}")
    for name in sorted(set(a["metrics"]) | set(b["metrics"])):
        va = a["metrics"].get(name, {}).get("value")
        vb = b["metrics"].get(name, {}).get("value")
        unit = (a["metrics"].get(name) or b["metrics"][name])["unit"]
        change = ("" if va is None or vb is None or va == vb or not va
                  else f"{100.0 * (vb - va) / abs(va):+.1f}%")
        print(f"{name:52s} {va!s:>22} {vb!s:>22} {unit:6s} {change}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))

"""The benchmark tracer must still find every function it wraps.

perfbench/spans.py replaces nfsg functions by name in the namespaces their
callers use, and perfbench/child.py reads the side-grid cache statistics.
A refactor that unbinds one of those names breaks `perfbench/run.py
--trace 1` only, so this test installs and restores the tracer.
"""

from pathlib import Path

import pytest

from nfsg import analysis, kernels

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    return spans


def test_tracer_installs_and_restores(spans):
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        patched = [(ns, attr, getattr(ns, attr), original)
                   for ns, attr, original in tracer._patched]
        kernels.gain_pairs(0.1, 20.0, 0.2, 30.0, 16, 0.01)
        metrics = spans.layer_metrics(tracer, analysis._side_grid.cache_info(), 1.0)
    finally:
        tracer.restore()
    assert metrics["kernels.gain_pairs.calls"] == 1
    for ns, attr, wrapper, original in patched:
        assert wrapper is not original
        assert getattr(ns, attr) is original, attr


def test_workload_configs_parse(monkeypatch):
    # a config check that rejects a benchmark input would otherwise show
    # only as a zero pass ratio when the benchmark runs
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from nfsg.config import parse_config

    for workload in workloads.WORKLOADS.values():
        for seed in range(workloads.SLOTS):
            parse_config(workloads.config_text(workload.config(seed)))

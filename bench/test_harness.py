"""Self-tests of the benchmark harness arithmetic and tracing.

    python3 -m pytest bench
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import self_times, summarize  # noqa: E402


def span(name, start, end, parent=-1, op=0, work=1, nodes=0, failed=False):
    return (name, start, end, parent, op, work, nodes, failed)


@pytest.mark.parametrize("q", [0, 10, 50, 90, 100])
def test_percentile_matches_numpy(q):
    values = [5.0, 1.0, 4.0, 2.5, 9.0, 7.0, 3.0]
    assert run.percentile(values, q) == pytest.approx(float(np.percentile(values, q)))


def test_percentile_single_value():
    assert run.percentile([2.0], 90) == 2.0


def test_op_latencies_take_each_ops_90th_percentile_over_passes():
    passes = [run.PassResult() for _ in range(6)]
    for i, p in enumerate(passes):
        p.latencies = [1.0 + i, 10.0 - i]
    assert run.op_latencies(passes) == pytest.approx([5.5, 9.5])


def test_digits():
    assert run.digits([1e-10, 1e-12]) == pytest.approx(10.0)
    assert run.digits([0.0]) == pytest.approx(17.0)


def test_self_time_excludes_direct_children_only():
    spans = [
        span("linkperf.ber_exact", 0.0, 10.0),
        span("specfun.lauricella_fd3_ln", 1.0, 3.0, parent=0),
        span("stats.mgf", 4.0, 8.0, parent=0),
        span("specfun.hyp2f1_ln", 5.0, 7.5, parent=2),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.5, 2.5])


def test_summary_counts_and_ratios():
    spans = [
        span("linkperf.ber_exact", 0.0, 10.0),
        span("specfun.lauricella_fd3_ln", 1.0, 2.0, parent=0),
        span("specfun.lauricella_fd3_ln", 2.0, 3.0, parent=0),
        span("linkperf.ber_mgf_quadrature", 10.0, 20.0),
        span("stats.mgf", 11.0, 13.0, parent=3, work=1),
        span("specfun.hyp2f1_ln", 11.5, 12.5, parent=4, work=1),
        span("specfun.hyp2f1_ln", 20.0, 20.5, work=4, failed=True),
        span("laplace.invert", 30.0, 31.0, work=10, nodes=640),
        span("laplace.invert", 31.0, 32.0, work=30, nodes=30 * 128),
    ]
    m = summarize(spans)
    assert m["linkperf.ber_exact.fd3_per_point"] == 2.0
    assert m["linkperf.ber_exact.self_s"] == pytest.approx(8.0)
    assert m["linkperf.ber_mgf_quadrature.mgf_calls_per_point"] == 1.0
    assert m["specfun.hyp2f1_ln.calls"] == 2
    assert m["specfun.hyp2f1_ln.points"] == 5
    assert m["specfun.hyp2f1_ln.error_frac"] == 0.5
    assert m["specfun.hyp2f1_ln.us_per_point"] == pytest.approx(1e6 * 1.5 / 5)
    assert m["stats.mgf.self_s"] == pytest.approx(1.0)
    assert m["laplace.nodes_per_abscissa"] == pytest.approx((640 + 30 * 128) / 40)
    assert m["sim.sample.samples_per_s"] == 0.0


def test_tracer_records_calls_between_modules_and_restores_names():
    import iftr.cli  # noqa: F401
    from iftr import laplace, params, stats

    original = stats.mgf
    tracer = tracing.Tracer()
    p = params.IftrParams(10.0, 0.9, 2.0, 8.0, 1.0)
    x = np.array([0.1, 1.0])
    cfg = laplace.LaplaceInversionConfig()
    with tracer.patched():
        tracer.op = 7
        stats.cdf(p, x, cfg=cfg)
    assert stats.mgf is original
    names = [s[0] for s in tracer.spans]
    assert names == ["stats.distribution", "laplace.invert", "stats.mgf", "specfun.hyp2f1_ln"]
    assert all(s[tracing.OP] == 7 for s in tracer.spans)
    dist_span, inv_span, mgf_span, hyp_span = tracer.spans
    # The mgf is called from inside the inversion, which runs inside cdf.
    assert [s[tracing.PARENT] for s in tracer.spans] == [-1, 0, 1, 2]
    assert inv_span[tracing.WORK] == 2 and inv_span[tracing.NODES] == 2 * cfg.terms
    assert mgf_span[tracing.WORK] == hyp_span[tracing.WORK] == 2 * cfg.terms
    assert math.isclose(sum(self_times(tracer.spans)), dist_span[tracing.END] - dist_span[tracing.START])

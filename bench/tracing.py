"""Spans around the library's layer functions, recorded from outside.

``Tracer.patched()`` replaces each traced function under every name the
``iftr`` modules (and the package namespace) bind it to, so calls made by
other modules are seen too; leaving the block restores the originals.
Spans stay in memory as tuples

    (name, start, end, parent index, op id, work, nodes, failed)

and are written once, at the end of the traced run.  ``summarize`` turns
them into the per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

NAME, START, END, PARENT, OP, WORK, NODES, FAILED = range(8)

# Span name for each traced function, per module.
LAYERS = {
    "specfun": {
        "hyp2f1_ln": "specfun.hyp2f1_ln",
        "lauricella_fd3_ln": "specfun.lauricella_fd3_ln",
        "log_i0": "specfun.log_i0",
    },
    "laplace": {
        "laplace_invert_density": "laplace.invert",
        "laplace_invert_cdf": "laplace.invert",
        "phi2_multi_rate": "laplace.invert",
    },
    "stats": {
        "mgf": "stats.mgf",
        "pdf": "stats.distribution",
        "cdf": "stats.distribution",
    },
    "linkperf": {
        "ber_exact": "linkperf.ber_exact",
        "ber_mgf_quadrature": "linkperf.ber_mgf_quadrature",
        "ber_asymptotic": "linkperf.ber_asymptotic",
        "ber_monte_carlo": "linkperf.ber_monte_carlo",
        "outage": "linkperf.outage",
    },
    "sim": {
        "sample_iftr": "sim.sample",
        "write_samples": "sim.write_samples",
        "read_samples": "sim.read_samples",
    },
    "fitting": {
        "fit": "fitting.fit",
        "empirical_cdf_from_samples": "fitting.empirical_cdf",
    },
}

def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _terms(cfg):
    """Nodes per abscissa of an inversion call (the library's default when cfg is None)."""
    return (cfg or sys.modules["iftr.laplace"].DEFAULT_CONFIG).terms


# (work, nodes) of one call, read from its arguments and result.  Work is
# points for kernels, abscissae for inversions, samples for the sampler,
# bytes for sample files and objective evaluations for fits.
def _work(func, args, kwargs, result):
    if func in ("hyp2f1_ln", "log_i0"):
        return int(np.size(args[3] if func == "hyp2f1_ln" else args[0])), 0
    if func == "mgf":
        return int(np.size(args[1])), 0
    if func in ("laplace_invert_density", "laplace_invert_cdf"):
        n = int(np.size(args[1]))
        return n, n * _terms(_arg(args, kwargs, 2, "cfg"))
    if func == "phi2_multi_rate":
        n = int(np.size(args[3]))
        return n, n * _terms(_arg(args, kwargs, 4, "cfg"))
    if func in ("pdf", "cdf"):
        return int(np.size(args[1])), 0
    if func == "sample_iftr":
        return int(args[1].n_samples), 0
    if func in ("write_samples", "read_samples"):
        return os.path.getsize(args[0]), 0
    if func == "fit":
        return int(result.diagnostics.get("n_evals", 0)), 0
    if func == "empirical_cdf_from_samples":
        return int(np.size(args[0])), 0
    return 1, 0


class Tracer:
    """In-memory span recorder for one traced pass (single-threaded use).

    Build it after ``iftr.cli`` is imported and while no other tracer is
    installed: the constructor records every name bound to a traced function.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.op: int = -1
        modules = [m for n, m in sys.modules.items() if n == "iftr" or n.startswith("iftr.")]
        self._bindings = []  # (module, attribute, original, wrapper)
        for layer, funcs in LAYERS.items():
            home = sys.modules[f"iftr.{layer}"]
            for func_name, span_name in funcs.items():
                original = getattr(home, func_name)
                wrapper = self._wrap(func_name, span_name, original)
                for mod in modules:
                    for attr, value in vars(mod).items():
                        if value is original:
                            self._bindings.append((mod, attr, original, wrapper))

    def _wrap(self, func_name: str, span_name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            failed = True
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                stack.pop()
                work, nodes = (0, 0) if failed else _work(func_name, args, kwargs, result)
                spans[index] = (span_name, start, end, parent, self.op, work, nodes, failed)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self):
        """Install the wrappers under every bound name; restore on exit."""
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, original, _ in self._bindings:
                setattr(mod, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (single thread), so the covered time
    is the sum of the children's durations.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(spans) -> dict:
    """Per-layer counts and times of one pass's spans (names as in BENCHMARK.json)."""
    selft = self_times(spans)
    calls, work, nodes, failed, self_s, total_s = {}, {}, {}, {}, {}, {}
    for s, st in zip(spans, selft):
        n = s[NAME]
        calls[n] = calls.get(n, 0) + 1
        work[n] = work.get(n, 0) + s[WORK]
        nodes[n] = nodes.get(n, 0) + s[NODES]
        failed[n] = failed.get(n, 0) + int(s[FAILED])
        self_s[n] = self_s.get(n, 0.0) + st
        total_s[n] = total_s.get(n, 0.0) + (s[END] - s[START])

    def c(n):
        return calls.get(n, 0)

    def w(n):
        return work.get(n, 0)

    def t(n):
        return self_s.get(n, 0.0)

    fd3_in_exact = sum(
        1 for i, s in enumerate(spans)
        if s[NAME] == "specfun.lauricella_fd3_ln" and _has_ancestor(spans, i, "linkperf.ber_exact")
    )
    mgf_in_quad = sum(
        1 for i, s in enumerate(spans)
        if s[NAME] == "stats.mgf" and _has_ancestor(spans, i, "linkperf.ber_mgf_quadrature")
    )
    mb = 1e-6
    return {
        "specfun.hyp2f1_ln.calls": c("specfun.hyp2f1_ln"),
        "specfun.hyp2f1_ln.points": w("specfun.hyp2f1_ln"),
        "specfun.hyp2f1_ln.self_s": t("specfun.hyp2f1_ln"),
        "specfun.hyp2f1_ln.us_per_point": 1e6 * _ratio(t("specfun.hyp2f1_ln"), w("specfun.hyp2f1_ln")),
        "specfun.hyp2f1_ln.error_frac": _ratio(failed.get("specfun.hyp2f1_ln", 0), c("specfun.hyp2f1_ln")),
        "specfun.lauricella_fd3_ln.calls": c("specfun.lauricella_fd3_ln"),
        "specfun.lauricella_fd3_ln.self_s": t("specfun.lauricella_fd3_ln"),
        "specfun.log_i0.points": w("specfun.log_i0"),
        "specfun.log_i0.self_s": t("specfun.log_i0"),
        "laplace.invert.calls": c("laplace.invert"),
        "laplace.invert.abscissae": w("laplace.invert"),
        "laplace.invert.self_s": t("laplace.invert"),
        "laplace.nodes_per_abscissa": _ratio(nodes.get("laplace.invert", 0), w("laplace.invert")),
        "stats.mgf.calls": c("stats.mgf"),
        "stats.mgf.points": w("stats.mgf"),
        "stats.mgf.self_s": t("stats.mgf"),
        "stats.mgf.ns_per_point": 1e9 * _ratio(t("stats.mgf"), w("stats.mgf")),
        "stats.distribution.self_s": t("stats.distribution"),
        "linkperf.ber_exact.self_s": t("linkperf.ber_exact"),
        "linkperf.ber_exact.fd3_per_point": _ratio(fd3_in_exact, c("linkperf.ber_exact")),
        "linkperf.ber_mgf_quadrature.self_s": t("linkperf.ber_mgf_quadrature"),
        "linkperf.ber_mgf_quadrature.mgf_calls_per_point": _ratio(mgf_in_quad, c("linkperf.ber_mgf_quadrature")),
        "linkperf.outage.self_s": t("linkperf.outage"),
        "sim.sample.self_s": t("sim.sample"),
        "sim.sample.samples_per_s": _ratio(w("sim.sample"), total_s.get("sim.sample", 0.0)),
        "sim.write_samples.self_s": t("sim.write_samples"),
        "sim.write_samples.mb_per_s": _ratio(mb * w("sim.write_samples"), total_s.get("sim.write_samples", 0.0)),
        "sim.read_samples.self_s": t("sim.read_samples"),
        "sim.read_samples.mb_per_s": _ratio(mb * w("sim.read_samples"), total_s.get("sim.read_samples", 0.0)),
        "fitting.fit.evals": w("fitting.fit"),
        "fitting.fit.evals_per_s": _ratio(w("fitting.fit"), total_s.get("fitting.fit", 0.0)),
        "fitting.fit.optimizer_self_s": t("fitting.fit"),
        "fitting.empirical_cdf.self_s": t("fitting.empirical_cdf"),
    }


def write_spans(path, tracers) -> None:
    """Write the spans of every traced pass as JSON lines: [pass, *span]."""
    with open(path, "w", encoding="utf-8") as fh:
        for pass_id, tracer in enumerate(tracers):
            for span in tracer.spans:
                fh.write(json.dumps([pass_id, *span]) + "\n")


def read_spans(path) -> list[list]:
    """Spans of a file written by ``write_spans``, one list per pass."""
    passes: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                row = json.loads(line)
                passes.setdefault(row[0], []).append(tuple(row[1:]))
    return [passes[k] for k in sorted(passes)]


if __name__ == "__main__":
    # python3 bench/tracing.py SPANS.jsonl : per-layer summary of each pass
    # in a span file written by run.py --trace 1.
    if len(sys.argv) != 2:
        sys.exit("usage: python3 bench/tracing.py SPANS.jsonl")
    for pass_id, spans in enumerate(read_spans(sys.argv[1])):
        for key, value in summarize(spans).items():
            print(f"pass {pass_id} {key} {value:.6g}")

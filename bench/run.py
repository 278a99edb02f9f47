"""iftr benchmark harness.

Run from the repository root:

    python3 bench/run.py --workload curves|ber|fit|montecarlo --seed N \\
        --seconds S --trace 0|1 [--out RESULTS.jsonl]

One process drives the library's public API as a closed loop: one caller,
each op issued after the previous one returns.  After set-up and one
warm-up pass, passes over the workload's op list repeat until ``--seconds``
have been spent measuring (at least one pass).  Every op's output is
checked (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics from the
traced ones, writing their spans to ``bench/.work/spans-<workload>.jsonl``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment record and each metric by name with its unit.

The library is imported from ``src/`` beside this directory; without it
the harness exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

WORKLOADS = ("curves", "ber", "fit", "montecarlo")
# BLAS pools stay at one thread (at most nproc): the harness is one caller.
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROCESSES = 5   # fresh processes timed for setup_s (median reported)
IMPORT_PROCESSES = 3  # fresh `-X importtime` processes for cli.import_s
OP_QUANTILE = 90      # percentile of each op's latencies over the passes
SUBPROCESS_TIMEOUT = 120


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in BLAS_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def env_record() -> dict:
    """Machine and toolchain description stored with every result."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "blas_threads": int(BLAS_THREADS),
    }


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method), 0 <= q <= 100."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def digits(rel_errs) -> float:
    """-log10 of the worst relative error (exact agreement reads as 17 digits)."""
    return -math.log10(max(max(rel_errs), 1e-17))


class PassResult:
    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.rel_errs: list[float] = []
        self.excess_eps: list[float] = []
        self.warnings: dict[str, int] = {}


def run_pass(workload, tracer=None) -> PassResult:
    from workloads import CheckError

    res = PassResult()
    for index, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.op = index
        scope = tracer.patched() if tracer is not None else contextlib.nullcontext()
        with warnings.catch_warnings(record=True) as caught, scope:
            warnings.simplefilter("always")
            error = None
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # an op failure is counted, not fatal
                error = exc
            dt = time.perf_counter() - t0
        res.latencies.append(dt)
        for w in caught:
            name = w.category.__name__
            res.warnings[name] = res.warnings.get(name, 0) + 1
        if error is not None:
            res.failures.append(f"op {index} ({op.kind}) raised {type(error).__name__}: {error}")
            continue
        try:
            info = op.check(out)
        except CheckError as exc:
            res.failures.append(f"op {index} ({op.kind}) failed its check: {exc}")
            continue
        res.rel_errs.extend(info.get("rel_err", ()))
        if "excess_eps" in info:
            res.excess_eps.append(info["excess_eps"])
    return res


def timed_subprocess(args) -> float:
    t0 = time.perf_counter()
    subprocess.run(args, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                   check=True, timeout=SUBPROCESS_TIMEOUT)
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that import iftr.cli and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    return statistics.median(timed_subprocess(cmd) for _ in range(SETUP_PROCESSES))


def import_times() -> dict:
    """Cumulative `-X importtime` seconds of iftr.cli (which imports iftr) and of scipy.optimize."""
    runs = []
    for _ in range(IMPORT_PROCESSES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import iftr.cli"],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              check=True, timeout=SUBPROCESS_TIMEOUT)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].strip()
            if name in ("iftr.cli", "scipy.optimize"):
                cumulative[name] = int(parts[1])
        runs.append(cumulative)
    return {
        "cli.import_s": statistics.median(r.get("iftr.cli", 0) for r in runs) * 1e-6,
        "cli.import_scipy_optimize_s": statistics.median(r.get("scipy.optimize", 0) for r in runs) * 1e-6,
    }


def metric_specs(kind: str) -> list[dict]:
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as fh:
        return json.load(fh)[kind]


def op_latencies(passes) -> list[float]:
    """Each op's 90th-percentile latency over the measured passes.

    The shared host that defined this benchmark switches, every few
    seconds, between a contended state and faster episodes; identical
    passes ran up to 1.8x apart, with CPU time tracking wall time.  A
    per-op minimum or median flips between the states with the share of
    fast time a run happens to get; a high percentile stays in the
    contended state.  Over the same ten-seed sets, the spread of
    ``wall_s`` was smallest with the 90th percentile on every workload
    (README.md, "Why the per-op 90th percentile").
    """
    return [percentile(lat, OP_QUANTILE) for lat in zip(*(p.latencies for p in passes))]


def end_to_end(passes, setup_s, extra_rel_errs) -> dict:
    rel = [e for p in passes for e in p.rel_errs] + list(extra_rel_errs)
    typical = op_latencies(passes)
    return {
        "setup_s": setup_s,
        "wall_s": sum(typical),
        "op_p50_ms": 1e3 * percentile(typical, 50),
        "op_p90_ms": 1e3 * percentile(typical, 90),
        "digits": digits(rel) if rel else math.nan,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def clamp_total(laplace) -> int:
    counts = getattr(laplace, "clamp_counts", None)
    return sum(counts.values()) if counts else 0


def per_layer(traced, untraced, clamps, imports) -> dict:
    from tracing import summarize

    def median_over(key, rows):
        return statistics.median(row[key] for row in rows)

    rows = [summarize(tracer.spans) for tracer, _ in traced]
    out = {key: median_over(key, rows) for key in rows[0]}
    results = [res for _, res in traced]
    out["laplace.clamped"] = statistics.median(clamps)
    out["laplace.tolerance_warnings"] = statistics.median(r.warnings.get("ToleranceWarning", 0) for r in results)
    out["stats.approximation_warnings"] = statistics.median(
        r.warnings.get("ApproximationWarning", 0) for r in results)
    excess = [e for r in results for e in r.excess_eps]
    out["fitting.fit.excess_eps"] = max(excess) if excess else 0.0
    out["trace.overhead_frac"] = sum(op_latencies(results)) / sum(op_latencies(untraced)) - 1.0
    out.update(imports)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="iftr benchmark harness")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="append the full result record (JSON line) here")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")

    if not (SRC / "iftr" / "__init__.py").is_file():
        print(f"error: the library source {SRC / 'iftr'} is missing", file=sys.stderr)
        return 2
    os.environ.update({var: BLAS_THREADS for var in BLAS_VARS})
    sys.path.insert(0, str(SRC))
    import iftr.cli  # noqa: F401  (set-up cost includes the CLI's imports)
    import iftr

    if Path(iftr.__file__).resolve().parent != SRC / "iftr":
        print(f"error: imported iftr from {iftr.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import BUILDERS, CheckError

    workload = BUILDERS[args.workload](args.seed)
    if args.setup_only:
        return 0

    setup_s = measure_setup(args.workload, args.seed) if args.trace == 0 else None
    imports = import_times() if args.trace == 1 else None
    try:
        run_pass(workload)  # warm-up
        measured, traced, clamps = [], [], []
        t_start = time.perf_counter()
        while not measured or time.perf_counter() - t_start < args.seconds:
            measured.append(run_pass(workload))
            if args.trace == 1:
                from tracing import Tracer

                tracer = Tracer()
                before = clamp_total(iftr.laplace)
                traced.append((tracer, run_pass(workload, tracer)))
                clamps.append(clamp_total(iftr.laplace) - before)
        try:
            extra = workload.run_checks()
            failures = []
        except CheckError as exc:
            extra, failures = [], [f"reference check failed: {exc}"]
    finally:
        workload.cleanup()

    passes = measured + [res for _, res in traced]
    failures += [f for p in passes for f in p.failures]
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    if args.trace == 0:
        values = end_to_end(measured, setup_s, extra)
        specs = metric_specs("end_to_end")
    else:
        from tracing import write_spans
        from workloads import WORK_DIR

        values = per_layer(traced, measured, clamps, imports)
        specs = metric_specs("per_layer")
        WORK_DIR.mkdir(exist_ok=True)
        write_spans(WORK_DIR / f"spans-{args.workload}.jsonl", [t for t, _ in traced])
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    correct = not failures and all(math.isfinite(m["value"]) for m in metrics.values())

    record_env = env_record()
    warn_counts: dict[str, int] = {}
    for p in passes:
        for k, v in p.warnings.items():
            warn_counts[k] = warn_counts.get(k, 0) + v
    print("# env " + json.dumps(record_env, sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} passes {len(measured)} "
          f"ops/pass {len(workload.ops)} warnings {json.dumps(warn_counts, sort_keys=True)}")
    for failure in failures[:20]:
        print(f"# FAILED {failure}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_frac {failed / attempted:.6g} ratio")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    if args.out:
        record = {"env": record_env, "workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace, "result": result,
                  "latencies": [p.latencies for p in measured], "warnings": warn_counts}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

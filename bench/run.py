"""twistsmc benchmark: one command, three workloads, end-to-end metrics with
tracing off and per-layer metrics with tracing on.

    python3 bench/run.py --workload nlobs-grid [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  The package is imported from `src/` beside
this directory; without it the command exits with status 2.  BLAS and
OpenMP are pinned to one thread before NumPy is imported.  The last line of
standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

and the line before it carries the checks, sample counts and provenance.
See bench/README.md.
"""

from __future__ import annotations

import os
import sys
import time

_CLOCK_START = time.perf_counter()
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
DEFAULT_SEED = 20240801


def _process_age() -> float:
    """Seconds since this process started, from the kernel's start time when
    it is readable; otherwise since this file began to run."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _CLOCK_START


def _import_package():
    if not (SRC / "twistsmc" / "__init__.py").is_file():
        print(f"bench: no package at {SRC / 'twistsmc'}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import twistsmc

    if Path(twistsmc.__file__).resolve().parent != (SRC / "twistsmc").resolve():
        print(f"bench: imported twistsmc from {twistsmc.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return twistsmc


def _commit() -> str:
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _provenance() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "machine": platform.machine(),
    }


def _declared_metrics() -> tuple[dict, dict]:
    with open(REPO / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    units = lambda key: {m["name"]: m["unit"] for m in spec[key]}  # noqa: E731
    return units("end_to_end"), units("per_layer")


def _quantile(values, q: float) -> float:
    import numpy as np

    return float(np.quantile(np.asarray(values, dtype=float), q))


def end_to_end(rounds, setup_s: float, peak_rss_mb: float) -> dict:
    elapsed = sum(r.elapsed_s for r in rounds)
    finished = sum(r.attempted - r.failed for r in rounds)
    latencies = [x for r in rounds for x in r.latencies]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "draws_per_s": sum(r.draws for r in rounds) / elapsed,
        "ops_per_s": finished / elapsed,
        "op_p50_s": _quantile(latencies, 0.50),
        "op_p90_s": _quantile(latencies, 0.90),
    }, {"latency_samples": len(latencies), "measured_s": elapsed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    e2e_units, layer_units = _declared_metrics()
    out_dir = REPO / ".bench_out"
    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    workload.setup()
    setup_s = _process_age()

    rounds, traced = [], []
    tracer = layers.make_tracer() if args.trace else None
    t_start = time.perf_counter()
    while True:
        rounds.append(workload.run_round())
        if tracer is not None:
            tracer.install()
            try:
                traced.append(workload.run_round(tracer))
            finally:
                tracer.uninstall()
        # checks read the first round only; keeping later outputs would make
        # peak memory grow with the number of rounds that fit in the run
        for r in rounds[1:] + traced:
            r.data = {}
        if time.perf_counter() - t_start >= args.seconds:
            break
    # the checks below run more filters; they must not count towards the peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = list(workload.checks(rounds[0]))
    checks += workload.run_checks()
    digests = {r.digest for r in rounds + traced}
    checks.append(("rounds-identical", len(digests) == 1, f"{len(rounds) + len(traced)} rounds, {len(digests)} distinct outputs"))
    for r in traced:
        checks.extend(r.trace_checks)

    if tracer is None:
        values, info = end_to_end(rounds, setup_s, peak_rss_mb)
        units = e2e_units
    else:
        untraced_s = sum(r.elapsed_s for r in rounds)
        traced_s = sum(r.elapsed_s for r in traced)
        values = layers.per_layer(tracer, len(traced), (traced_s - untraced_s) / len(traced))
        info = {"traced_rounds": len(traced)}
        units = layer_units
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {missing}")

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    correct = all(ok for _, ok, _ in checks)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "setup_s": setup_s,
        "parts": workload.describe(rounds[0]),
        **info,
        "checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks],
        "provenance": _provenance(),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"details": details, "result": result}
    if tracer is not None:
        record["spans"] = layers.span_table(tracer, len(traced))
    with open(out_dir / f"result-{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""rankqda benchmark: seeded workloads through the library API and the CLI.

    python3 bench/run.py --workload {desk,large,batch_file} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``. Each run sets up its draws (timed as ``setup_s``), warms up,
then repeats the workload until ``--seconds`` have passed and every
draw has run at least once. ``--trace 0`` reports the end-to-end
metrics, with timings scaled to the host's nominal speed by the
reference probes of ``hostspeed.py``; ``--trace 1`` alternates plain
and traced repeats and reports per-layer calls, self times and computed
counts instead. A human summary goes to stdout, then one JSON line
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Full
results, run facts and (traced) spans are written under
``.bench_out/``. The exit code is 1 when any correctness gate failed
and 2 when the sources are missing.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One BLAS thread: the kernels are small (d <= 5), the machine has few
# cores, and a fixed count keeps runs comparable. Set before numpy loads.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

LIMITS = (
    "process-level timing only (time.perf_counter, getrusage); "
    "no system-wide tracing, no page-cache dropping, no CPU frequency control"
)

# The metrics BENCHMARK.json bounds. classify_p50_ms and classify_p99_ms
# are printed and stored too, but not bounded: on a shared 2-CPU host a
# repeat's classify calls split between a fast and a slow speed, so its
# median jumps between the two and its tail mostly measures outside load
# (see bench/README.md).
END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "predict_rows_per_s": "rows/s",
    "classify_mean_ms": "ms",
    "test_error": "fraction",
    "peak_rss_mb": "MiB",
}


def _git_sha() -> str:
    # Stop git at the checkout root so a parent repository is never reported.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "rankqda").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas_threads() -> dict:
    """Thread count reported by every OpenBLAS library loaded in this process."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return {}
    found = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(lib)] = fn()
                break
    return found


def run_facts(args) -> dict:
    import numpy
    import scipy

    def blas(mod):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads_set": {var: os.environ[var] for var in THREAD_VARS},
        "blas_threads_reported": _blas_threads(),
        "limits": LIMITS,
    }


def tail_percentile(n: int) -> float | None:
    """Highest percentile (one decimal) with at least ten samples beyond it."""
    if n < 11:
        return None
    return math.floor(1000.0 * (1.0 - 10.0 / n)) / 10.0


def describe(samples: list, scale: float = 1.0) -> dict:
    import numpy as np

    if not samples:
        return {"n": 0}
    q = tail_percentile(len(samples))
    out = {"mean": statistics.fmean(samples) * scale,
           "median": statistics.median(samples) * scale, "n": len(samples)}
    if q is not None:
        out[f"p{q:g}"] = float(np.percentile(samples, q)) * scale
    return out


def measure(workload, rec, seconds: float, tracer=None):
    """Set up, warm up and repeat; with a tracer, alternate plain and traced repeats."""
    import workloads

    draws = []
    for k in range(workload.draws):
        # Probes right before and after each draw's set-up give its speed.
        if rec.speed is not None:
            rec.speed.probe()
        draws.append(workload.setup(k, rec))
    if rec.speed is not None:
        rec.speed.probe()
    workload.warm_up(draws[0])
    plain, traced = [], []
    t_start = time.perf_counter()
    r = 0
    # Plain runs visit every draw so that test_error averages all of them.
    min_repeats = 1 if tracer is not None else workload.draws
    while r < min_repeats or time.perf_counter() - t_start < seconds:
        k = r % workload.draws
        gc.collect()
        t0 = time.perf_counter()
        workload.repeat(draws[k], k, rec)
        plain.append(time.perf_counter() - t0)
        if tracer is not None:
            gc.collect()
            workloads.install_tracing(tracer)
            t0 = time.perf_counter()
            try:
                workload.repeat(draws[k], k, rec)
            finally:
                traced.append(time.perf_counter() - t0)
                tracer.uninstall()
        r += 1
    if rec.speed is not None:
        rec.speed.probe()
    return plain, traced


def end_to_end_metrics(rec) -> tuple[dict, dict]:
    import numpy as np

    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per_repeat = [np.percentile(s, [50, 99]) * 1e3 for s in rec.classify_s if s]
    mean = statistics.fmean
    # Timings are means over calls, after each call is divided by the
    # host speed factor around it: within a run the mean moves with the
    # share of slow host time, where the median jumps between the two
    # speeds. bench/README.md has the comparison. A metric whose calls
    # all failed is left out; the run is then reported as not correct.
    classify = [s for s in rec.classify_s if s]

    def figures(setup, train, predict, classify):
        return {
            "setup_s": float(np.median(setup)),
            "train_s": mean(train) if len(train) else None,
            "predict_rows_per_s": rec.predict_rows / mean(predict) if len(predict) else None,
            "classify_mean_ms": mean(np.concatenate(classify)) * 1e3 if classify else None,
        }

    wall = figures(rec.setup_s, rec.train_s, rec.predict_s, classify)
    values = figures(rec.scaled(rec.setup_s), rec.scaled(rec.train_s),
                     rec.scaled(rec.predict_s), [rec.scaled(s, "call") for s in classify])
    speed = {name: (wall[name] / v if name != "predict_rows_per_s" else v / wall[name])
             for name, v in values.items() if v is not None}
    values["test_error"] = (statistics.fmean(rec.test_error.values())
                            if rec.test_error else None)
    values["peak_rss_mb"] = peak_mib
    classify_p50 = float(statistics.median(p[0] for p in per_repeat)) if per_repeat else None
    classify_p99 = float(statistics.median(p[1] for p in per_repeat)) if per_repeat else None
    detail = {
        "wall": wall,
        "host_speed_factor": speed,
        "host_speed_probes": {kind: {"n": len(f), "min": min(f), "max": max(f)}
                              for kind, f in rec.speed.factors.items()},
        "setup_draw_s": describe(rec.setup_s),
        "train_call_s": describe(rec.train_s),
        "predict_call_s": dict(describe(rec.predict_s), rows_per_call=rec.predict_rows),
        "classify_call_ms": describe([t for s in rec.classify_s for t in s], 1e3),
        "classify_p50_ms": classify_p50,
        "classify_p99_ms": classify_p99,
        "test_error_by_draw": {str(k): v for k, v in sorted(rec.test_error.items())},
        "samples": {"setup_s": rec.setup_s, "train_s": rec.train_s,
                    "predict_call_s": rec.predict_s,
                    "classify_p50_ms_by_repeat": [float(p[0]) for p in per_repeat],
                    "classify_p99_ms_by_repeat": [float(p[1]) for p in per_repeat],
                    "host_speed_factor": rec.speed.factors},
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items() if values[name] is not None}
    return metrics, detail


def per_layer_metrics(tracer, plain: list, traced: list) -> tuple[dict, dict]:
    import workloads

    n = len(traced)
    summary = tracer.summary()
    metrics = {}
    for _, _, name, _ in workloads.TRACED:
        calls, self_s = summary.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = {"value": calls / n, "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": self_s / n, "unit": "s"}
    for name, unit in workloads.COMPUTED.items():
        metrics[name] = {"value": tracer.counts.get(name, 0) / n, "unit": unit}

    fits = summary.get("qda.fit_rqda", (0, 0.0))[0]
    discarded = tracer.counts.get("qda.fit_rqda.SingularMatrixError", 0)
    metrics["ensemble.candidates_discarded_frac"] = {
        "value": discarded / fits if fits else 0.0, "unit": "fraction"}
    classifies = summary.get("ensemble.classify", (0, 0.0))[0]
    per_row = tracer.calls_under("qda.discriminant", "ensemble.classify")
    metrics["qda.discriminant.calls_per_classify"] = {
        "value": per_row / classifies if classifies else 0.0, "unit": "count"}
    overhead = statistics.median(t / p for t, p in zip(traced, plain)) - 1.0
    metrics["trace_overhead_frac"] = {"value": overhead, "unit": "fraction"}

    # Root spans nest inside the traced repeats, so the self times add
    # up to at most the traced wall time: a figure, not a gate.
    self_total = sum(s for _, s in summary.values())
    wall = sum(traced)
    detail = {"traced_repeats": n, "plain_repeat_s": plain, "traced_repeat_s": traced,
              "self_s_total": self_total, "traced_wall_s": wall,
              "exceptions": {k: v for k, v in tracer.counts.items()
                             if k not in workloads.COMPUTED}}
    return metrics, detail


def print_summary(facts, metrics, detail, rec) -> None:
    print(f"rankqda benchmark: workload={facts['workload']} seed={facts['seed']} "
          f"seconds={facts['seconds']} trace={facts['trace']}")
    print(f"  git {facts['git_sha']}  source sha256 {facts['source_sha256'][:16]}")
    print(f"  nproc {facts['nproc']}  python {facts['python']}  numpy {facts['numpy']} "
          f"({facts['numpy_blas']})  scipy {facts['scipy']} ({facts['scipy_blas']})  "
          f"BLAS threads {facts['blas_threads_reported'] or facts['blas_threads_set']}")
    print(f"  limits: {facts['limits']}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']}")
    for name, factor in detail.get("host_speed_factor", {}).items():
        print(f"  {name + ' (wall, unscaled)':42s} {detail['wall'][name]:>16.6g}  "
              f"host speed factor {factor:.4f}")
    for name in ("classify_p50_ms", "classify_p99_ms"):
        if detail.get(name) is not None:
            print(f"  {name + ' (wall, not bounded)':42s} {detail[name]:>16.6g} ms")
    for name, d in detail.items():
        if isinstance(d, dict) and "median" in d:
            tail = ", ".join(f"{k} {v:.6g}" for k, v in d.items() if k.startswith("p"))
            print(f"  {'timing ' + name:42s} mean {d['mean']:.6g}  median {d['median']:.6g}  "
                  f"{tail or 'no percentile: n < 11'}  n={d['n']}")
    if "self_s_total" in detail:
        print(f"  {'self times / traced wall time':42s} {detail['self_s_total']:>16.6g} s "
              f"of {detail['traced_wall_s']:.6g} s")
    frac = rec.failed / rec.attempted if rec.attempted else 0.0
    print(f"  {'ops_failed_frac':42s} {frac:>16.6g} fraction "
          f"({rec.failed} of {rec.attempted} calls)")
    for message in rec.messages[:20]:
        print(f"FAILED: {message.rstrip()}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("desk", "large", "batch_file"))
    parser.add_argument("--seed", type=int, default=20260810)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rankqda" / "__init__.py").is_file():
        print(f"error: no rankqda sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import rankqda

    if Path(rankqda.__file__).resolve().parent != SRC / "rankqda":
        print(f"error: imported rankqda from {rankqda.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import hostspeed
    import tracer as tracing
    import workloads

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # Traced runs take no probes, so trace_overhead_frac compares
        # the layers alone.
        rec = workloads.Record(speed=None if args.trace else hostspeed.HostSpeed())
        workload = workloads.make(args.workload, args.seed, str(workdir))
        tracer = tracing.Tracer() if args.trace else None
        plain, traced = measure(workload, rec, args.seconds, tracer)
        if tracer is None:
            metrics, detail = end_to_end_metrics(rec)
        else:
            metrics, detail = per_layer_metrics(tracer, plain, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    facts = run_facts(args)
    correct = rec.failed == 0
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        # One spans file per workload, overwritten by the next traced run.
        tracer.save(OUT / f"{args.workload}-spans.npz")
    result = {"correct": correct, "attempted": rec.attempted, "failed": rec.failed,
              "metrics": metrics}
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as f:
        json.dump(dict(result, facts=facts, detail=detail, messages=rec.messages[:20]),
                  f, indent=1)
    print_summary(facts, metrics, detail, rec)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

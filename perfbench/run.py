"""Certification benchmark for sepcert.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload quench-ring --seed 1 --seconds 25 --trace 0

One process runs one workload.  After set-up it runs whole sweeps of items
made from the seed, checking each item, until ``--seconds`` have passed;
the same seed gives the same items in the same order.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` the run is one sweep, every library call is recorded as
a span and the metrics are per-layer totals.  Results and spans are also
written under ``.perfbench-out/`` at the checkout root.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402  (the clock above starts before every import)
import ctypes
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
# Fresh processes whose set-up time is measured: this one and two children.
SETUP_SAMPLES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description="sepcert certification benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Set up, print the set-up time and exit (the extra set-up samples).
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def blas_threads():
    """Thread count of each OpenBLAS loaded into the process (numpy and
    scipy each bundle their own), read through its C interface."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:  # no /proc: the counts are informational only
        return found
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def set_up(workload, seed, sc, np):
    """Draw the first sweep from the seed and run one warm-up certify."""
    rng = np.random.default_rng(seed)
    sweep = workload.sweep(rng)
    sc.certify(sc.werner_dataset(0.0))
    return rng, sweep


def child_setup_s(args):
    """Set-up time of a fresh process: imports, inputs and the cold warm-up."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def run(args):
    src = ROOT / "src"
    if not (src / "sepcert" / "__init__.py").is_file():
        print(f"error: no sepcert sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np

    import sepcert as sc
    from tracing import COUNTERS, LAYER_OF_SPAN, ITEM_SPAN, NullTracer, Tracer, layer_totals
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    import_s = time.perf_counter() - T_START
    rng, sweep = set_up(workload, args.seed, sc, np)
    setup_samples = [time.perf_counter() - T_START]
    if args.setup_only:
        print(setup_samples[0])
        return 0
    if not args.trace:
        setup_samples += [child_setup_s(args) for _ in range(SETUP_SAMPLES - 1)]

    tracer = Tracer() if args.trace else NullTracer()
    OUT_DIR.mkdir(exist_ok=True)
    item_times, item_cpu, failures = [], [], []
    size = len(sweep)
    n_sweeps = 0
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as io_dir:
        io_dir = Path(io_dir)
        deadline = time.perf_counter() + args.seconds
        # Whole sweeps only, so failed items are the same share of every run.
        # A traced run is one sweep: its totals are those of a fixed item set.
        while n_sweeps == 0 or (not args.trace and time.perf_counter() < deadline):
            if n_sweeps:
                sweep = workload.sweep(rng)
            for params in sweep:
                tracer.item = k = len(item_times)
                c0, t0 = time.process_time(), time.perf_counter()
                try:
                    with tracer.span(ITEM_SPAN):
                        out = workload.run(params, tracer, io_dir)
                    wrong, faults = [], []
                except sc.SepcertError as exc:
                    out, wrong, faults = None, [], [f"{type(exc).__name__}: {exc}"]
                t1, c1 = time.perf_counter(), time.process_time()
                item_times.append(t1 - t0)
                item_cpu.append(c1 - c0)
                if out is not None:
                    verdict = workload.check(params, out)
                    wrong, faults = verdict.wrong, verdict.faults
                if wrong or faults:
                    failures.append({"item": k, "params": repr(params)[:200],
                                     "wrong": wrong, "faults": faults})
            n_sweeps += 1

    sweep_wall = [sum(item_times[s * size:(s + 1) * size]) for s in range(n_sweeps)]
    sweep_cpu = [sum(item_cpu[s * size:(s + 1) * size]) for s in range(n_sweeps)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    info = {"workload": args.workload, "seed": args.seed, "items": len(item_times),
            "sweep_size": size, "complete_sweeps": n_sweeps,
            "import_s": import_s, "setup_samples_s": setup_samples,
            "blas_threads": blas_threads(), "failures": failures[:5]}
    if args.trace:
        times, counts, covered, item_time = layer_totals(tracer, range(size))
        metrics = {}
        for name in sorted(set(LAYER_OF_SPAN.values())):
            metrics[name] = (times.get(name, 0.0), "s")
        for name in COUNTERS:
            metrics[name] = (counts.get(name, 0.0), "count")
        iterations = counts.get("sdpcore.iterations", 0.0)
        metrics["sdpcore.solve_s_per_iter"] = (
            times.get("sdpcore.solve_s", 0.0) / iterations if iterations else 0.0, "s")
        metrics["trace.wall_s"] = (sweep_wall[0], "s")
        metrics["trace.coverage"] = (100.0 * covered / item_time, "%")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "wall_s": (statistics.median(sweep_wall), "s"),
            "item_s.p50": (statistics.median(item_times), "s"),
            "cpu_s": (statistics.median(sweep_cpu), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    # A known program fault fails an item; a wrong output also makes the run
    # incorrect.
    result = {"correct": not any(f["wrong"] for f in failures),
              "attempted": len(item_times), "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.result.json").write_text(json.dumps(
        {"result": result, "info": info, "item_s": item_times, "item_cpu_s": item_cpu},
        indent=1) + "\n")
    if args.trace:
        (OUT_DIR / f"{stem}.spans.json").write_text(json.dumps(tracer.dump()) + "\n")
    print(json.dumps(info), file=sys.stderr)
    print(json.dumps(result))
    return 0


def main(argv=None):
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

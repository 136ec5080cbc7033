"""doalab benchmark: one workload, one seed, a fixed measuring time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep_masks --seed 1 --seconds 30 --trace 0

It imports doalab from ``src/``, sets the workload up several times, then
sends requests in a closed loop (one caller, ``jobs=1``) for ``--seconds``,
checking every output. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` traces every other request and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md in this
directory for the workloads, metrics and seeds.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("sweep_reverb", "sweep_masks", "estimate_wav")
SETUP_REPEATS = 3
DEFAULT_SEED = 1
# The tail is the highest percentile, up to p90, with at least TAIL_BEYOND
# samples beyond it. Above p90 it rests on the slowest few requests of one
# request kind and spread 0.23 (IQR/median) over ten estimate_wav runs,
# against 0.09 at p90.
TAIL_BEYOND = 10
TAIL_MAX_FRACTION = 0.9
SRP_FAMILY = ("estimate.srp_phat", "estimate.srp_mp", "estimate.srp_narrowband")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="doalab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail(samples):
    """(value, percentile) of the tail: see TAIL_BEYOND. Never below the
    median; the maximum when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = min(n - TAIL_BEYOND, math.ceil(TAIL_MAX_FRACTION * n))
    if 2 * rank <= n:
        return statistics.median(ordered), 50.0
    return ordered[rank - 1], 100.0 * rank / n


class References:
    """Reference outputs per request key, recorded on a seed's first run."""

    def __init__(self, path, inputs):
        self.path = path
        self.inputs = json.loads(json.dumps(inputs))
        self.rows = {}
        if os.path.exists(path):
            with open(path) as fh:
                data = json.load(fh)
            if data.get("inputs") == self.inputs:
                self.rows = data["rows"]
        self.recorded = 0

    def compare(self, key, rows, rows_differ) -> int:
        if key not in self.rows:
            self.rows[key] = rows
            self.recorded += 1
            return 0
        return rows_differ(self.rows[key], rows)

    def save(self):
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"inputs": self.inputs, "rows": self.rows}, fh)
        os.replace(tmp, self.path)


def keep_freed_memory():
    """Make glibc keep freed memory in the heap instead of unmapping it.

    By default every numpy temporary above the mmap threshold is mapped and
    unmapped per call, and the page faults of touching it again cost about
    30 % of a sweep_masks request on a 2-core box, with a spread that follows
    the host's memory load rather than doalab. Returns the settings applied,
    or None where mallopt is unavailable.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return None
    m_trim_threshold, m_mmap_threshold = -1, -3
    settings = {"mmap_threshold": 32 * 1024 * 1024, "trim_threshold": 1 << 30}
    if libc.mallopt(m_mmap_threshold, settings["mmap_threshold"]) != 1:
        return None
    if libc.mallopt(m_trim_threshold, settings["trim_threshold"]) != 1:
        return None
    return settings


def _blas_threads():
    """Thread count reported by the OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown (not a git checkout)"
    return lines[1]


def environment(seed, malloc):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "malloc": malloc,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["end_to_end"]}, {m["name"]: m["unit"] for m in bench["per_layer"]}


def layer_metrics(tracer, scenes, traced_rate, untraced_rate, rir_taps, flops):
    """Per-layer metrics of the traced requests, per scene."""
    calls, busy, self_s = tracer.totals()
    metrics = {}
    for mod, fn in tracing.TRACED:
        name = f"{mod}.{fn}"
        metrics[f"{name}.s"] = (busy[name] / scenes, "s/scene")
        metrics[f"{name}.self_s"] = (self_s[name] / scenes, "s/scene")
        metrics[f"{name}.calls_per_scene"] = (calls[name] / scenes, "count/scene")
    for mod in tracing.LAYERS:
        total = sum(v for k, v in self_s.items() if k.startswith(mod + "."))
        metrics[f"layer.{mod}.self_s"] = (total / scenes, "s/scene")
    metrics["simulate.rir_taps"] = (statistics.mean(rir_taps) if rir_taps else 0.0, "count")
    metrics["estimate.model_flops"] = (sum(flops) / scenes, "flop/scene")
    metrics["trace.traced_scenes_per_s"] = (traced_rate, "1/s")
    metrics["trace.untraced_scenes_per_s"] = (untraced_rate, "1/s")
    metrics["trace.overhead_scenes_per_s"] = (traced_rate - untraced_rate, "1/s")
    return metrics


def install_meters(tracer, rir_taps, flops):
    """Counts made at the traced boundaries: RIR taps and SRP model flops."""
    from doalab import estimate

    def count_taps(span_id, args, kwargs, result):
        taps = getattr(result, "taps", None)
        if taps is not None:
            rir_taps.append(taps.size)

    def count_flops(span_id, args, kwargs, result):
        # Only the outermost SRP call counts: srp_phat delegates to srp_mp.
        if tracer.has_ancestor(span_id, SRP_FAMILY):
            return
        values = list(args) + list(kwargs.values())
        spec = next((v for v in values if hasattr(v, "num_bins") and hasattr(v, "num_frames")), None)
        grid = next((v for v in values if hasattr(v, "angles_deg")), None)
        if spec is None or grid is None:
            return
        frames = spec.num_frames
        frame_range = kwargs.get("frame_range")
        if frame_range is not None:
            frames = min(frame_range[1], frames) - max(frame_range[0], 0)
        flops.append(estimate.srp_flops(spec.num_bins, grid.size, spec.num_channels) * frames)

    tracer.meters["simulate.image_method_rir"] = count_taps
    for name in SRP_FAMILY:
        tracer.meters[name] = count_flops


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "doalab", "__init__.py")):
        print(f"error: doalab sources not found under {src}", file=sys.stderr)
        return 2
    declared_e2e, declared_layer = declared_metrics()
    sys.path.insert(0, src)
    malloc = keep_freed_memory()

    # Set-up time counts the import of doalab (numpy, scipy) once plus the
    # median of SETUP_REPEATS workload set-ups.
    t0 = time.perf_counter()
    import workloads

    import_s = time.perf_counter() - t0
    os.makedirs(os.path.join(OUT, "refs"), exist_ok=True)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    workload = workloads.make(args.workload, args.seed, os.path.join(OUT, "work"))
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(setup_times)

    refs = References(os.path.join(OUT, "refs", f"{args.workload}-seed{args.seed}.json"), workload.describe())
    tracer = None
    rir_taps, flops = [], []
    if args.trace:
        tracer = tracing.Tracer()
        install_meters(tracer, rir_taps, flops)

    latencies = {False: [], True: []}  # traced? -> seconds per successful request
    attempted = failed = changed = 0
    min_requests = 2 if args.trace else 1
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i < min_requests or time.perf_counter() < deadline:
        traced = tracer is not None and i % 2 == 1
        key, call = workload.request(i)
        root = tracer.install(i) if traced else None
        attempted += 1
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # noqa: BLE001 - every failure is counted and reported
            elapsed = None
            print(f"request {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        else:
            elapsed = time.perf_counter() - start
        finally:
            if traced:
                tracer.uninstall(root)
        if elapsed is not None:
            try:
                rows = workload.check(i, result)
            except (workloads.CheckError, OSError, ValueError, KeyError) as exc:
                print(f"request {i} output is wrong: {exc}", file=sys.stderr)
                elapsed = None
            else:
                changed += refs.compare(key, rows, workloads.rows_differ)
        if elapsed is None:
            failed += 1
        else:
            latencies[traced].append(elapsed)
        i += 1
    refs.save()

    untraced = latencies[False]
    if not untraced:
        print("error: no request succeeded", file=sys.stderr)
        return 1
    untraced_rate = len(untraced) / sum(untraced)
    tail_s, tail_pct = tail(untraced)
    if args.trace:
        traced_rate = len(latencies[True]) / sum(latencies[True]) if latencies[True] else 0.0
        metrics = layer_metrics(tracer, max(len(latencies[True]), 1), traced_rate, untraced_rate, rir_taps, flops)
        declared = declared_layer
    else:
        metrics = {
            "scenes_per_s": (untraced_rate, "1/s"),
            "request_ms_p50": (1000.0 * statistics.median(untraced), "ms"),
            "request_ms_tail": (1000.0 * tail_s, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        declared = declared_e2e
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if emitted != declared:
        print(f"error: emitted metrics differ from BENCHMARK.json: {sorted(set(emitted) ^ set(declared))}", file=sys.stderr)
        return 2

    failed_frac = failed / attempted
    correct = failed == 0 and changed == 0
    env = environment(args.seed, malloc)
    summary = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed_frac,
        "records_changed": changed,
        "references_recorded": refs.recorded,
        "requests_timed": len(untraced),
        "request_ms_tail_percentile": tail_pct,
        "request_latencies_s": untraced,
        "import_s": import_s,
        "setup_repeats_s": setup_times,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    stem = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(summary, fh, indent=2)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"failed_frac {failed_frac:.6g} (of {attempted} attempted)")
    print(f"records_changed {changed} ({refs.recorded} reference outputs recorded this run)")
    print(f"requests timed {len(untraced)}; request_ms_tail is p{tail_pct:.2f}")
    if tracer is not None:
        tracer.write(stem + "-spans.csv")
        per_scene = sum(latencies[True]) / max(len(latencies[True]), 1)
        print(f"traced {len(latencies[True])} requests; self time per layer, share of traced request time:")
        for mod in tracing.LAYERS:
            value = metrics[f"layer.{mod}.self_s"][0]
            print(f"  {mod:<10} {value:.6f} s/scene  {100.0 * value / per_scene:5.1f} %")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": summary["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in benchmark of vfkit.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  The benchmark imports vfkit from
``src/``, builds the workload's inputs from ``--seed`` and runs closed-loop
passes (one caller; the next analysis starts when the previous returns).
``--seconds`` sets the work: as many passes as fit in that time at the
workload's nominal pass time on the reference machine, and at least one.
Every answer is checked.  Per-process lazy caches of
vfkit are emptied before each pass, because a CLI user pays for them on
every invocation.

The shared hosts this runs on change speed by up to 1.5x in phases of
seconds to minutes, so each time is also scaled to a reference speed
(``speed.py``): a short reference chunk runs ten times a second while
vfkit works, and a time is multiplied by the chunk's nominal duration
over its median duration near that moment.  The metrics on the result
line are the scaled times; the table prints the measured ones beside
them.  ``latency_p50_ms`` and ``latency_tail_ms`` are Harrell-Davis
estimates of their percentiles, taken on the logarithms of the latencies.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` also runs two
traced passes over the first input set (the second only if the run can
still end well within 180 s) and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
metric table with units, the failed share, the latency tail percentile and
its sample count, and the environment stamp.  The full record, and the
spans of a traced pass, go to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP threads before numpy is imported anywhere.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 2  # extra set-ups in child processes; setup_s is the median
SETUP_CHUNKS = 9  # reference chunks before and after one set-up (WINDOW is 9)
# A run must end within 180 s.  The second traced pass (which repeats the
# exact counts) starts only if it is projected to end before this many
# seconds since the run started; otherwise the details say it was skipped.
TRACE_DEADLINE_S = 150.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("analyses_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

_CALLS_AND_SELF = (
    "expr.eval_float", "expr.eval", "expr.diff",
    "fields.pushforward_along_word", "fields.apply_word", "fields.expm",
    "fields.solve_ivp", "fields.lie_bracket",
    "orbits.orbit_dimension", "orbits.fixed_time_dimension",
    "liealg.filtration", "membership.member_bounded",
    "linalg.exact_solve", "linalg.svd_rank",
    "distributions.rank_at", "distributions.singular_locus_minors",
    "frobenius.frobenius_verdict", "frobenius.flow_box_chart",
)

PER_LAYER = tuple(
    [(f"{layer}.{kind}", unit) for layer in _CALLS_AND_SELF
     for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [
        ("fields.pushforward_along_word.failed", "count"),
        ("fields.apply_word.failed", "count"),
        ("fields.solve_ivp.nfev", "count"),
        ("fields.nfev_per_ivp", "evals/ivp"),
        ("fields.pushforward_success_ratio", "ratio"),
        ("orbits.words_used_ratio", "ratio"),
        ("liealg.words_kept_ratio", "ratio"),
        ("membership.member_ratio", "ratio"),
        ("linalg.exact_solve.cells", "count"),
        ("presets.run_preset.self_s", "s"),
        ("cli.main.self_s", "s"),
        ("systems.parse_system.self_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few small analyses per workload, for the self-test")
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up, print the set-up time and exit")
    return ap.parse_args(argv)


def set_up(workload, seed, size):
    """Import vfkit, parse the systems and build the inputs; returns
    (inputs, (measured, scaled) seconds taken), where inputs holds one
    list of jobs per pass.  Reference chunks run just before and just
    after the set-up and give its speed."""
    from speed import Speedometer

    speed = Speedometer()
    speed.sample(SETUP_CHUNKS)
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import vfkit.cli  # noqa: F401  (imports every layer)
    import workloads

    inputs = workloads.WORKLOADS[workload](seed, size)
    took = time.perf_counter() - start
    speed.sample(SETUP_CHUNKS)
    return inputs, (took, speed.scaled(start, took))


def probe_setup(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return tuple(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def clear_lazy_caches():
    from vfkit import fields

    fields._flow_kind.cache_clear()
    fields.jacobian_exprs.cache_clear()


def run_pass(jobs, tracer=None, speed=None):
    """One closed-loop pass; returns (wall seconds, answers, latencies),
    a latency being (label, start, seconds).  The wall time leaves out the
    reference chunks run for ``speed``."""
    clear_lazy_caches()
    answers, latencies = [], []
    clock = time.perf_counter if speed is None else speed.clock
    if speed is not None:
        speed.sample()  # so that even a pass shorter than the interval has a sample
        speed.start()
    try:
        start = clock()
        for job in jobs:
            t0, w0 = time.perf_counter(), clock()
            try:
                answer, lat = job.execute(tracer, speed)
            except Exception as err:  # an analysis that raises is a failed analysis
                answer = ("raised", f"{type(err).__name__}: {err}",
                          traceback.format_exc(limit=3))
                lat = [(job.name, t0, clock() - w0)]
            answers.append(answer)
            latencies.extend(lat)
        wall = clock() - start
    finally:
        if speed is not None:
            speed.stop()
            speed.sample()
    return wall, answers, latencies


def scaled_pass(speed, wall, latencies):
    """Pass time and latencies at reference speed: each analysis is scaled
    at its own moment, the rest of the pass at the pass's middle."""
    lat = [speed.scaled(start, sec) for _, start, sec in latencies]
    rest = wall - sum(sec for _, _, sec in latencies)
    middle = (latencies[0][1] + latencies[-1][1] + latencies[-1][2]) / 2.0
    return sum(lat) + rest * speed.scale_at(middle), lat


def check_pass(jobs, answers, reference):
    """Problems per analysis; answers must also repeat the reference pass."""
    problems = {}
    for job, answer, ref in zip(jobs, answers, reference):
        if answer and answer[0] == "raised":
            problems[job.name] = [answer[1]]
            continue
        found = job.problems(answer)
        if answer != ref:
            for label in found:
                found[label] = found[label] + ["answer differs from the first pass"]
        problems.update(found)
    return problems


def harrell_davis(xs, p):
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of the
    order statistics.  Unlike a single order statistic it does not jump when
    the rank falls between two groups of analyses of different cost."""
    import numpy as np
    from scipy.special import betainc

    xs = np.sort(np.asarray(xs, dtype=float))
    n = len(xs)
    weights = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ xs)


def latency_quantile(latencies, p):
    """The p-quantile of the latencies, estimated by Harrell-Davis on their
    logarithms.  A quantile commutes with the logarithm; on the log scale
    the few analyses that take seconds do not outweigh the many that take
    milliseconds in the weighted mean."""
    return math.exp(harrell_davis([math.log(max(x, 1e-9)) for x in latencies], p))


def tail(latencies):
    """The highest percentile with at least 10 samples beyond it, and its
    estimate: (value, percentile, samples).  With 10 samples or fewer it is
    the maximum."""
    n = len(latencies)
    if n <= 10:
        return max(latencies), 100.0, n
    p = (n - 10) / n
    return latency_quantile(latencies, p), 100.0 * p, n


def environment(args):
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "vfkit").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": rev,
        "src_sha256": digest.hexdigest(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
    }


def measure(inputs, count, speed):
    """``count`` untraced closed-loop passes; pass k runs input set k,
    cycling.  Returns (input index, wall, answers, latencies) per pass."""
    return [(k % len(inputs),) + run_pass(inputs[k % len(inputs)], speed=speed)
            for k in range(count)]


def traced_passes(inputs, started):
    """Two traced passes over the first input set, the second only if it
    fits before TRACE_DEADLINE_S; returns (passes, tracers)."""
    from tracer import Tracer

    passes, tracers = [], []
    for _ in range(2):
        if passes and time.perf_counter() - started + passes[-1][1] > TRACE_DEADLINE_S:
            break
        tr = Tracer()
        tr.install()
        try:
            passes.append((0,) + run_pass(inputs[0], tr))
        finally:
            tr.uninstall()
        tracers.append(tr)
    return passes, tracers


def main(argv=None):
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "vfkit" / "__init__.py").is_file():
        print(f"error: no vfkit sources under {SRC}; run from a vfkit checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    inputs, setup_main = set_up(args.workload, args.seed, args.size)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_main}))
        return 0
    setups = [setup_main] + [probe_setup(args) for _ in range(SETUP_PROBES)]

    from speed import REFERENCE_CHUNK_S, Speedometer

    speed = Speedometer()
    nominal = workloads.NOMINAL_PASS_S[args.size][args.workload]
    passes = measure(inputs, max(1, round(args.seconds / nominal)), speed)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = [p[1] for p in passes]
    latencies = [sec for p in passes for _, _, sec in p[3]]
    scaled = [scaled_pass(speed, p[1], p[3]) for p in passes]
    scaled_walls = [w for w, _ in scaled]
    scaled_latencies = [sec for _, lat in scaled for sec in lat]

    tracers = []
    if args.trace:
        traced, tracers = traced_passes(inputs, started)
        passes += traced

    reference = {}
    attempted = failed = 0
    failures = {}
    for index, _, answers, lat in passes:
        problems = check_pass(inputs[index], answers, reference.setdefault(index, answers))
        attempted += len(lat)
        for label, found in problems.items():
            if found:
                failed += 1
                failures.setdefault(label, found)
    correct = failed == 0

    def end_to_end(setup, pass_walls, lat):
        tail_s, tail_pct, samples = tail(lat)
        return {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(pass_walls),
            "analyses_per_s": len(lat) / sum(pass_walls),
            "latency_p50_ms": latency_quantile(lat, 0.5) * 1000.0,
            "latency_tail_ms": tail_s * 1000.0,
            "peak_rss_mb": rss_mb,
        }, tail_pct, samples

    e2e, tail_pct, samples = end_to_end([s for _, s in setups], scaled_walls, scaled_latencies)
    measured, _, _ = end_to_end([m for m, _ in setups], walls, latencies)
    details = {
        "failed_share": failed / attempted,
        "latency_tail_percentile": tail_pct,
        "latency_samples": samples,
        "passes": len(walls),
        "pass_walls_s": walls,
        "scaled_pass_walls_s": scaled_walls,
        "setup_samples_s": setups,
        "reference_chunk_s": {"nominal": REFERENCE_CHUNK_S,
                              "median": statistics.median(speed.durations),
                              "min": min(speed.durations), "max": max(speed.durations),
                              "samples": len(speed.durations)},
        "latencies_s": [[label, start, sec, scaled_sec] for (label, start, sec), scaled_sec
                        in zip((x for p in passes for x in p[3]), scaled_latencies)],
        "reference_samples_s": [speed.times, speed.durations],
        "failures": failures,
    }
    if args.trace:
        counts = [tr.layer_metrics() for tr in tracers]
        from tracer import EXACT_COUNTS

        details["exact_counts_repeated"] = len(counts) == 2
        unequal = {k: [c[k] for c in counts] for k in EXACT_COUNTS
                   if len({c[k] for c in counts}) > 1}
        if unequal:
            correct = False
            details["exact_count_mismatch"] = unequal
        layer = dict(counts[0])
        traced_wall = passes[len(walls)][1]
        layer["trace.overhead_s"] = traced_wall - walls[0]
        details["traced_wall_s"] = [p[1] for p in passes[len(walls):]]
        details["self_share_of_traced_wall"] = {
            name: tracers[0].self_s[name] / traced_wall for name in tracers[0].self_s}
        details["inclusive_share_of_traced_wall"] = {
            name: tracers[0].inclusive_s[name] / traced_wall for name in tracers[0].inclusive_s}
        OUT.mkdir(exist_ok=True)
        tracers[0].write_spans(OUT / f"spans-{args.workload}-seed{args.seed}-{args.size}.csv.gz")
        table, metrics = PER_LAYER, layer
    else:
        table, metrics = END_TO_END, e2e

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in table},
    }
    record = {"environment": environment(args), "end_to_end": e2e,
              "end_to_end_measured": measured, "details": details, "result": result}
    if args.trace:
        record["per_layer"] = {name: metrics[name] for name, _ in PER_LAYER}
    OUT.mkdir(exist_ok=True)
    tag = "" if args.size == "full" else f"-{args.size}"
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}{tag}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True))

    print(f"{args.workload:18s} {'metric':24s} {'at ref. speed':>14s} {'measured':>14s}")
    for name, unit in END_TO_END:
        print(f"{args.workload:18s} {name:24s} {e2e[name]:14.6g} {measured[name]:14.6g} {unit}")
    print(f"{args.workload:18s} {'failed_share':24s} {details['failed_share']:14.6g} ratio"
          f"  ({failed} of {attempted} analyses)")
    print(f"{args.workload:18s} latency tail is p{tail_pct:.1f} of {samples} samples; "
          f"{len(walls)} pass(es)")
    for label, found in sorted(failures.items()):
        print(f"FAILED {label}: {'; '.join(found)}")
    print(json.dumps({"environment": record["environment"]}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

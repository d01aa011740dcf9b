"""arcroots benchmark: one workload per run, timed end to end or traced.

    python3 perfbench/run.py --workload explore_verify --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; the package is imported from
`src/` there and nowhere else.  Workloads are described in
perfbench/README.md.

A run sets up in this process and repeats full passes over the inputs
for about `--seconds`, checking each pass's outputs outside the timed
region.  It also starts the workload's set-up in fresh interpreters
SETUP_PROBES times (`setup_s` is the median time from process start to
inputs ready).  With `--trace 0` it reports the end-to-end metrics;
during those passes a timer signal interrupts the program every
GAUGE_INTERVAL_S seconds to time a fixed reference computation, and
`pass_ref` is a pass's time, less those interruptions, over the
reference's mean time (see `reference`).  With
`--trace 1` it spends the first half of the time on untraced passes and
the second half on passes with the tracer installed, reports the
per-layer metrics and the tracing overhead, and writes the spans to
perfbench/out/.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The line before it records the environment, the pass-time quartiles and
sample count, the failures and the output digest.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up probes per run.  An untraced run makes one after each pass, so
# that they sample the machine over the whole run rather than in one
# burst, and the rest at the end.
SETUP_PROBES = 9

# About one reference sample per this many seconds of a pass: some 10%
# of the pass time, spread evenly over it.
GAUGE_INTERVAL_S = 0.1

# Two passes at least, so a run's median never rests on a single sample.
MIN_PASSES = 2

WORKLOAD_NAMES = ("explore_verify", "schur_sweep", "arc_embed")

END_TO_END = {"setup_s": "s", "pass_ref": "ref", "peak_rss_mb": "MB"}

CHECK_NAMES = (
    "two_complete", "weight_monotone", "decreasing_unique", "seven", "sign_coherence",
    "st", "coxeter_product", "sign_runs", "bad_pairs", "sep_dichotomy", "one_star",
)

# Per-layer metrics, per traced pass.  A name ending in ".s" is the span's
# self time, ".incl_s" its inclusive time and ".calls" its call count;
# other names are counters or ratios kept by the tracer's hooks.
PER_LAYER = {
    **{f"explore.check.{c}.{k}": u for c in CHECK_NAMES
       for k, u in (("s", "s"), ("incl_s", "s"), ("calls", "count"))},
    "explore.seed_digest.s": "s",
    "explore.iter_seeds.seeds": "count",
    "explore.schur_by_search.s": "s",
    "explore.schur_by_search.incl_s": "s",
    "explore.schur_by_search.seeds_visited": "count",
    "explore.schur_by_search.found_ratio": "ratio",
    "explore.complete_arc.s": "s",
    "roots.mutate_seed.calls": "count",
    "roots.mutate_seed.s": "s",
    "roots.root_to_reflection.calls": "count",
    "roots.root_to_reflection.s": "s",
    "roots.root_to_reflection.repeat_ratio": "ratio",
    "roots.speyer_thomas_check.s": "s",
    "roots.natural_fan.s": "s",
    "roots.natural_coxeter_product.s": "s",
    "arcs.tuple_verdict.s": "s",
    "arcs.tuple_verdict.calls": "count",
    "words.mul.s": "s",
    "words.separating_nodes.s": "s",
    "words.in_one_star.s": "s",
    "quiver.mutate.calls": "count",
    "quiver.mutate.s": "s",
    "quiver.natural_order.s": "s",
    "embedding.probe_embedding.s": "s",
    "embedding.probe_embedding.branches": "count",
    "embedding.probe_embedding.branches_per_arc": "count/arc",
    "embedding.probe_embedding.prune_ratio": "ratio",
    "embedding.witness_is_valid.s": "s",
    "cli.main.s": "s",
    "cli.sink.s": "s",
    "bench.trace_overhead.s": "s",
    "bench.unattributed.s": "s",
}

# numerator counter, denominator (a counter, or a span's call count)
RATIOS = {
    "explore.schur_by_search.found_ratio":
        ("explore.schur_by_search.found", "explore.schur_by_search.calls"),
    "roots.root_to_reflection.repeat_ratio":
        ("roots.root_to_reflection.repeats", "roots.root_to_reflection.calls"),
    "embedding.probe_embedding.branches_per_arc":
        ("embedding.probe_embedding.branches", "embedding.probe_embedding.calls"),
    "embedding.probe_embedding.prune_ratio":
        ("embedding.probe_embedding.branches", "embedding.probe_embedding.search_space"),
}


def import_program() -> None:
    """Import arcroots from this checkout's src/, refusing any other copy."""
    package = SRC / "arcroots"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no arcroots package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import arcroots

    if Path(arcroots.__file__).resolve().parent != package:
        sys.exit(f"error: imported arcroots from {arcroots.__file__}, not {package}")


def git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "arcroots").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args: argparse.Namespace) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "git_revision": git_revision(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def build_workload(args: argparse.Namespace, workdir: Path):
    from workloads import WORKLOADS

    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[args.workload](args.seed, args.smoke, workdir)


def probe_setup(args: argparse.Namespace) -> float:
    """Seconds from starting a fresh interpreter to its workload being ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe exited {code} after printing {line!r}")
    return ready - start


# A 4x4 exchange matrix whose mutations grow their entries, like arcroots'.
REFERENCE_B = ((0, 2, 2, 2), (-2, 0, 2, 2), (-2, -2, 0, 2), (-2, -2, -2, 0))
REFERENCE_DEPTH = 6


def reference() -> int:
    """A fixed computation of the program's kind, timed as a speed gauge.

    On a shared host, pure-Python code runs at speeds up to 1.7 times
    apart, switching within seconds, and raw pass times of identical runs
    differ by a third.  Sampled every GAUGE_INTERVAL_S seconds during a
    pass, this breadth-first walk of integer matrix mutations (tuples,
    generator expressions, a dict, a sort) slows in step with the program:
    a pass's time over the mean sample time stayed within a few percent
    across runs whose raw times did not.  Samples taken only between
    program calls tracked far worse.  It is the benchmark's own code, so
    no change to the program moves it.
    """
    n = len(REFERENCE_B)
    seen = {REFERENCE_B: ()}
    frontier = [(REFERENCE_B, ())]
    for _ in range(REFERENCE_DEPTH):
        grown = []
        for b, path in frontier:
            for k in range(n):
                if path and path[-1] == k:
                    continue
                c = tuple(
                    tuple(-b[i][j] if k in (i, j) else
                          b[i][j] + (abs(b[i][k]) * b[k][j] + b[i][k] * abs(b[k][j])) // 2
                          for j in range(n))
                    for i in range(n)
                )
                seen[c] = path + (k,)
                grown.append((c, path + (k,)))
        frontier = grown
    return len(sorted(seen.values()))


class Gauge:
    """Times `reference` from a SIGALRM handler while a pass runs.

    The handler runs in this thread between the program's bytecodes, so
    nothing runs beside the program; the samples' own wall and CPU time
    is subtracted from the pass.  One sample is always taken just before
    the pass, so a pass shorter than the interval still has one.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.cpu = 0.0
        self.first_in_pass = 0
        self.previous_handler = signal.SIG_DFL
        self.sampling = False

    def sample(self, *_) -> None:
        # A signal that lands during a sample (the host stalled us past
        # the interval) is dropped, or its time would be taken off twice.
        if self.sampling:
            return
        self.sampling = True
        c0 = time.process_time()
        t0 = time.perf_counter()
        reference()
        self.samples.append(time.perf_counter() - t0)
        self.cpu += time.process_time() - c0
        self.sampling = False

    def __enter__(self) -> "Gauge":
        self.sample()
        self.first_in_pass = len(self.samples)
        self.cpu = 0.0
        self.previous_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_INTERVAL_S, GAUGE_INTERVAL_S)
        return self

    def __exit__(self, *_) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous_handler)

    def interrupted(self) -> tuple[float, float]:
        """Wall and CPU seconds the samples took inside the pass."""
        return sum(self.samples[self.first_in_pass:]), self.cpu


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "samples": values}


class Measurement:
    def __init__(self) -> None:
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.ref: list[float] = []
        self.unattributed: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.digests: set[str] = set()


def measure(workload, budget: float, m: Measurement, tracer=None,
            gauged: bool = False, between=None) -> Measurement:
    """Repeat full passes while another one is expected to fit in budget.

    At least MIN_PASSES passes run.  The program's outputs are checked
    after each pass, outside the timed region, and then `between` is
    called, if given.  Gauged passes also record their time in reference
    units; traced passes are never gauged, since the samples would land
    in the program's spans.
    """
    start = time.perf_counter()
    for _ in range(3):
        reference()  # warm-up
    while True:
        if tracer is not None:
            tracer.new_pass()
            attributed = tracer.root_time
        m.attempted += workload.operations
        try:
            with Gauge() if gauged else contextlib.nullcontext() as gauge:
                c0 = time.process_time()
                t0 = time.perf_counter()
                raw = workload.run_pass()
                t1 = time.perf_counter()
                c1 = time.process_time()
            if gauge is not None:
                wall, cpu = gauge.interrupted()
                t1 -= wall
                c1 -= cpu
                m.ref.append((t1 - t0) / statistics.fmean(gauge.samples))
            if tracer is not None:
                m.unattributed.append(t1 - t0 - (tracer.root_time - attributed))
            failures, digest = workload.check(raw)
        except Exception as exc:  # a crash fails the whole pass
            m.failures.append(f"pass raised {type(exc).__name__}: {exc}")
            m.failed += workload.operations
            return m
        m.wall.append(t1 - t0)
        m.cpu.append(c1 - c0)
        failed_ops = {op for op, _ in failures}
        m.digests.add(digest)
        if len(m.digests) > 1:
            failed_ops.add("output digest differs across passes")
            failures.append(("digest", "output digest differs across passes"))
        m.failed += min(len(failed_ops), workload.operations)
        m.failures += [f"{op}: {msg}" for op, msg in failures]
        if between is not None:
            between()
        elapsed = time.perf_counter() - start
        if len(m.wall) >= MIN_PASSES and elapsed + statistics.median(m.wall) > budget:
            return m


def layer_metrics(tracer, traced: Measurement, untraced: Measurement) -> dict:
    passes = len(traced.wall)
    stats, counters = tracer.stats, tracer.counters

    def raw(key: str) -> float:
        span, _, field = key.rpartition(".")
        if key in counters:
            return counters[key]
        if span in stats:
            s = stats[span]
            return {"s": s.self, "incl_s": s.total, "calls": s.calls}.get(field, 0.0)
        return 0.0

    out = {}
    for name in PER_LAYER:
        if name in RATIOS:
            num, den = (raw(k) for k in RATIOS[name])
            out[name] = num / den if den else 0.0
        else:
            out[name] = raw(name) / passes
    out["bench.trace_overhead.s"] = (
        statistics.median(traced.wall) - statistics.median(untraced.wall)
    )
    out["bench.unattributed.s"] = statistics.mean(traced.unattributed)
    return out


def print_layer_table(tracer, traced: Measurement, metrics: dict) -> None:
    passes = len(traced.wall)
    wall = statistics.mean(traced.wall)
    print(f"traced passes: {passes}, mean wall {wall:.4f} s; per pass:")
    print(f"{'span':44} {'calls':>10} {'self_s':>10} {'self%':>7} {'incl_s':>10}")
    for name, s in sorted(tracer.stats.items(), key=lambda kv: -kv[1].self):
        if s.calls:
            print(f"{name:44} {s.calls / passes:10.0f} {s.self / passes:10.4f} "
                  f"{100 * s.self / passes / wall:6.1f}% {s.total / passes:10.4f}")
    rest = metrics["bench.unattributed.s"]
    print(f"{'(unattributed: benchmark loop, no span)':44} {'':10} {rest:10.4f} "
          f"{100 * rest / wall:6.1f}%")
    print(f"tracing overhead: {metrics['bench.trace_overhead.s']:.4f} s per pass")


def run(args: argparse.Namespace) -> int:
    env = environment(args)
    setup: list[float] = []

    def probe() -> None:
        if len(setup) < SETUP_PROBES:
            setup.append(probe_setup(args))

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        t0 = time.perf_counter()
        workload = build_workload(args, workdir)
        setup_here = time.perf_counter() - t0
        detail = {"environment": env, "counts": workload.counts(),
                  "setup_in_process_s": setup_here}
        if args.trace:
            from spans import Tracer

            while len(setup) < SETUP_PROBES:
                probe()
            detail["setup_s"] = summary(setup)
            untraced = measure(workload, args.seconds / 2, Measurement())
            tracer = Tracer()
            tracer.install()
            traced = measure(workload, args.seconds / 2, Measurement(), tracer)
            runs = (untraced, traced)
            metrics = {}
            if traced.wall and untraced.wall:
                metrics = layer_metrics(tracer, traced, untraced)
                print_layer_table(tracer, traced, metrics)
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.dump(trace_file)
            detail["trace_file"] = str(trace_file.relative_to(ROOT))
            detail["pass_s_untraced"] = summary(untraced.wall) if untraced.wall else None
            detail["pass_s_traced"] = summary(traced.wall) if traced.wall else None
            result_metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in metrics.items()}
        else:
            m = measure(workload, args.seconds, Measurement(), gauged=True, between=probe)
            while len(setup) < SETUP_PROBES:
                probe()
            runs = (m,)
            detail["setup_s"] = summary(setup)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            values = {}
            if m.wall:
                detail["pass_ref"] = summary(m.ref)
                detail["pass_s"] = summary(m.wall)
                detail["pass_cpu_s"] = summary(m.cpu)
                values = {
                    "setup_s": statistics.median(setup),
                    "pass_ref": statistics.median(m.ref),
                    "peak_rss_mb": rss_mb,
                }
                for name, value in values.items():
                    print(f"{name:12} {value:12.4f} {END_TO_END[name]}")
                for name, unit in (("pass_ref", "ref"), ("pass_s", "s"), ("pass_cpu_s", "s")):
                    s = detail[name]
                    print(f"{name:12} median {s['median']:.4f} {unit}  "
                          f"(q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, n {s['n']})")
            result_metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    failures = [f for r in runs for f in r.failures]
    digests = set().union(*(r.digests for r in runs))
    if len(digests) > 1:
        failed = max(failed, 1)
        failures.append("output digest differs between untraced and traced passes")
    detail["fail_ratio"] = failed / attempted if attempted else 1.0
    detail["failures"] = failures[:20]
    detail["output_digest"] = sorted(digests)
    for line in failures[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"attempted {attempted}, failed {failed}, fail_ratio {detail['fail_ratio']}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0 and bool(result_metrics),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0


def setup_probe(args: argparse.Namespace) -> int:
    workdir = OUT / f"probe-{os.getpid()}"
    try:
        build_workload(args, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    import_program()
    return setup_probe(args) if args.setup_probe else run(args)


if __name__ == "__main__":
    sys.exit(main())

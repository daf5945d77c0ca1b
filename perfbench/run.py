"""toricmu benchmark: seeded closed-loop workloads with optional layer tracing.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

One process, one caller: each op (one call into a public toricmu function)
starts when the previous one returns.  Passes over the workload's fixed op
list repeat until --seconds have elapsed; every op's output is checked.

Op times are reported in units of a fixed reference loop ("ref", about
0.5 ms on a 2-core Xeon VM) that a timer runs every 20 ms during a pass:
each op's time is divided by the median reference time around it.  On a
shared host the machine's speed changes by up to 1.8x for seconds to
minutes at a time, and the change slows the reference loop and the ops
alike, so the ratio keeps what the program does and drops most of the
machine's drift.  Raw wall times are printed and kept in --out records.
setup_s is measured the same way (the timer runs while the parent waits for
each fresh setup process) and converted back to seconds at REF_NOMINAL_S per
ref, so that it keeps its unit, seconds, in BENCHMARK.json.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics, the tracing overhead and the
tracer self-test.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path
from time import perf_counter

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
REF_TERMS = 40
REF_PERIOD_S = 0.02
REF_WINDOW_S = 0.5
# one ref in seconds, for setup_s only: the reference loop's typical time on
# the 2-core Xeon VM the benchmark was built on; fixed, like ref_work itself
REF_NOMINAL_S = 0.5e-3

END_TO_END = [
    ("setup_s", "s"),
    ("pass_ref", "ref"),
    ("op_p50_ref", "ref"),
    ("op_p90_ref", "ref"),
    ("peak_rss_mb", "MB"),
]

# (metric, unit); the name is <span>.<statistic>, read by layer_values()
PER_LAYER = [
    ("polytope.build_polytope.calls", "count"),
    ("polytope.build_polytope.self_s", "s"),
    ("polytope.clip.calls", "count"),
    ("polytope.clip.self_s", "s"),
    ("polytope.clip.rebuild_frac", "ratio"),
    ("polytope.triangulate.calls", "count"),
    ("polytope.triangulate.simplices", "count"),
    ("polytope.lattice_points.self_s", "s"),
    ("polytope.lattice_points.points", "count"),
    ("paconvex.cells.calls", "count"),
    ("paconvex.cells.self_s", "s"),
    ("paconvex.common_cells.calls", "count"),
    ("paconvex.common_cells.self_s", "s"),
    ("paconvex.common_cells.cells", "count"),
    ("paconvex.pa_moment.self_s", "s"),
    ("paconvex.dh_cdf.calls", "count"),
    ("paconvex.dh_cdf.self_s", "s"),
    ("paconvex.metric_dp.self_s", "s"),
    ("paconvex.metric_dexp.self_s", "s"),
    ("paconvex.legendre_dual.self_s", "s"),
    ("integrate.interior.calls", "count"),
    ("integrate.interior.self_s", "s"),
    ("integrate.boundary.calls", "count"),
    ("integrate.boundary.self_s", "s"),
    ("integrate.brion_localize_limit.calls", "count"),
    ("integrate.brion_localize_limit.self_s", "s"),
    ("ddexp.ddexp.calls", "count"),
    ("ddexp.ddexp.self_s", "s"),
    ("ddexp.ddexp.nodes", "count"),
    ("ddexp.ddexp.calls_per_interior", "ratio"),
    ("functionals.entropy_curve.self_s", "s"),
    ("functionals.futaki.self_s", "s"),
    ("functionals.mu_lambda.self_s", "s"),
    ("functionals.calabi.self_s", "s"),
    ("optimize.maximize_over_vectors.calls", "count"),
    ("optimize.maximize_over_vectors.self_s", "s"),
    ("optimize.maximize_over_vectors.interior_per_call", "ratio"),
    ("optimize.maximize_over_vectors.trace_len", "count"),
    ("optimize.maximize_along_ray.self_s", "s"),
    ("optimize.normalized_df.self_s", "s"),
    ("filtration.spectral_measure.calls", "count"),
    ("filtration.spectral_measure.self_s", "s"),
    ("filtration.char_mu_estimate.self_s", "s"),
    ("cli.run.calls", "count"),
    ("cli.run.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "optimize", "exact"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full result record (JSON) here")
    ap.add_argument("--spans", help="with --trace 1, write every span (JSON lines) here")
    ap.add_argument("--record-reference", action="store_true",
                    help="store the first pass's outputs as the reference "
                    "(default seed only)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def git_commit():
    """HEAD of the enclosing git checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(args, walls, refs):
    """Fresh processes that import toricmu and build inputs: the wall time of
    each, and the same time in refs, from the reference loop that the timer
    runs in this process meanwhile (on the other core)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        with RefClock() as clock:
            start = perf_counter()
            done = subprocess.run(cmd, stdin=subprocess.DEVNULL, capture_output=True,
                                  timeout=120)
            elapsed = perf_counter() - start
        walls.append(elapsed)
        refs.append(elapsed / clock.around(start, start + elapsed, window=0.0))
        if done.returncode != 0:
            raise RuntimeError("setup probe failed: %s" % done.stderr.decode()[-500:])


def ref_work():
    """The reference loop: fixed exact Fraction arithmetic and float exp
    sums in pure Python, the two kinds of work toricmu's time goes to.  It
    must never change, or numbers in ref units stop being comparable across
    commits."""
    acc = 0.0
    for i in range(REF_TERMS):
        x = Fraction(i % 13 + 1, i % 7 + 2)
        y = Fraction(i % 5 + 3, i % 11 + 1)
        acc += (x * y - x / y).denominator
        acc += sum(math.exp(-0.125 * k * (i % 5)) / math.factorial(k) for k in range(8))
    return acc


class RefClock:
    """Runs of the reference loop on a timer, while a pass runs.

    SIGALRM fires every REF_PERIOD_S of wall time; Python runs the handler
    between two bytecodes of whatever runs then, op or not, so long ops get
    samples from their own stretch of time.  The handler's own time is taken
    out of the op times (inside()).
    """

    def __init__(self):
        self.starts = []
        self.ends = []
        self.durations = []

    def _tick(self, signum, frame):
        start = perf_counter()
        ref_work()
        end = perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.durations.append(end - start)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def inside(self, start, end):
        """Time the handler took within [start, end]."""
        lo = bisect_left(self.starts, start)
        hi = bisect_right(self.ends, end)
        return sum(self.durations[lo:hi])

    def around(self, start, end, window=REF_WINDOW_S):
        """Median reference time within window seconds of [start, end]."""
        lo = bisect_left(self.starts, start - window)
        hi = bisect_right(self.ends, end + window)
        return statistics.median(self.durations[lo:hi] or self.durations)


class PassResult:
    __slots__ = ("latencies", "starts", "refs", "digests", "failures", "labels")

    def __init__(self):
        self.latencies = []
        self.starts = []
        self.refs = []
        self.digests = []
        self.failures = {}
        self.labels = []

    @property
    def wall(self):
        return sum(self.latencies)

    def normalize(self, clock):
        """Take the handler's time out of each op, then express it in refs."""
        for i, (start, elapsed) in enumerate(zip(self.starts, self.latencies)):
            self.latencies[i] = elapsed - clock.inside(start, start + elapsed)
        self.refs = [elapsed / clock.around(start, start + elapsed)
                     for start, elapsed in zip(self.starts, self.latencies)]


def run_pass(wl, workload, raw, tracer=None, check=True):
    """One closed-loop pass; op time excludes building inputs, checking and
    the reference loop.

    With check=False the identity checks are skipped; the caller then
    compares the outputs with those of a checked pass, bit for bit.
    """
    ops = wl.ops_for(workload, raw, wl.build(workload, raw))
    result = PassResult()
    with RefClock() as clock:
        for i, op in enumerate(ops):
            run_op(i, op, result, tracer, check)
    result.normalize(clock)
    return result


def run_op(i, op, result, tracer, check):
    """Run one op and record its time, digest and any failure."""
    error = digest = None
    if tracer is not None:
        tracer.op = i
        tracer.active = True
    start = perf_counter()
    try:
        out = op.call()
    except Exception as err:  # an op failure is data here, not a crash
        out = None
        error = "%s: %s" % (type(err).__name__, err)
    elapsed = perf_counter() - start
    if tracer is not None:
        tracer.active = False
    if error is None:
        try:
            if check:
                op.check(out)
            digest = op.digest(out)
        except Exception as err:
            error = "check %s: %s" % (type(err).__name__, err)
    result.latencies.append(elapsed)
    result.starts.append(start)
    result.digests.append(digest)
    result.labels.append(op.label)
    if error is not None:
        result.failures[i] = error


def same_output(expected, got):
    """Reference comparison: rationals exactly, floats to a relative 1e-9."""
    if isinstance(expected, float) or isinstance(got, float):
        if not isinstance(expected, (int, float)) or not isinstance(got, (int, float)):
            return False
        if math.isnan(expected) or math.isnan(got):
            return math.isnan(expected) and math.isnan(got)
        return expected == got or abs(expected - got) <= 1e-9 * max(abs(expected), abs(got))
    if isinstance(expected, (list, tuple)) and isinstance(got, (list, tuple)):
        return len(expected) == len(got) and all(
            same_output(a, b) for a, b in zip(expected, got)
        )
    return expected == got


def reference_path(workload):
    return HERE / "reference" / ("%s.json" % workload)


def check_passes(passes, reference):
    """Count failures: reference mismatches of the checked first pass, and
    any later pass whose outputs differ from it (they must match exactly)."""
    first = passes[0]
    for pr in passes:
        for i, digest in enumerate(pr.digests):
            if i in pr.failures:
                continue
            if reference is not None and pr is first and not same_output(
                reference[i], json.loads(json.dumps(digest))
            ):
                pr.failures[i] = "output differs from the recorded reference"
            elif pr is not first and first.digests[i] is None:
                pr.failures[i] = "unchecked: this op failed on the first pass"
            elif pr is not first and digest != first.digests[i]:
                pr.failures[i] = "output differs from the first pass"


def load_reference(workload, seed, default_seed):
    if seed != default_seed:
        return None
    path = reference_path(workload)
    if not path.is_file():
        return None
    data = json.loads(path.read_text())
    return data["outputs"]


def op_medians(passes, field="refs"):
    """Each op's median time over the passes (the op list is fixed).

    These are the op times of a pass in which every op took its median
    time.  Their sum and percentiles move less from run to run than the
    median of whole-pass times or percentiles pooled over every pass,
    because one slow stretch of the machine only shifts the ops it hit.
    """
    columns = zip(*(getattr(p, field) for p in passes))
    return [statistics.median(times) for times in columns]


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_values(tracer):
    """Per-layer numbers of one traced pass (absent spans read 0)."""
    out = {}
    for metric, _ in PER_LAYER:
        span, _, what = metric.rpartition(".")
        if span == "trace":
            continue
        s = tracer.get(span)
        if what == "calls":
            value = s.calls
        elif what == "self_s":
            value = s.self_s
        elif what == "rebuild_frac":
            built = s.with_child.get(tracer.index["polytope.build_polytope"], 0)
            value = built / s.calls if s.calls else 0.0
        elif what == "calls_per_interior":
            interior = tracer.get("integrate.interior").calls
            value = s.calls / interior if interior else 0.0
        elif what == "interior_per_call":
            watched = s.watched.get(tracer.index["integrate.interior"], 0)
            value = watched / s.calls if s.calls else 0.0
        else:
            value = s.extra.get(what, 0)
        out[metric] = value
    return out


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "toricmu" / "__init__.py").is_file():
        print("error: toricmu sources not found under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import toricmu
    import tracer as tracing
    import workloads as wl

    if args.setup_probe:
        wl.build(args.workload, wl.make_raw(args.workload, args.seed))
        return 0

    # probes before and after the passes, so that their median spans the run
    setup_walls, setup_refs = [], []
    measure_setup(args, setup_walls, setup_refs)
    raw = wl.make_raw(args.workload, args.seed)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "kernel_backend": toricmu.KERNEL_BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }

    tracer = tracing.Tracer(tracing.SPECS) if args.trace else None
    plain, traced, layer = [], [], []
    begin = perf_counter()
    while True:
        if tracer is not None and len(plain) > len(traced):
            tracer.reset()
            tracer.install()
            try:
                traced.append(run_pass(wl, args.workload, raw, tracer, check=False))
            finally:
                tracer.uninstall()
            layer.append(layer_values(tracer))
        else:
            plain.append(run_pass(wl, args.workload, raw, check=not plain))
        done = len(plain) + len(traced)
        elapsed = perf_counter() - begin
        # stop before a pass that would end past the deadline, after two
        if done >= 2 and elapsed * (done + 1) / done > args.seconds:
            break
    measured_s = perf_counter() - begin
    measure_setup(args, setup_walls, setup_refs)
    setup_s = statistics.median(setup_refs) * REF_NOMINAL_S

    reference = load_reference(args.workload, args.seed, wl.DEFAULT_SEED)
    check_passes(plain, reference)
    problems = []
    if traced:
        problems = self_test(plain[0], traced, tracer, tracing.HOME, args.workload)

    if args.record_reference:
        if args.seed != wl.DEFAULT_SEED:
            print("error: the reference is recorded at the default seed", file=sys.stderr)
            return 2
        reference_path(args.workload).parent.mkdir(exist_ok=True)
        reference_path(args.workload).write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "commit": env["commit"],
             "outputs": plain[0].digests}, indent=0) + "\n")

    all_passes = plain + traced
    attempted = sum(len(p.latencies) for p in all_passes)
    failed = sum(len(p.failures) for p in all_passes)
    env["ops_per_pass"] = len(plain[0].latencies)
    env["passes"] = len(plain)
    env["traced_passes"] = len(traced)
    env["measured_s"] = measured_s
    env["reference_checked"] = reference is not None

    refs = op_medians(plain)
    e2e = {
        "setup_s": setup_s,
        "pass_ref": sum(refs),
        "op_p50_ref": percentile(refs, 50),
        "op_p90_ref": percentile(refs, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    latencies = op_medians(plain, "latencies")
    raw_times = {
        "setup_wall_s": statistics.median(setup_walls),
        "wall_s": sum(latencies),
        "op_p50_ms": percentile(latencies, 50) * 1e3,
        "op_p90_ms": percentile(latencies, 90) * 1e3,
        "ref_ms": statistics.median(
            t / r for p in plain for t, r in zip(p.latencies, p.refs)) * 1e3,
    }
    env["op_samples"] = sum(len(p.latencies) for p in plain)
    env["median_pass_s"] = statistics.median(p.wall for p in plain)
    if args.trace:
        metrics = {}
        for name, _ in PER_LAYER:
            if name == "trace.overhead_frac":
                metrics[name] = sum(op_medians(traced)) / e2e["pass_ref"] - 1.0
            else:
                metrics[name] = statistics.median(v[name] for v in layer)
        units = dict(PER_LAYER)
        env["absent_spans"] = list(tracer.absent)
        if args.spans:
            tracer.write_spans(args.spans)
    else:
        metrics = e2e
        units = dict(END_TO_END)

    correct = failed == 0 and not problems
    report(env, e2e, raw_times, metrics, units, all_passes, problems, attempted,
           failed)
    payload = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    if args.out:
        record = dict(env, correct=correct, attempted=attempted, failed=failed,
                      fail_frac=failed / attempted, end_to_end=e2e,
                      raw_times=raw_times, metrics=payload["metrics"],
                      self_test=problems, latencies=[p.latencies for p in plain],
                      refs=[p.refs for p in plain])
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(payload))
    return 0


def self_test(untraced, traced, tracer, home, workload):
    """Tracer self-test: span coverage on the home workload, unchanged outputs."""
    problems = []
    for pr in traced:
        for i, (a, b) in enumerate(zip(untraced.digests, pr.digests)):
            if a is not None and a != b:
                problems.append("traced output of op %d (%s) differs from untraced"
                                % (i, pr.labels[i]))
    for name in tracer.names:
        if name in tracer.absent or workload not in home[name]:
            continue
        if tracer.get(name).calls == 0:
            problems.append("span %s recorded no call on %s" % (name, workload))
    return problems


def report(env, e2e, raw_times, metrics, units, passes, problems, attempted, failed):
    print("toricmu benchmark: %(workload)s seed=%(seed)s trace=%(trace)s "
          "backend=%(kernel_backend)s python=%(python)s nproc=%(nproc)s "
          "commit=%(commit)s" % env)
    reference = "checked" if env["reference_checked"] else "not recorded for this seed"
    print("ops/pass=%d passes=%d traced=%d op samples=%d median pass=%.4gs "
          "reference=%s" % (env["ops_per_pass"], env["passes"], env["traced_passes"],
                            env["op_samples"], env["median_pass_s"], reference))
    rows = dict(e2e, fail_frac=failed / attempted, **raw_times)
    units_all = dict(END_TO_END, fail_frac="1", setup_wall_s="s", wall_s="s",
                     op_p50_ms="ms", op_p90_ms="ms", ref_ms="ms")
    for name in ("setup_s", "pass_ref", "op_p50_ref", "op_p90_ref", "fail_frac",
                 "peak_rss_mb", "setup_wall_s", "wall_s", "op_p50_ms", "op_p90_ms",
                 "ref_ms"):
        print("  %-48s %14.6g %s" % (name, rows[name], units_all[name]))
    if metrics is not e2e:
        for name, value in metrics.items():
            print("  %-48s %14.6g %s" % (name, value, units[name]))
        for name in env.get("absent_spans", []):
            print("  absent span: %s" % name)
    for pr in passes:
        for i, error in sorted(pr.failures.items())[:10]:
            print("  FAILED op %d (%s): %s" % (i, pr.labels[i], error))
    for problem in problems:
        print("  SELF-TEST: %s" % problem)


if __name__ == "__main__":
    sys.exit(main())

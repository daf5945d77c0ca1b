"""Replay of the divided-difference kernel calls of three benchmark passes.

Records every call to toricmu.integrate.ddexp made by one pass of each of
the `sweep`, `optimize` and `exact` workloads of perfbench at seed 1, and
prints each workload's calls as a histogram by node count and scaling
depth K (0, 1, >= 2; a single node is a plain exp, counted at K = 0).
It then replays the recorded node lists through each kernel backend that
imports (the pure-Python one always, the compiled one when built).  The
replays alternate: each round times every (workload, backend) pair once,
in an order that flips from round to round, and the report is the median
and quartiles over the rounds.  A replay in one process is far steadier
than timing synthetic batches: the speed of a shared machine drifts
between stretches of a few seconds, and alternation spreads that drift
over every pair alike.

Only perfbench/workloads.py is read, for the op lists; nothing under
perfbench/ is changed.

Run: python3 benchmarks/bench_kernel.py [--rounds 9]
"""

import argparse
import math
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# import toricmu from this checkout's sources, installed or not
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from toricmu import _ddexp_py, integrate  # noqa: E402

try:
    from toricmu import _ddexp
except ImportError:
    _ddexp = None

SEED = 1
WORKLOADS = ("sweep", "optimize", "exact")
DEPTHS = ("K=0", "K=1", "K>=2")


def record(workload):
    """The node lists of every kernel call of one pass, in call order."""
    calls = []
    kernel = integrate.ddexp

    def recording(nodes):
        calls.append(list(nodes))
        return kernel(nodes)

    raw = workloads.make_raw(workload, SEED)
    ops = workloads.ops_for(workload, raw, workloads.build(workload, raw))
    integrate.ddexp = recording
    try:
        for op in ops:
            op.call()
    finally:
        integrate.ddexp = kernel
    return calls


def depth_label(nodes):
    """The column of DEPTHS the kernel's scaling depth of nodes falls in."""
    if len(nodes) < 2:
        return DEPTHS[0]
    c = _ddexp_py._float_sum(nodes) / len(nodes)
    spread = max(abs(b - c) for b in nodes)
    if not spread > 0.5:
        return DEPTHS[0]
    return DEPTHS[min(_ddexp_py._depth(spread), 2)]


def print_histogram(recorded):
    print("kernel calls of one seed-%d pass by node count and scaling depth K" % SEED)
    columns = "".join("%9s" % d for d in DEPTHS + ("total",))
    print("%-9s %5s" % ("workload", "nodes") + columns)
    for w, calls in recorded.items():
        table = {}
        for nodes in calls:
            row = table.setdefault(len(nodes), dict.fromkeys(DEPTHS, 0))
            row[depth_label(nodes)] += 1
        for m in sorted(table):
            row = table[m]
            print("%-9s %5d" % (w, m) + "".join("%9d" % row[d] for d in DEPTHS)
                  + "%9d" % sum(row.values()))
        print("%-9s %5s" % (w, "all") + " " * 27 + "%9d" % len(calls))
    print()


def replay(fn, calls):
    start = time.perf_counter()
    for nodes in calls:
        fn(nodes)
    return time.perf_counter() - start


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=9)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")

    kernels = [("python", _ddexp_py.ddexp)]
    if _ddexp is not None:
        kernels.append(("compiled", _ddexp.ddexp))
    recorded = {w: record(w) for w in WORKLOADS}
    print_histogram(recorded)
    if _ddexp is not None:
        for w, calls in recorded.items():
            for nodes in calls:
                py, cy = _ddexp_py.ddexp(nodes), _ddexp.ddexp(nodes)
                assert math.isclose(py, cy, rel_tol=1e-12) or (
                    math.isnan(py) and math.isnan(cy)
                ), "backends disagree on %r: %r vs %r" % (nodes, py, cy)

    pairs = [(w, name, fn) for w in WORKLOADS for (name, fn) in kernels]
    times = {(w, name): [] for (w, name, _) in pairs}
    for r in range(args.rounds):
        for (w, name, fn) in pairs if r % 2 == 0 else reversed(pairs):
            times[(w, name)].append(replay(fn, recorded[w]))

    print("kernel calls of one seed-%d pass, replayed %d times alternately"
          % (SEED, args.rounds))
    print("%-9s %8s %9s %24s" % ("workload", "calls", "backend", "median [q1-q3] ms"))
    for (w, name, _) in pairs:
        q1, med, q3 = (1e3 * t for t in quartiles(times[(w, name)]))
        print("%-9s %8d %9s %10.1f [%5.1f-%5.1f]"
              % (w, len(recorded[w]), name, med, q1, q3))
    if _ddexp is not None:
        for w in WORKLOADS:
            ratios = [p / c for p, c in zip(times[(w, "python")], times[(w, "compiled")])]
            print("%-9s python / compiled, median over rounds: %.1fx"
                  % (w, statistics.median(ratios)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

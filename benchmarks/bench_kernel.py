"""Timing comparison of the compiled and pure-Python divided-difference kernels.

Measures ddexp on node batches shaped like the ones the integrators produce
(small simplex vertex sets, moderate spreads, occasional repeats), plus one
end-to-end entropy sweep through the public API with each backend forced.

Run: python3 benchmarks/bench_kernel.py
"""

import random
import sys
import time
from pathlib import Path

# import toricmu from this checkout's sources, installed or not
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from toricmu import _ddexp_py

try:
    from toricmu import _ddexp
except ImportError:
    _ddexp = None


def _batches(rng, count, size, spread):
    out = []
    for _ in range(count):
        nodes = [rng.uniform(-spread, spread) for _ in range(size)]
        if size > 2 and rng.random() < 0.3:
            nodes[-1] = nodes[0]  # confluent pair
        out.append(nodes)
    return out


def _time_kernel(fn, batches, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0.0
        for nodes in batches:
            acc += fn(nodes)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best, acc


def bench_kernels():
    rng = random.Random(20240917)
    cases = [
        ("n=3 spread 1", _batches(rng, 4000, 3, 1.0)),
        ("n=4 spread 5", _batches(rng, 4000, 4, 5.0)),
        ("n=6 spread 20", _batches(rng, 2000, 6, 20.0)),
        ("n=10 spread 50", _batches(rng, 1000, 10, 50.0)),
    ]
    print("%-16s %12s %12s %8s" % ("case", "python [ms]", "cython [ms]", "speedup"))
    for label, batches in cases:
        t_py, acc_py = _time_kernel(_ddexp_py.ddexp, batches, 3)
        if _ddexp is None:
            print("%-16s %12.2f %12s %8s" % (label, 1e3 * t_py, "n/a", "n/a"))
            continue
        t_cy, acc_cy = _time_kernel(_ddexp.ddexp, batches, 3)
        gap = abs(acc_py - acc_cy) / max(abs(acc_py), 1e-300)
        assert gap < 1e-12, "backends disagree: rel %g" % gap
        print(
            "%-16s %12.2f %12.2f %7.1fx"
            % (label, 1e3 * t_py, 1e3 * t_cy, t_py / t_cy)
        )


def bench_entropy_sweep():
    import toricmu.integrate as integrate
    from toricmu import build_polytope, entropy_curve
    from toricmu.paconvex import AffineForm

    P = build_polytope([(-1, -1), (1, -1), (1, 0), (0, 1), (-1, 1)])
    q0 = AffineForm((1, 1), 0)

    def sweep():
        start = time.perf_counter()
        entropy_curve(P, q0, grid=(-5.0, 5.0, 201))
        return time.perf_counter() - start

    results = {}
    saved = integrate.ddexp
    try:
        for name, kernel in (
            ("python", _ddexp_py.ddexp),
            ("cython", None if _ddexp is None else _ddexp.ddexp),
        ):
            if kernel is None:
                continue
            integrate.ddexp = kernel
            results[name] = min(sweep() for _ in range(3))
    finally:
        integrate.ddexp = saved
    print()
    print("entropy sweep, 201 points on a pentagon:")
    for name, t in results.items():
        print("  %-6s %8.1f ms" % (name, 1e3 * t))
    if "python" in results and "cython" in results:
        print("  speedup %.1fx" % (results["python"] / results["cython"]))


if __name__ == "__main__":
    bench_kernels()
    bench_entropy_sweep()

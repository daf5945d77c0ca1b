"""Compare result records of two commits written by ``run.py --out``.

    python3 perfbench/compare.py --base a1.json a2.json ... --new b1.json b2.json ...

Every record must come from the same workload, seed, trace mode and kernel
backend; otherwise the comparison is refused (exit code 2), because numbers
from different inputs or kernels do not measure the same work.  For each
metric it prints both sides' median and quartiles, the ratio of the medians,
and, for the end-to-end metrics, whether the new median is worse than the
base median by more than the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

MUST_MATCH = ("workload", "seed", "trace", "kernel_backend")


def load(paths):
    return [json.loads(Path(p).read_text()) for p in paths]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def bounds():
    spec = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    if not spec.is_file():
        return {}, {}
    data = json.loads(spec.read_text())
    metrics = data["end_to_end"] + data["per_layer"]
    return ({m["name"]: m["bound"] for m in data["end_to_end"]},
            {m["name"]: m["better"] for m in metrics})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    base, new = load(args.base), load(args.new)
    first = base[0]
    for rec in base + new:
        for key in MUST_MATCH:
            if rec.get(key) != first.get(key):
                print("refused: %s differs (%r vs %r)" % (key, first.get(key),
                                                          rec.get(key)),
                      file=sys.stderr)
                return 2
    limit, better = bounds()
    print("workload=%s seed=%s trace=%s backend=%s; base %s, new %s" % (
        first["workload"], first["seed"], first["trace"], first["kernel_backend"],
        sorted({r["commit"][:12] for r in base}), sorted({r["commit"][:12] for r in new})))
    print("%-48s %12s %12s %8s  %s" % ("metric", "base median", "new median",
                                       "new/base", "verdict"))
    worse = 0
    for name in first["metrics"]:
        a = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
        b = [r["metrics"][name]["value"] for r in new if name in r["metrics"]]
        if not a or not b:
            continue
        (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
        ratio = bm / am if am else float("nan")
        verdict = ""
        if name in limit:
            sign = 1.0 if better.get(name) == "lower" else -1.0
            change = sign * (bm - am) / am if am else 0.0
            if change > limit[name]:
                verdict = "WORSE than bound %.2f" % limit[name]
                worse += 1
            elif (a3 - a1) / am > limit[name]:
                verdict = "unresolved: base spread wider than bound"
            else:
                verdict = "within bound %.2f" % limit[name]
        print("%-48s %12.6g %12.6g %8.3f  %s" % (name, am, bm, ratio, verdict))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())

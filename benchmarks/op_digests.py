"""Op digests of the benchmark workloads, written out and compared bit for bit.

    python3 benchmarks/op_digests.py dump --seed 1 --out a.json
    python3 benchmarks/op_digests.py compare a.json b.json

dump runs one pass of each of perfbench's `sweep`, `optimize` and `exact`
workloads at the given seed against this checkout's sources and writes, per
workload, every op's label and digest in op order, with each float as its
float.hex string (tagged ["F", hex]), the number of calls the pass made to
toricmu.integrate.ddexp, in all and per node count, to build_polytope
(every binding of it in a toricmu module) and to LatticePolytope.clip,
counted by wrappers this script installs (the clips that build_polytope
makes of its polar are counted apart, as hull clips, so that the clip
count reads as in dumps of trees whose hulls made none), and the pass's traced memory in KiB
(tracemalloc, started after the workload's inputs are built): what the
ops leave allocated after the pass, such as the caches they keep on the
inputs (like the kernel count, it leaves out the checks and the digests),
and the peak during the pass.  An op that raises, or fails its
identity check, has ["error", message] as its digest.  The dump also
records the interpreter's version.  Two dumps of different commits at one
seed then compare the outputs by their exact bits.

compare prints, per workload and op label, how many ops carry the label,
how many of their digests differ, how many of those differ beyond the
reference tolerance of perfbench/run.py (same_output: floats to rel 1e-9,
everything else exactly) and the largest relative gap between two floats
that differ; the kernel (in all and per node count), hull-build, clip
and hull-clip call counts and traced memory of both dumps ("-" for a count
an older dump lacks); and
exits with code 1 when any digest differs.  It prints the interpreter
version of both dumps.

Only perfbench/workloads.py and perfbench/run.py are read, for the op
lists and the reference tolerance; nothing under perfbench/ is changed.
"""

import argparse
import gc
import json
import math
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# import toricmu from this checkout's sources, installed or not
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from run import same_output  # noqa: E402
from toricmu import integrate, polytope  # noqa: E402

WORKLOADS = ("sweep", "optimize", "exact")


def exact_bits(value):
    """value as JSON data that keeps every float's bits."""
    if isinstance(value, float):
        return ["F", value.hex()]
    if isinstance(value, (list, tuple)):
        return [exact_bits(v) for v in value]
    return value


class GeometryCounts:
    """Calls of build_polytope and LatticePolytope.clip made while active,
    with the clips made inside a build_polytope call in hull_clip.

    install() binds counting wrappers wherever a toricmu module binds
    build_polytope, and on the class for clip; uninstall() restores them.
    """

    def __init__(self):
        self.active = False
        self.build_polytope = 0
        self.clip = 0
        self.hull_clip = 0
        self._building = 0
        self._build = polytope.build_polytope
        self._clip = polytope.LatticePolytope.clip
        self._bound = []

    def install(self):
        build, clip = self._build, self._clip

        def counted_build(vertices):
            self.build_polytope += self.active
            self._building += 1
            try:
                return build(vertices)
            finally:
                self._building -= 1

        def counted_clip(P, normal, offset):
            if self._building:
                self.hull_clip += self.active
            else:
                self.clip += self.active
            return clip(P, normal, offset)

        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "toricmu"]
        self._bound = [(m, a) for m in modules for a, v in vars(m).items() if v is build]
        for m, a in self._bound:
            setattr(m, a, counted_build)
        polytope.LatticePolytope.clip = counted_clip

    def uninstall(self):
        for m, a in self._bound:
            setattr(m, a, self._build)
        polytope.LatticePolytope.clip = self._clip


def run_ops(workload, seed):
    """{"ops": [[label, digest]], "ddexp_calls": count, "ddexp_calls_by_nodes":
    {node count: count}, "build_polytope_calls": count, "clip_calls": count,
    "hull_clip_calls": count, "retained_kib": kib, "peak_kib": kib} of one
    pass."""
    raw = workloads.make_raw(workload, seed)
    ops = workloads.ops_for(workload, raw, workloads.build(workload, raw))
    kernel = integrate.ddexp
    calls = 0
    by_nodes = {}

    def counting(nodes):
        nonlocal calls
        calls += 1
        by_nodes[len(nodes)] = by_nodes.get(len(nodes), 0) + 1
        return kernel(nodes)

    geometry = GeometryCounts()
    geometry.install()
    try:
        out = []
        checks = 0  # what the checks and digests leave allocated
        gc.collect()
        tracemalloc.start()
        for op in ops:
            digest = None
            # the counts cover the ops, not their checks
            integrate.ddexp = counting
            geometry.active = True
            try:
                result = op.call()
            except Exception as err:  # a failed op is recorded, not fatal
                digest = ["error", "%s: %s" % (type(err).__name__, err)]
            finally:
                integrate.ddexp = kernel
                geometry.active = False
            mark = tracemalloc.get_traced_memory()[0]
            if digest is None:
                try:
                    op.check(result)
                    digest = exact_bits(op.digest(result))
                except Exception as err:
                    digest = ["error", "check %s: %s" % (type(err).__name__, err)]
            out.append([op.label, digest])
            checks += tracemalloc.get_traced_memory()[0] - mark
        result = None  # the last op's output is not something the pass keeps
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    finally:
        geometry.uninstall()
    return {
        "ops": out,
        "ddexp_calls": calls,
        # JSON keys are strings: the node counts are written as text
        "ddexp_calls_by_nodes": {str(m): by_nodes[m] for m in sorted(by_nodes)},
        "build_polytope_calls": geometry.build_polytope,
        "clip_calls": geometry.clip,
        "hull_clip_calls": geometry.hull_clip,
        "retained_kib": round((retained - checks) / 1024),
        "peak_kib": round(peak / 1024),
    }


def dump(seed, path):
    data = {
        "seed": seed,
        "backend": integrate.KERNEL_BACKEND,
        "python": list(sys.version_info[:3]),
        "workloads": {},
    }
    for w in WORKLOADS:
        data["workloads"][w] = run_ops(w, seed)
        run = data["workloads"][w]
        print("%-9s %4d ops, %7d ddexp calls, %5d hull builds, %5d clips,"
              " %5d hull clips, traced KiB %d retained, %d peak"
              % (w, len(run["ops"]), run["ddexp_calls"], run["build_polytope_calls"],
                 run["clip_calls"], run["hull_clip_calls"], run["retained_kib"],
                 run["peak_kib"]))
        print("%-9s ddexp calls per node count: %s" % (w, ", ".join(
            "%s: %d" % item for item in run["ddexp_calls_by_nodes"].items())))
    Path(path).write_text(json.dumps(data, indent=0) + "\n")


def decoded(value):
    """A dumped digest with each ["F", hex] read back as its float."""
    if isinstance(value, list):
        if len(value) == 2 and value[0] == "F":
            return float.fromhex(value[1])
        return [decoded(v) for v in value]
    return value


def largest_gap(a, b):
    """(equal, largest relative gap) of two digests; the gap counts only
    floats that differ, and is inf where the shapes differ or a float is
    compared with anything else."""
    if isinstance(a, list) and len(a) == 2 and a[0] == "F":
        if not (isinstance(b, list) and len(b) == 2 and b[0] == "F"):
            return False, math.inf
        if a[1] == b[1]:
            return True, 0.0
        x, y = float.fromhex(a[1]), float.fromhex(b[1])
        if not (math.isfinite(x) and math.isfinite(y)):
            return False, math.inf
        return False, abs(x - y) / max(abs(x), abs(y), 1e-300)
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        equal, gap = True, 0.0
        for u, v in zip(a, b):
            e, g = largest_gap(u, v)
            equal, gap = equal and e, max(gap, g)
        return equal, gap
    return (True, 0.0) if a == b else (False, math.inf)


def compare(path_a, path_b):
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    if a["seed"] != b["seed"]:
        sys.exit("the dumps are of different seeds: %s and %s" % (a["seed"], b["seed"]))
    print("seed %s; backends %s and %s" % (a["seed"], a["backend"], b["backend"]))
    # dumps written before the interpreter stamp have none
    versions = [d.get("python") for d in (a, b)]
    print("python %s and %s" % tuple(
        "-" if v is None else ".".join(map(str, v)) for v in versions))
    print("%-9s %-24s %5s %7s %7s %10s"
          % ("workload", "label", "ops", "differ", "beyond", "max gap"))
    differ = beyond = 0
    for w in WORKLOADS:
        ops_a, ops_b = a["workloads"][w]["ops"], b["workloads"][w]["ops"]
        if [l for l, _ in ops_a] != [l for l, _ in ops_b]:
            print("%-9s the op lists differ" % w)
            differ += 1
            beyond += 1
            continue
        rows = {}
        for (label, da), (_, db) in zip(ops_a, ops_b):
            equal, gap = largest_gap(da, db)
            row = rows.setdefault(label, [0, 0, 0, 0.0])
            row[0] += 1
            row[1] += not equal
            row[2] += not (equal or same_output(decoded(da), decoded(db)))
            row[3] = max(row[3], gap)
        for label, (count, bad, far, gap) in rows.items():
            print("%-9s %-24s %5d %7d %7d %10.3g" % (w, label, count, bad, far, gap))
            differ += bad
            beyond += far
        wa, wb = a["workloads"][w], b["workloads"][w]
        print("%-9s ddexp calls %d -> %d" % (w, wa["ddexp_calls"], wb["ddexp_calls"]))
        # dumps written before the per-node counts have none
        na, nb = wa.get("ddexp_calls_by_nodes", {}), wb.get("ddexp_calls_by_nodes", {})
        for m in sorted(set(na) | set(nb), key=int):
            print("%-9s ddexp calls on %s nodes %s -> %s"
                  % (w, m, na.get(m, "-" if not na else 0), nb.get(m, "-" if not nb else 0)))
        # dumps written before the geometry counts have none
        for key in ("build_polytope_calls", "clip_calls", "hull_clip_calls"):
            print("%-9s %s %s -> %s" % (w, key.replace("_", " "), wa.get(key, "-"),
                                        wb.get(key, "-")))
        # dumps written before the memory readout have no traced KiB
        print("%-9s traced KiB retained %s -> %s, peak %s -> %s"
              % (w, wa.get("retained_kib", "-"), wb.get("retained_kib", "-"),
                 wa.get("peak_kib", "-"), wb.get("peak_kib", "-")))
    total = sum(len(a["workloads"][w]["ops"]) for w in WORKLOADS)
    print("%d of %d digests differ, %d beyond the reference tolerance"
          % (differ, total, beyond))
    return 1 if differ else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    d = sub.add_parser("dump", help="write the op digests of one seed")
    d.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    d.add_argument("--out", required=True)
    c = sub.add_parser("compare", help="compare two dumps of one seed")
    c.add_argument("a")
    c.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.seed, args.out)
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())

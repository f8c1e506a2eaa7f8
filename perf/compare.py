#!/usr/bin/env python3
"""A/B comparison of benchmark runs against the bounds in BENCHMARK.json.

Collect at least ten runs of each side, alternating which side runs first,
each appended with `perf/run.py --save FILE`:

  python3 perf/run.py --workload hash-updates --seed 11 --save parent.jsonl
  python3 perf/run.py --workload hash-updates --seed 11 --save change.jsonl
  ...
  python3 perf/compare.py --parent parent.jsonl --change change.jsonl

Run i of the parent is paired with run i of the change, per workload. For
every (metric, workload) it prints each side's median and quartiles, the
fraction of pairs the change wins (ties count for neither) and a verdict:

  gain        the change wins >= 90% of pairs and the medians differ by
              more than the parent's own spread (Q3 - Q1), and the change
              failed no more operations than the parent;
  REGRESSION  the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's spread is wider than the bound and not every
              change run beats every parent run;
  worse       (per-layer metrics, which have no bound) the parent wins by
              the gain rule;
  no change   otherwise.

Exits 1 when any end-to-end metric regressed or any run failed a check.
`--self-test` checks these rules on synthetic runs and runs the API-surface
guard: no file of the benchmark may reach past the library's public entry
points it is meant to use.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent
GAIN_WIN_FRACTION = 0.9


def load(paths):
    runs = []
    for p in paths:
        with open(p) as f:
            runs += [json.loads(line) for line in f if line.strip()]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    """True when a is strictly better than b."""
    return a > b if direction == "higher" else a < b


def verdict(parent, change, direction, bound, parent_failed, change_failed):
    """Applies the A/B rules to one (metric, workload); returns a dict."""
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(better(c, p, direction) for p, c in pairs)
    losses = sum(better(p, c, direction) for p, c in pairs)
    spread = p_q3 - p_q1
    worse_by = (c_med - p_med) if direction == "lower" else (p_med - c_med)
    rel_worse = worse_by / p_med if p_med else 0.0
    all_better = all(better(c, p, direction) for p in parent for c in change)
    clear = abs(c_med - p_med) > spread
    if pairs and wins / len(pairs) >= GAIN_WIN_FRACTION and clear and worse_by < 0:
        v = "gain" if change_failed <= parent_failed else "no change"
    elif bound is not None and rel_worse > bound:
        v = "REGRESSION"
    elif bound is not None and p_med and spread / p_med > bound and not all_better:
        v = "unresolved"
    elif bound is None and pairs and losses / len(pairs) >= GAIN_WIN_FRACTION and clear:
        v = "worse"
    else:
        v = "no change"
    return {"parent": (p_med, p_q1, p_q3), "change": (c_med, c_q1, c_q3),
            "wins": wins, "pairs": len(pairs), "delta_pct":
            100.0 * (c_med / p_med - 1) if p_med else 0.0, "verdict": v}


def compare(spec, parent_runs, change_runs, trace):
    """Yields (workload, metric, result) for every declared metric."""
    declared = spec["per_layer" if trace else "end_to_end"]
    for w in [w["name"] for w in spec["workloads"]]:
        p = [r for r in parent_runs if r["workload"] == w and r["trace"] == trace]
        c = [r for r in change_runs if r["workload"] == w and r["trace"] == trace]
        if not p or not c:
            continue
        p_failed = sum(r["failed"] for r in p)
        c_failed = sum(r["failed"] for r in c)
        for m in declared:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in p if name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in c if name in r["metrics"]]
            if pv and cv:
                yield w, name, verdict(pv, cv, m["better"], m.get("bound"),
                                       p_failed, c_failed)


def report(rows, out=sys.stdout):
    print(f"{'workload':<13} {'metric':<34} {'parent median [Q1,Q3]':>32} "
          f"{'change median [Q1,Q3]':>32} {'delta':>8} {'wins':>7}  verdict",
          file=out)
    for w, name, r in rows:
        p, c = r["parent"], r["change"]
        print(f"{w:<13} {name:<34} {p[0]:>12.5g} [{p[1]:.5g},{p[2]:.5g}]"
              f"{'':>2} {c[0]:>12.5g} [{c[1]:.5g},{c[2]:.5g}]"
              f"{'':>2} {r['delta_pct']:>+7.2f}% {r['wins']:>3}/{r['pairs']:<3}"
              f"  {r['verdict']}", file=out)


# ---- API-surface guard -----------------------------------------------------

# The benchmark calls the library only through public entry points, so
# rewrites of the paper benches, the scenario engine, the set-compat
# shims and the BRC header never have to touch perf/. This file names the
# patterns, so it is the one file the scan skips; README.md explains the
# rule in prose and is skipped too.
FORBIDDEN = ["bench/", "workload/", "ISet", "make_set", "contains(", "erase(",
             "hyaline.hpp"]
SKIP_DIRS = {"build", "out", "__pycache__"}


def api_surface_violations(root=PERF):
    found = []
    for path in sorted(root.rglob("*")):
        rel = path.relative_to(root)
        if (not path.is_file() or SKIP_DIRS & set(rel.parts[:-1])
                or path.name in ("compare.py", "README.md")):
            continue
        for n, line in enumerate(path.read_text(errors="replace").splitlines(), 1):
            found += [f"{rel}:{n}: {pat}" for pat in FORBIDDEN if pat in line]
    return found


# ---- self-test ------------------------------------------------------------

def self_test():
    failures = []

    def check(label, got, want):
        if got != want:
            failures.append(f"{label}: got {got!r}, want {want!r}")

    base = [100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    up10 = [v * 1.10 for v in base]
    down20 = [v * 0.80 for v in base]
    check("clear gain, higher is better",
          verdict(base, up10, "higher", 0.1, 0, 0)["verdict"], "gain")
    check("clear gain voided by more failures",
          verdict(base, up10, "higher", 0.1, 0, 3)["verdict"], "no change")
    check("throughput drop beyond the bound",
          verdict(base, down20, "higher", 0.1, 0, 0)["verdict"], "REGRESSION")
    check("latency rise beyond the bound",
          verdict(base, [v * 1.2 for v in base], "lower", 0.1, 0, 0)["verdict"],
          "REGRESSION")
    check("within the bound", verdict(base, [v * 0.97 for v in base], "higher",
                                      0.1, 0, 0)["verdict"], "no change")
    noisy = [60, 140, 80, 120, 70, 130, 90, 110, 65, 135]
    check("parent spread wider than the bound",
          verdict(noisy, [v * 0.95 for v in noisy], "higher", 0.1, 0, 0)["verdict"],
          "unresolved")
    check("wide spread, but every change run beats every parent run",
          verdict(noisy, [200 + i for i in range(10)], "higher", 0.1, 0, 0)["verdict"],
          "gain")
    tie = verdict(base, list(base), "higher", 0.1, 0, 0)
    check("ties count for neither side", (tie["wins"], tie["verdict"]),
          (0, "no change"))
    check("per-layer metric, parent wins",
          verdict(base, [v * 1.5 for v in base], "lower", None, 0, 0)["verdict"],
          "worse")
    check("quartiles", quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
          (2.75, 5.5, 8.25))

    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "m", "unit": "Mops", "better": "higher",
                            "bound": 0.1}]}
    run = lambda v, f=0: {"workload": "w", "trace": 0, "failed": f,
                          "metrics": {"m": {"value": v, "unit": "Mops"}}}
    rows = list(compare(spec, [run(v) for v in base], [run(v) for v in up10], 0))
    check("compare pairs runs per workload", [(w, n, r["pairs"]) for w, n, r in rows],
          [("w", "m", 10)])

    violations = api_surface_violations()
    check("API-surface guard", violations, [])

    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    print(f"compare.py self-test: {len(failures)} failure(s)")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", nargs="+", help="parent run records (JSONL)")
    ap.add_argument("--change", nargs="+", help="change run records (JSONL)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0,
                    help="compare traced (per-layer) runs instead")
    ap.add_argument("--spec", default=str(PERF.parent / "BENCHMARK.json"))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.parent or not args.change:
        ap.error("--parent and --change are required")
    with open(args.spec) as f:
        spec = json.load(f)
    parent, change = load(args.parent), load(args.change)
    rows = list(compare(spec, parent, change, args.trace))
    report(rows)
    bad_runs = [r for r in parent + change if not r["correct"]]
    regressed = [row for row in rows if row[2]["verdict"] == "REGRESSION"]
    return 1 if bad_runs or regressed else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Validate popsmr benchmark JSONL artifacts (BENCH_*.json) against a schema.

Every bench binary appends kind-tagged JSON Lines to POPSMR_BENCH_JSON.
The row kinds are declared once, in C++ (src/workload/rows.hpp), and any
bench binary exports them:

  bench_scenarios --emit-schema > schema.json
  tools/check_bench_jsonl.py --schema schema.json BENCH_*.json \\
      [--require-kind scenario] [--min-rows 1] [--summary]

This checker names no row field. The schema names the tag field that
carries a row's kind and lists each kind's fields with a JSON type: int
(a JSON bool is rejected although Python's bool is an int), num (int or
finite float), str, or flag (bool-as-int: 0/1 or true/false). A field may
also be "optional", pinned by "equals" (the only value a green artifact
may hold) or bounded by "min".

Exits 0 iff every file holds at least --min-rows rows, every line is a
JSON object matching its kind, and every --require-kind appears. CI runs
it over every artifact, so a malformed or empty one fails the job.
"""

import argparse
import json
import math
import sys

TYPES = {
    "flag": lambda v: isinstance(v, int),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "num": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
}


def check_row(schema, row, where, errors, kind_counts):
    if not isinstance(row, dict):
        errors.append(f"{where}: not a JSON object")
        return
    kind = row.get(schema["tag"])
    if kind not in schema["kinds"]:
        errors.append(f"{where}: unknown {schema['tag']} {kind!r}")
        return
    kind_counts[kind] = kind_counts.get(kind, 0) + 1
    for f in schema["kinds"][kind]:
        name, v = f["name"], row.get(f["name"])
        bad = None
        if name not in row:
            bad = None if f.get("optional") else "is missing"
        elif not TYPES[f["type"]](v):
            bad = f"has type {type(v).__name__}, expected {f['type']}"
        elif isinstance(v, float) and not math.isfinite(v):
            bad = "is NaN/inf"
        elif "equals" in f and v != f["equals"]:
            bad = f"must be {f['equals']} in a green artifact, got {v}"
        elif "min" in f and v < f["min"]:
            bad = f"must be >= {f['min']}, got {v}"
        if bad:
            errors.append(f"{where} [{kind}]: field '{name}' {bad}")


def fields(**types):
    """A fixture kind: name=type pairs; a type may carry ':key=value'."""
    out = []
    for name, spec in types.items():
        t, *facts = spec.split(":")
        out.append({"name": name, "type": t,
                    **{k: json.loads(v) for k, v in
                       (fact.split("=") for fact in facts)}})
    return out


# A small stand-in for the exported schema, so the self-test needs no
# build. Its kinds and fields exist only to exercise each rule.
FIXTURE = {"tag": "kind", "kinds": {
    "shard": fields(run_id="int", ts="int", retired="int",
                    forced_handshakes="int"),
    "net": fields(run_id="int", lat_p999_us="num", errors="int",
                  connections="int:min=1", pipeline_depth="int:min=1"),
    "latency": fields(run_id="int", op="str", p99_us="num"),
    "fault": fields(run_id="int",
                    audit_violations="int:optional=true:equals=0",
                    fault="str", tids_reaped="int", recovery_pct="num"),
    "mem_sample": fields(run_id="int", victim_parked="flag"),
}}


def self_test():
    """The checker's own regression cases: (description, row, passes).

    The load-bearing one is the bool regression: `"retired": true` must
    FAIL although Python's bool is an int; only flags take a JSON bool.
    """
    shard = {"kind": "shard", "run_id": 1754600000000000000,
             "ts": 1754600000000, "retired": 5, "forced_handshakes": 2}
    net = {"kind": "net", "run_id": 1, "lat_p999_us": 24.192, "errors": 0,
           "connections": 4, "pipeline_depth": 8}
    latency = {"kind": "latency", "run_id": 1, "op": "ping_wave",
               "p99_us": 5203.6}
    fault = {"kind": "fault", "run_id": 1, "fault": "thread-kill",
             "tids_reaped": 4, "recovery_pct": 97.5}
    mem = {"kind": "mem_sample", "run_id": 1, "victim_parked": 0}

    def drop(row, field):
        return {k: v for k, v in row.items() if k != field}

    cases = [
        ("valid shard row", shard, True),
        ("valid net row", net, True),
        ("valid latency row", latency, True),
        ("valid fault row", fault, True),
        ("valid mem_sample row", mem, True),
        ("missing required num field", drop(net, "lat_p999_us"), False),
        ("missing required positive field", drop(net, "pipeline_depth"),
         False),
        ("missing required int field", drop(shard, "forced_handshakes"),
         False),
        ("missing stamp field", drop(latency, "run_id"), False),
        ("missing per-row percentile", drop(latency, "p99_us"), False),
        ("missing required ratio", drop(fault, "recovery_pct"), False),
        ("zero where min is 1", {**net, "connections": 0}, False),
        ("negative where min is 1", {**net, "pipeline_depth": -8}, False),
        ("int counter as bool", {**net, "errors": False}, False),
        ("retired as bool", {**shard, "retired": True}, False),
        ("tids_reaped as bool", {**fault, "tids_reaped": True}, False),
        ("num field as bool", {**fault, "recovery_pct": False}, False),
        ("num field as null (a NaN the writer could not encode)",
         {**fault, "recovery_pct": None}, False),
        ("str field as number", {**latency, "op": 7}, False),
        ("fault name as number", {**fault, "fault": 3}, False),
        ("int field as float", {**shard, "retired": 5.0}, False),
        ("flag as bool", {**mem, "victim_parked": True}, True),
        ("flag as 0/1", {**mem, "victim_parked": 1}, True),
        ("flag as string", {**mem, "victim_parked": "1"}, False),
        ("optional field absent", fault, True),
        ("optional field at its required value",
         {**fault, "audit_violations": 0}, True),
        ("optional field off its required value",
         {**fault, "audit_violations": 3}, False),
        ("optional field as bool", {**fault, "audit_violations": False},
         False),
        ("unknown kind", {"kind": "nope"}, False),
        ("row without a kind", drop(shard, "kind"), False),
        ("non-object row", [1, 2, 3], False),
    ]
    failures = 0
    for desc, row, should_pass in cases:
        errors = []
        check_row(FIXTURE, row, "self-test", errors, {})
        if (not errors) != should_pass:
            failures += 1
            print(f"check_bench_jsonl: self-test FAIL: {desc} "
                  f"(expected {'pass' if should_pass else 'fail'}, "
                  f"errors={errors})", file=sys.stderr)
    if failures:
        return 1
    print(f"check_bench_jsonl: self-test OK — {len(cases)} cases")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*", help="JSONL artifacts to validate")
    ap.add_argument("--schema", metavar="FILE",
                    help="row schema from `bench_scenarios --emit-schema`")
    ap.add_argument("--require-kind", action="append", default=[],
                    metavar="KIND", help="fail unless a row of KIND exists "
                    "(any kind the schema declares); repeatable")
    ap.add_argument("--min-rows", type=int, default=1, metavar="N",
                    help="fail any file with fewer than N rows (default 1: "
                         "an empty artifact is a failure, not a pass)")
    ap.add_argument("--summary", action="store_true",
                    help="print per-kind row counts on success")
    ap.add_argument("--self-test", action="store_true",
                    help="run the checker's own regression cases and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not args.files or not args.schema:
        ap.error("need --schema FILE and input files (or pass --self-test)")
    try:
        with open(args.schema, "r", encoding="utf-8") as f:
            schema = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        ap.error(f"unreadable schema {args.schema}: {e}")

    errors = []
    kind_counts = {}
    total_rows = 0
    for path in args.files:
        try:
            with open(path, "r", encoding="utf-8") as f:
                lines = f.read().splitlines()
        except OSError as e:
            errors.append(f"{path}: unreadable: {e}")
            continue
        rows = 0
        for lineno, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as e:
                errors.append(f"{path}:{lineno}: invalid JSON: {e}")
                continue
            rows += 1
            check_row(schema, row, f"{path}:{lineno}", errors, kind_counts)
        if rows < args.min_rows:
            errors.append(f"{path}: only {rows} row(s), expected >= "
                          f"{args.min_rows} (an empty artifact is a failure)")
        total_rows += rows

    for kind in args.require_kind:
        if kind not in schema["kinds"]:
            errors.append(f"--require-kind '{kind}' is not a kind the schema "
                          f"declares ({', '.join(sorted(schema['kinds']))})")
        elif kind_counts.get(kind, 0) == 0:
            errors.append(f"required kind '{kind}' absent from all inputs "
                          f"(saw: {sorted(kind_counts) or 'nothing'})")

    for e in errors[:50]:
        print(f"check_bench_jsonl: {e}", file=sys.stderr)
    if len(errors) > 50:
        print(f"check_bench_jsonl: ... and {len(errors) - 50} more",
              file=sys.stderr)
    if errors:
        return 1
    if args.summary:
        counts = ", ".join(f"{k}={v}" for k, v in sorted(kind_counts.items()))
        print(f"check_bench_jsonl: OK — {total_rows} rows ({counts})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

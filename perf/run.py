#!/usr/bin/env python3
"""One-command benchmark of the popsmr map and its wire front end.

Builds perf/ (which pulls in the library from the parent directory), runs
each workload in its own popsmr_perf process, checks its outputs, and
prints every metric by name with its unit. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

  python3 perf/run.py                        # every workload, tracing off
  python3 perf/run.py --workload list-reads --seed 3 --seconds 24 --trace 0
  python3 perf/run.py --traced               # per-layer metrics + spans
  python3 perf/run.py --smoke                # every workload, short, both modes
  python3 perf/run.py --save runs.jsonl      # also append records for compare.py

Traced runs write perf/out/<workload>.layers.json and the Chrome trace
perf/out/<workload>.trace.json (open it in https://ui.perfetto.dev).
Exits non-zero, without a result line, when the build fails or
popsmr_perf's output does not match BENCHMARK.json; exits non-zero after
the result line when an output check failed.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
BUILD = PERF / "build"
OUT = PERF / "out"


def log(msg):
    print(f"perf/run.py: {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures once, then builds popsmr_perf; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"library sources not found under {ROOT}")
    # The compiler's temporary files stay inside the build tree.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(PERF), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "popsmr_perf",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, env=env)
    return BUILD / "popsmr_perf"


def run_workload(binary, workload, seed, seconds, trace, smoke):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(OUT)]
    if smoke:
        cmd.append("--smoke")
    # Generous for popsmr_perf's own set-up and teardown; a hang is killed.
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=60 + 4 * seconds)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: popsmr_perf exited {proc.returncode}")
    return json.loads(lines[-1])


def validate(result, declared, workload):
    """popsmr_perf must report exactly the declared metrics and units."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"{workload}: unexpected keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        raise RuntimeError(f"{workload}: metrics differ from BENCHMARK.json: "
                           f"missing {missing}, undeclared {extra}, "
                           f"unit mismatch {wrong}")
    if result["attempted"] < 1:
        raise RuntimeError(f"{workload}: no operation attempted")


def print_table(workload, trace, result):
    mode = "per-layer (traced)" if trace else "end-to-end"
    print(f"# {workload}: {mode}; correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    width = max(len(n) for n in result["metrics"])
    for name, m in sorted(result["metrics"].items()):
        print(f"  {name:<{width}}  {m['value']:>14.6g}  {m['unit']}")


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names,
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="timed seconds per workload run")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--traced", action="store_true", help="same as --trace 1")
    ap.add_argument("--smoke", action="store_true",
                    help="one round of 0.3-s windows, tracing off and on")
    ap.add_argument("--binary", help="use this popsmr_perf instead of building")
    ap.add_argument("--save", help="append one JSON record per run here")
    args = ap.parse_args()

    workloads = args.workload or names
    traces = [0, 1] if args.smoke else [1 if args.traced else args.trace]
    try:
        binary = Path(args.binary) if args.binary else build()
        OUT.mkdir(exist_ok=True)
        results = []
        for workload in workloads:
            for trace in traces:
                result = run_workload(binary, workload, args.seed, args.seconds,
                                    trace, args.smoke)
                declared = spec["per_layer" if trace else "end_to_end"]
                validate(result, declared, workload)
                print_table(workload, trace, result)
                if trace:
                    log(f"{workload}: spans in {OUT / (workload + '.trace.json')}")
                results.append((workload, trace, result))
    except (RuntimeError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError) as e:
        log(f"error: {e}")
        return 2

    if args.save:
        with open(args.save, "a") as f:
            for workload, trace, r in results:
                f.write(json.dumps({"workload": workload, "seed": args.seed,
                                    "seconds": args.seconds, "trace": trace,
                                    **r}) + "\n")
    if len(results) == 1:
        final = results[0][2]
    else:
        final = {"correct": all(r["correct"] for _, _, r in results),
                 "attempted": sum(r["attempted"] for _, _, r in results),
                 "failed": sum(r["failed"] for _, _, r in results),
                 "metrics": {f"{w}/{n}": m for w, t, r in results
                             for n, m in r["metrics"].items()}}
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] and final["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

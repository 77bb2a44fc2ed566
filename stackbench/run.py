#!/usr/bin/env python3
"""The stack benchmark's one command.

Run one workload (builds the benchmark from source first):
    python3 stackbench/run.py --workload serve_recurring --seed 1 --seconds 30 --trace 0
                              [--out FILE]

Other sub-commands:
    python3 stackbench/run.py sweep --workload W --seeds 1-10 [--seconds S] [--trace 0|1] --out FILE
    python3 stackbench/run.py compare BASE.jsonl [NEW.jsonl]
    python3 stackbench/run.py reference [--seed N]     # rewrites stackbench/reference.tsv
    python3 stackbench/run.py selftest

The last line of a run's standard output is the result object
{"correct", "attempted", "failed", "metrics"}; a `record:` line before it
holds the full result (every metric, stamp). A run whose output checks fail
exits non-zero without printing the result object.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "stackbench"
BINARY = BUILD / "stackbench"
REFERENCE = HERE / "reference.tsv"
RESULTS = ".bench_results"  # relative to the checkout root
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build type
# Metrics whose run-to-run spread is reported but not held to the bound:
# the acceptance rule for this benchmark compares only the median of setup_s
# between two sets (set-up is a few seconds of work outside the timed
# window), while every other end-to-end metric must also keep its spread
# within its bound.
SPREAD_NOT_GATED = {"setup_s"}


def build():
    """Configure (once) and build the benchmark; build output goes to stderr."""
    if not (BUILD / "Makefile").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                       stdout=sys.stderr, stderr=sys.stderr, check=True, cwd=ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "stackbench", "-j", jobs],
                   stdout=sys.stderr, stderr=sys.stderr, check=True, cwd=ROOT)


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(workload, seed, seconds, trace, out_path=None, echo=True):
    """Run one workload; returns (exit code, record dict or None)."""
    cmd = [str(BINARY), "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--commit", git_commit(),
           "--references", str(REFERENCE.relative_to(ROOT))]
    if trace:
        # Spans are kept in memory and written out when the run ends.
        (ROOT / RESULTS).mkdir(exist_ok=True)
        cmd += ["--spans", f"{RESULTS}/spans-{workload}-{seed}.csv"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
    record = None
    for line in proc.stdout.splitlines():
        if line.startswith("record: "):
            record = json.loads(line[len("record: "):])
    if proc.returncode == 0 and out_path and record is not None:
        with open(out_path, "a", encoding="utf-8") as f:
            f.write(json.dumps(record) + "\n")
    return proc.returncode, record


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def load_records(path):
    records = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return [r for r in records if r.get("trace") == 0 and r.get("correct")]


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(spec, base, new):
    """better / within / worse / unresolved for one metric, per the bound.

    Unresolved: the spread of either set exceeds the bound and the sets
    overlap. A metric in SPREAD_NOT_GATED is judged on its medians alone.
    """
    bound = spec["bound"]
    lower = spec["better"] == "lower"
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    spread = max((b3 - b1) / abs(bm) if bm else 0.0, (n3 - n1) / abs(nm) if nm else 0.0)
    worse_by = ((nm - bm) if lower else (bm - nm)) / abs(bm) if bm else 0.0
    all_better = (max(new) < min(base)) if lower else (min(new) > max(base))
    all_worse = (min(new) > max(base)) if lower else (max(new) < min(base))
    if (spread > bound and spec["name"] not in SPREAD_NOT_GATED
            and not (all_better or all_worse)):
        return "unresolved", worse_by, spread
    if worse_by > bound:
        return "worse", worse_by, spread
    # Better: every new run beats every base run, or the medians differ by
    # more than the base runs' own spread.
    base_iqr = (b3 - b1) / abs(bm) if bm else 0.0
    if all_better or -worse_by > base_iqr:
        return "better", worse_by, spread
    return "within", worse_by, spread


def compare(paths):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sets = [load_records(p) for p in paths]
    workloads = [w["name"] for w in spec["workloads"]]
    if len(sets) == 1:
        print("spread per workload x end-to-end metric (IQR/median; the bound allows "
              "spread <= bound, aim < bound/3)")
    ok = True
    for w in workloads:
        per_set = [[r for r in s if r["workload"] == w] for s in sets]
        if not all(per_set):
            continue
        print(f"== {w}  ({' vs '.join(str(len(s)) for s in per_set)} runs)")
        for m in spec["end_to_end"]:
            name = m["name"]
            vals = [[r["end_to_end"][name]["value"] for r in s] for s in per_set]
            qs = [quartiles(v) for v in vals]
            cols = "  ".join(f"median {q[1]:12.4f} [{q[0]:.4f}, {q[2]:.4f}]" for q in qs)
            if len(sets) == 1:
                spread = (qs[0][2] - qs[0][0]) / abs(qs[0][1]) if qs[0][1] else 0.0
                flag = "ok" if spread <= m["bound"] / 3 else (
                    "within bound" if spread <= m["bound"] else "TOO WIDE")
                if name in SPREAD_NOT_GATED:
                    flag += " (spread not gated)"
                else:
                    ok = ok and spread <= m["bound"]
                print(f"  {name:14s} {m['unit']:6s} {cols}  spread {spread:6.3f} "
                      f"(bound {m['bound']}) {flag}")
            else:
                v, worse_by, spread = verdict(m, vals[0], vals[1])
                ok = ok and v in ("better", "within")
                print(f"  {name:14s} {m['unit']:6s} {cols}  change {-worse_by:+.3f} "
                      f"spread {spread:.3f} bound {m['bound']}: {v}")
        details = sorted({k for s in per_set for r in s for k in r.get("detail", {})})
        for name in details:
            vals = [[r["detail"][name]["value"] for r in s if name in r.get("detail", {})]
                    for s in per_set]
            if not all(vals):
                continue
            unit = per_set[0][0]["detail"].get(name, {}).get("unit", "")
            cols = "  ".join(f"median {statistics.median(v):12.4f}" for v in vals)
            print(f"  {name:26s} {unit:6s} {cols}  (not gated)")
    return 0 if ok else 1


def main(argv):
    if argv and argv[0] in ("sweep", "compare", "reference", "selftest"):
        cmd, rest = argv[0], argv[1:]
    else:
        cmd, rest = "run", argv
    p = argparse.ArgumentParser(prog="run.py " + cmd)
    if cmd == "compare":
        p.add_argument("paths", nargs="+", help="result files (JSON lines from --out)")
        a = p.parse_args(rest)
        if len(a.paths) > 2:
            p.error("compare takes one or two result files")
        return compare(a.paths)
    if cmd in ("run", "sweep"):
        p.add_argument("--workload", required=True)
        p.add_argument("--seconds", type=float, default=30)
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
        p.add_argument("--out", help="append the full record to this JSON-lines file")
        if cmd == "run":
            p.add_argument("--seed", type=int, required=True)
        else:
            p.add_argument("--seeds", default="1-10")
    if cmd == "reference":
        p.add_argument("--seed", type=int, default=1)
    a = p.parse_args(rest)
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"stackbench: build failed: {e}", file=sys.stderr)
        return 1
    if cmd == "run":
        code, _ = run_once(a.workload, a.seed, a.seconds, a.trace, a.out)
        return code
    if cmd == "sweep":
        failures = 0
        for seed in parse_seeds(a.seeds):
            code, rec = run_once(a.workload, seed, a.seconds, a.trace, a.out, echo=False)
            failures += code != 0
            summary = "" if rec is None else "  ".join(
                f"{k}={v['value']:.4g}" for k, v in rec["end_to_end"].items())
            print(f"seed {seed}: exit {code}  {summary}", flush=True)
        return 1 if failures else 0
    if cmd == "reference":
        out = subprocess.run([str(BINARY), "reference", "--seed", str(a.seed)],
                             capture_output=True, text=True, check=True, cwd=ROOT).stdout
        REFERENCE.write_text(out, encoding="utf-8")
        sys.stdout.write(out)
        return 0
    proc = subprocess.run([str(BINARY), "selftest", "--references",
                           str(REFERENCE.relative_to(ROOT))], cwd=ROOT)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

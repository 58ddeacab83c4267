#!/usr/bin/env python3
"""Steadiness check for the slipsim benchmark.

Runs two sets of benchmark runs of the same build (each run with its own
seed) and reports, per workload and end-to-end metric, each set's median
and quartiles and whether the sets agree within BENCHMARK.json's bounds:

  * each set's spread -- (q3 - q1) / median, quartiles as
    statistics.quantiles(values, n=4) gives them -- is within the
    metric's bound (setup_s is exempt from this one);
  * the second set's median is not worse than the first's by more than
    the bound, in the metric's "better" direction;
  * the share of failed operations is exactly the same in both sets,
    and every run reported correct.

    python3 slipbench/steady.py [--runs 10] [--sets 2]
        [--workloads stencil,service] [--out runs.jsonl] [--load runs.jsonl]

Run from the repository root.  --out appends every run's result as a JSON
line; --load re-analyses saved lines instead of running.  With --sets 1
only the spreads are judged.  Exits 0 when every check passes.
"""

import argparse
import fractions
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def last_json_line(text):
    """The result object: the last non-empty stdout line, parsed."""
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def worsening(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`
    (negative when it is better)."""
    if better == "lower":
        return (second - first) / first
    return (first - second) / first


def failure_share(results):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return fractions.Fraction(failed, attempted) if attempted else None


def judge(sets, metrics):
    """Compare sets of results of one workload.

    `sets` is a list (one entry per set) of lists of result objects;
    `metrics` the end_to_end entries of BENCHMARK.json.  Returns
    (ok, report_lines).
    """
    ok = True
    lines = []
    for m in metrics:
        name, bound = m["name"], m["bound"]
        medians = []
        for k, results in enumerate(sets):
            vals = [r["metrics"][name]["value"] for r in results
                    if name in r.get("metrics", {})]
            if len(vals) < 2:
                lines.append("  %-16s set %d: %d values, need 2"
                             % (name, k + 1, len(vals)))
                ok = False
                medians.append(None)
                continue
            q1, q2, q3 = quartiles(vals)
            s = spread(vals)
            fine = name == "setup_s" or s <= bound
            ok &= fine
            medians.append(q2)
            lines.append(
                "  %-16s set %d: median %-12.6g q1 %-12.6g q3 %-12.6g "
                "spread %6.2f%% (bound %g%%, aim < %.2f%%) %s"
                % (name, k + 1, q2, q1, q3, 100 * s, 100 * bound,
                   100 * bound / 3, "ok" if fine else "TOO WIDE"))
        for k in range(1, len(sets)):
            if medians[0] is None or medians[k] is None:
                continue
            w = worsening(medians[0], medians[k], m["better"])
            fine = w <= bound
            ok &= fine
            lines.append("  %-16s set %d vs 1: %+.2f%% worse (bound %g%%) %s"
                         % (name, k + 1, 100 * w, 100 * bound,
                            "ok" if fine else "DISAGREE"))
    shares = [failure_share(results) for results in sets]
    if any(s != shares[0] for s in shares):
        ok = False
        lines.append("  failed share differs between sets: %s"
                     % ", ".join(str(s) for s in shares))
    bad = sum(1 for results in sets for r in results if not r["correct"])
    if bad:
        ok = False
        lines.append("  %d run(s) reported correct=false" % bad)
    return ok, lines


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d exited %d: %s" % (
            workload, seed, proc.returncode, proc.stderr[-2000:]))
    return last_json_line(proc.stdout)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--out", default="")
    ap.add_argument("--load", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = ([w for w in args.workloads.split(",") if w] or
             [w["name"] for w in bench["workloads"]])

    records = []
    if args.load:
        with open(args.load) as f:
            records = [json.loads(l) for l in f if l.strip()]
    else:
        out = open(args.out, "a") if args.out else None
        for k in range(args.sets):
            for w in names:
                for i in range(args.runs):
                    seed = args.seed_base + 1000 * k + i
                    res = run_once(bench, w, seed)
                    rec = {"set": k, "workload": w, "seed": seed,
                           "result": res}
                    records.append(rec)
                    print("set %d %-10s seed %-5d %s" % (
                        k + 1, w, seed, json.dumps(res["metrics"])),
                        flush=True)
                    if out:
                        out.write(json.dumps(rec) + "\n")
                        out.flush()
        if out:
            out.close()

    all_ok = True
    for w in names:
        nsets = max([r["set"] for r in records if r["workload"] == w] or
                    [-1]) + 1
        sets = [[r["result"] for r in records
                 if r["workload"] == w and r["set"] == k]
                for k in range(nsets)]
        if not sets:
            print("%s: no runs" % w)
            all_ok = False
            continue
        ok, lines = judge(sets, bench["end_to_end"])
        all_ok &= ok
        print("%s (%s): %s" % (w, " + ".join(str(len(s)) for s in sets),
                               "agree" if ok else "DO NOT AGREE"))
        print("\n".join(lines))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())

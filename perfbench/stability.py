#!/usr/bin/env python3
"""Interleaved stability runs of the wire-decision benchmark.

Runs `--sets` sets of `--rounds` rounds. Each round runs every workload of
run.py once, in order, each with a fresh seed, so the workloads share the
host's slow drift instead of each seeing a different stretch of it. For
every workload and every end-to-end metric a run prints (gated in
BENCHMARK.json or not) it reports, per set, the median and the quartiles
(as Python's statistics.quantiles(values, n=4) gives them) with the spread
(Q3 - Q1) / median, and for every later set its drift against the first:
how much worse its median is than the first set's, as a share of it
(one-sided, so a better later set counts as negative). Each run's
interference indicators (steal share, generator lateness, server
involuntary context switches) are kept next to its metrics.

    python3 perfbench/stability.py --sets 2 --rounds 10 --out sets.json

`--report sets.json` recomputes the summary from the runs of an earlier
invocation without running anything. The summary is printed as the
Markdown tables of perfbench/results/STABILITY.md.

Run from the repository root (as run.py is).
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

from run import WORKLOADS

END_TO_END = re.compile(r"^end-to-end:(.*)$", re.M)
INTERFERENCE = re.compile(r"interference: steal_share ([\d.]+), generator late "
                          r"p95 ([\d.]+) us, server involuntary cs per 1k "
                          r"decisions ([\d.]+)")
HIGHER_IS_BETTER = {"capacity_dps"}


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    match = INTERFERENCE.search(proc.stdout)
    # "name=value unit;" pairs of the end-to-end line.
    printed = END_TO_END.search(proc.stdout)
    metrics = {}
    for item in (printed.group(1).split(";") if printed else []):
        if "=" in item:
            name, value = item.strip().split("=", 1)
            metrics[name] = float(value.split()[0])
    return {
        "workload": workload, "seed": seed, "exit": proc.returncode,
        "correct": result.get("correct", False),
        "failed": result.get("failed"),
        "metrics": metrics,
        "interference": None if not match else {
            "steal_share": float(match.group(1)),
            "late_p95_us": float(match.group(2)),
            "server_ivcs_per_kdecision": float(match.group(3))},
    }


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def summarize(runs, sets):
    """Per workload and metric: each set's quartiles and its drift vs set 0."""
    summary = {}
    for w in WORKLOADS:
        mine = [x for x in runs if x["workload"] == w and x["correct"]]
        names = sorted({k for x in mine for k in x["metrics"]})
        out = {}
        for name in names:
            per_set = []
            for s in range(sets):
                vals = [x["metrics"][name] for x in mine
                        if x["set"] == s and name in x["metrics"]]
                per_set.append(quartiles(vals) if len(vals) >= 2 else None)
            if None in per_set:
                continue
            sign = -1.0 if name in HIGHER_IS_BETTER else 1.0
            first = per_set[0]["median"]
            for entry in per_set[1:]:
                entry["drift"] = sign * (entry["median"] - first) / first
            out[name] = per_set
        summary[w] = out
    return summary


def markdown(runs, summary, sets, bounds):
    lines = []
    worst = {}
    for w, metrics in summary.items():
        head = " | ".join(f"set {s} median [Q1, Q3] (spread)"
                          for s in range(sets))
        lines += ["", f"### `{w}`", "",
                  f"| metric | gate | {head} | worst drift vs set 0 |",
                  "|---" * (sets + 3) + "|"]
        for name, per_set in metrics.items():
            cells = [f"{e['median']:.4g} [{e['q1']:.4g}, {e['q3']:.4g}] "
                     f"({e['spread']:.3f})" for e in per_set]
            drift = max((e["drift"] for e in per_set[1:]), default=0.0)
            spread = max(e["spread"] for e in per_set)
            gate = bounds.get(name, "printed")
            lines.append(f"| `{name}` | {gate} | {' | '.join(cells)} | "
                         f"{drift:+.3f} |")
            s0, d0 = worst.get(name, (0.0, float("-inf")))
            worst[name] = (max(s0, spread), max(d0, drift))
    lines += ["", "### Largest spread and worst drift over the workloads", "",
              "| metric | gate | largest spread | largest worsening drift |",
              "|---|---|---|---|"]
    for name, (spread, drift) in worst.items():
        lines.append(f"| `{name}` | {bounds.get(name, 'printed')} | "
                     f"{spread:.3f} | {drift:+.3f} |")
    shown = ("decision_p50_us", "decision_p95_us", "capacity_dps",
             "cpu_us_per_decision")
    lines += ["", "### Every run, with its interference indicators", "",
              "| set | workload | seed | correct | steal share | generator "
              "late p95 (us) | server invol. cs / 1k decisions | "
              + " | ".join(f"`{m}`" for m in shown) + " |",
              "|---" * (7 + len(shown)) + "|"]
    for x in runs:
        i = x["interference"] or {}
        cells = [f"{x['metrics'].get(m, float('nan')):.4g}" for m in shown]
        lines.append(
            f"| {x['set']} | {x['workload']} | {x['seed']} | {x['correct']} | "
            f"{i.get('steal_share', float('nan')):.4f} | "
            f"{i.get('late_p95_us', float('nan')):.2f} | "
            f"{i.get('server_ivcs_per_kdecision', float('nan')):.3f} | "
            + " | ".join(cells) + " |")
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--report",
                        help="summarize the runs of an earlier --out file")
    args = parser.parse_args()
    if args.report:
        with open(args.report) as f:
            report = json.load(f)
        runs, sets = report["runs"], report["sets"]
    else:
        runs, sets = [], args.sets
        seed = args.first_seed
        for s in range(sets):
            for r in range(args.rounds):
                for w in WORKLOADS:
                    run = one_run(w, seed, args.seconds)
                    run.update({"set": s, "round": r})
                    runs.append(run)
                    seed += 1
                    print(json.dumps(run), flush=True)
        report = {"seconds": args.seconds, "sets": sets,
                  "rounds": args.rounds, "runs": runs}
    report["summary"] = summarize(runs, sets)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    with open(os.path.join(os.getcwd(), "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    failed = [x for x in runs if not x["correct"]]
    print(f"\n{len(runs)} runs, {len(failed)} not correct")
    print(markdown(runs, report["summary"], sets, bounds))


if __name__ == "__main__":
    main()

"""Run workloads over several seeds and report each end-to-end metric's
median and spread (distance between the quartiles, as a share of the
median), the measure the bounds in BENCHMARK.json are set against.  With
``--sets 2`` the same seeds run twice, and the report says by how much the
second set's median is worse than the first's, next to the metric's bound.

    python3 perfbench/spread.py --workload cheng --seeds 1-5
    python3 perfbench/spread.py --workload all --seeds 1-10 --sets 2 \\
        --save perfbench/results/baseline.json

Each run is a separate process: ``run.py --workload W --seed N``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

WORKLOADS = ("lattice", "thick", "cheng", "cli")


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(run.RUN_SECONDS),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=run.ROOT, check=True, capture_output=True,
                         text=True, timeout=600)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(runs):
    summary = {}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0,
                         "unit": runs[0]["metrics"][name]["unit"]}
    return summary


def declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m for m in json.load(fh)["end_to_end"]}


def worse_by(first, second, better):
    """How much worse the second median is than the first, as a share of
    the first (negative when it is better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--sets", type=int, default=1,
                    help="how many times to run the same seeds")
    ap.add_argument("--save", help="write every run and the summary here")
    args = ap.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    metrics = declared()
    saved = {"environment": run.environment(), "seeds": args.seeds,
             "seconds": run.RUN_SECONDS, "workloads": {}}
    for name in names:
        sets = []
        for k in range(args.sets):
            runs = []
            for seed in args.seeds:
                runs.append(one_run(name, seed, 0))
                print("  seed %d: %s" % (seed, ", ".join(
                    "%s %.4g" % (m, v["value"])
                    for m, v in runs[-1]["metrics"].items())), flush=True)
            summary = summarize(runs)
            sets.append({"runs": runs, "summary": summary})
            print("== %s, set %d, seeds %s" % (name, k + 1, args.seeds))
            for metric, s in summary.items():
                print("  %-12s median %12.6g %-5s spread %6.1f%%  bound %g"
                      % (metric, s["median"], s["unit"], 100 * s["spread"],
                         metrics[metric]["bound"]))
            print("  correct %s, failed %s of attempted %s" % (
                [r["correct"] for r in runs], [r["failed"] for r in runs],
                [r["attempted"] for r in runs]), flush=True)
        entry = {"sets": sets}
        if args.sets > 1:
            first, second = sets[0]["summary"], sets[-1]["summary"]
            entry["second_worse_by"] = {
                m: worse_by(first[m]["median"], second[m]["median"],
                            metrics[m]["better"]) for m in first}
            print("  last set against the first (share worse, bound):")
            for m, w in entry["second_worse_by"].items():
                print("  %-12s %+7.1f%%  %g" % (m, 100 * w,
                                                metrics[m]["bound"]))
        if args.save:
            entry["traced"] = one_run(name, args.seeds[0], 1)
        saved["workloads"][name] = entry
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(saved, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare two sets of saved benchmark results.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds lines appended by `perfbench/run.py --save FILE`. The two
sets must come from the same host and build configuration: SIMD tier,
kernel override, nproc, compiler, build type and metrics-compiled flag
must match in every stamp, or the comparison is refused (exit 2). It is
also refused when any run reports correct=false, or when the change's runs
of a workload fail more operations than the base's. For each workload and
end-to-end metric it prints both medians, the base's interquartile spread
as a share of its median, and whether the change is worse than the base by
more than the bound in BENCHMARK.json (exit 1 if any is).
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def host_key(record):
    return json.dumps(record["stamp"]["host"], sort_keys=True)


def failures(records):
    out = {}
    for rec in records:
        name = rec["stamp"]["workload"]
        out[name] = out.get(name, 0) + rec["result"]["failed"]
    return out


def refusal(base, change):
    """Why the two sets cannot be compared, or None."""
    hosts = {host_key(r) for r in base + change}
    if len(hosts) != 1:
        return ("results come from different hosts or builds:\n" +
                "\n".join("  " + h for h in sorted(hosts)))
    wrong = [r["stamp"] for r in base + change if not r["result"]["correct"]]
    if wrong:
        return "%d runs report correct=false, the first: %s" % (
            len(wrong), json.dumps(wrong[0]))
    fa, fb = failures(base), failures(change)
    more = sorted(w for w in fb if fb[w] > fa.get(w, 0))
    if more:
        return "the change fails more operations than the base on: " + \
            ", ".join("%s (%d vs %d)" % (w, fb[w], fa.get(w, 0)) for w in more)
    return None


def by_workload(records):
    out = {}
    for rec in records:
        if rec["stamp"]["trace"] != 0:
            continue
        per = out.setdefault(rec["stamp"]["workload"], {})
        for name, metric in rec["result"]["metrics"].items():
            per.setdefault(name, []).append(metric["value"])
    return out


def spread(values):
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else float("nan")


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(sys.argv[1]), load(sys.argv[2])
    why = refusal(base, change)
    if why is not None:
        print("refusing to compare: " + why, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    worse = False
    a, b = by_workload(base), by_workload(change)
    for workload in sorted(set(a) & set(b)):
        for name, m in spec.items():
            va, vb = a[workload].get(name, []), b[workload].get(name, [])
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            change_share = (mb - ma) / ma if ma else 0.0
            if m["better"] == "higher":
                change_share = -change_share
            flag = change_share > m["bound"]
            worse = worse or flag
            print("%-18s %-28s base %12.6g  change %12.6g  base spread %.3f"
                  "  %s" % (workload, name, ma, mb, spread(va),
                            "WORSE" if flag else "ok"))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())

"""Summarise benchmark runs of a parent commit and a change, side by side.

    python3 tools/bench_summary.py PARENT_DIR CHANGE_DIR OUT.json

Each directory holds the reports that ``perfbench/run.py`` writes to
``.bench_out/`` (``WORKLOAD-seedN-traceT.json``); only the untraced reports
(trace 0), which carry the end-to-end metrics, are read.  For every workload
and metric, ``OUT.json`` gives each side's median and quartiles, and, over
the seeds both sides ran, how many of those pairs the change won in the
direction ``BENCHMARK.json`` declares for the metric (ties win for neither).
It also records each side's seeds and ``build_id``, the failed ops, and
whether the outputs (digests, gaps) agreed seed by seed (``null`` when no
seed ran on both sides).  Workloads that ran on one side only are listed
under ``one_side_only``.
"""

import argparse
import glob
import json
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_side(directory):
    """``{workload: {seed: report}}`` of the untraced reports in ``directory``."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as fh:
            report = json.load(fh)
        prov = report["provenance"]
        runs.setdefault(prov["workload"], {})[prov["seed"]] = report
    if not runs:
        raise ValueError(f"no untraced benchmark reports in {directory}")
    return runs


def spread(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "n": len(values)}


def build_id(reports, label):
    ids = sorted({r["provenance"]["build_id"] for r in reports.values()})
    if len(ids) != 1:
        raise ValueError(f"{label} runs come from several builds: {ids}")
    return ids[0]


def summarise_workload(parent, change, better):
    sides = {"parent": parent, "change": change}
    paired = sorted(set(parent) & set(change))
    out = {label: {"seeds": sorted(runs), "build_id": build_id(runs, label),
                   "failed": sum(r["result"]["failed"] for r in runs.values()),
                   "attempted": sum(r["result"]["attempted"] for r in runs.values())}
           for label, runs in sides.items()}
    out["pairs"] = len(paired)
    out["outputs_identical"] = (all(parent[s]["outputs"] == change[s]["outputs"]
                                    for s in paired) if paired else None)
    metrics = {}
    names = sorted({m for runs in sides.values() for r in runs.values()
                    for m in r["result"]["metrics"]})
    for name in names:
        found = {label: [r["result"]["metrics"][name] for r in runs.values()
                         if name in r["result"]["metrics"]]
                 for label, runs in sides.items()}
        entry = {"unit": next(m["unit"] for ms in found.values() for m in ms),
                 "better": better.get(name)}
        for label, ms in found.items():
            entry[label] = spread([m["value"] for m in ms]) if ms else None
        if entry["better"] in ("lower", "higher"):
            sign = 1.0 if entry["better"] == "higher" else -1.0
            entry["change_wins"] = sum(
                sign * (change[s]["result"]["metrics"][name]["value"]
                        - parent[s]["result"]["metrics"][name]["value"]) > 0
                for s in paired)
        metrics[name] = entry
    out["metrics"] = metrics
    return out


def summarise(parent_dir, change_dir, benchmark_path=os.path.join(ROOT, "BENCHMARK.json")):
    with open(benchmark_path) as fh:
        declared = json.load(fh)
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    parent, change = load_side(parent_dir), load_side(change_dir)
    return {"workloads": {w: summarise_workload(parent[w], change[w], better)
                          for w in sorted(set(parent) & set(change))},
            "one_side_only": {"parent": sorted(set(parent) - set(change)),
                              "change": sorted(set(change) - set(parent))}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("output")
    args = parser.parse_args(argv)
    try:
        summary = summarise(args.parent_dir, args.change_dir)
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench_summary: {exc}", file=sys.stderr)
        return 2
    with open(args.output, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

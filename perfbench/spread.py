"""Run-to-run spread of the end-to-end metrics over a set of run records.

    python3 perfbench/spread.py                      # every perfbench/out/*_trace0.json
    python3 perfbench/spread.py RECORD.json ... [--json OUT.json]

For each workload and metric it prints the median over the runs, the
distance between the first and third quartile as a share of the median
(`statistics.quantiles(values, n=4)`), and max/min. Host-normalised figures
are shown next to their raw twins, so the record shows how much of the raw
spread the reference kernel removes.
"""
import argparse
import json
import statistics
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"n": len(values), "median": median, "iqr_share": (q3 - q1) / median,
            "max_over_min": max(values) / min(values)}


def summarise(records):
    by_workload = {}
    for rec in records:
        by_workload.setdefault(rec["workload"], []).append(rec)
    env = records[0]["environment"]
    host = {k: env[k] for k in ("cpu", "nproc", "python", "numpy", "blas", "git_revision",
                                "source_sha256")}
    summary = {}
    for workload, recs in sorted(by_workload.items()):
        rows = {}
        for name in recs[0]["end_to_end"]:
            rows[name] = spread([r["end_to_end"][name] for r in recs])
        for name in recs[0]["end_to_end_raw"]:
            rows[f"raw.{name}"] = spread([r["end_to_end_raw"][name] for r in recs])
        rows["host.ref_ms"] = spread([statistics.median(r["ref_ms"]) for r in recs])
        summary[workload] = {"seeds": sorted(r["seed"] for r in recs), "metrics": rows}
    return {"host": host, "workloads": summary}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("records", nargs="*", type=Path)
    parser.add_argument("--json", type=Path, help="also write the summary here")
    args = parser.parse_args(argv)
    paths = args.records or sorted((HERE / "out").glob("*_trace0.json"))
    records = [json.loads(p.read_text()) for p in paths]
    records = [r for r in records if not r["smoke"]]
    runs = Counter(r["workload"] for r in records)
    if not runs or min(runs.values()) < 2:
        sys.exit("error: need at least two non-smoke run records per workload")
    summary = summarise(records)
    for workload, entry in summary["workloads"].items():
        print(f"# {workload}  seeds {entry['seeds']}")
        for name, s in entry["metrics"].items():
            print(f"  {name:<18} median {s['median']:>12.4f}  IQR/median {s['iqr_share']:7.4f}"
                  f"  max/min {s['max_over_min']:6.3f}  (n={s['n']})")
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

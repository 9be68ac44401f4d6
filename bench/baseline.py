#!/usr/bin/env python3
"""Run the benchmark over several seeds and record or compare baselines.

    python3 bench/baseline.py --out bench/baseline.json
    python3 bench/baseline.py --compare bench/baseline.json

Each workload of BENCHMARK.json runs untraced once on each of the seeds
1-10 and traced once on seed 1.  For every end-to-end metric the record
holds the median and the quartiles (``statistics.quantiles(values, n=4)``)
and the spread, which is the distance between the quartiles as a share of
the median.  It also
holds the failed/attempted counts and output digest of every run, the
per-layer metrics of the traced run, and the machine, Python version and
git commit.  ``--compare`` checks a new set against a stored one: every
spread within its bound, no median worse by more than its
bound, identical digests and identical per-layer counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_UNITS = ("count", "bytes", "terms")
SEEDS = range(1, 11)


def run_once(workload, seed, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next(line.rsplit(" ", 1)[1] for line in lines if line.startswith("output_digest"))
    return {"seed": seed, "wall_s": time.perf_counter() - t0, "failed": result["failed"],
            "attempted": result["attempted"], "output_digest": digest,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def measure():
    out = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(run_once(workload, seed, 0))
            print(f"{workload} seed {seed}: {runs[-1]['metrics']} failed {runs[-1]['failed']}",
                  file=sys.stderr, flush=True)
        traced = run_once(workload, SEEDS[0], 1)
        out[workload] = {
            "runs": [{k: r[k] for k in ("seed", "failed", "attempted", "output_digest")}
                     for r in runs],
            "end_to_end": {m["name"]: summarize([r["metrics"][m["name"]] for r in runs])
                           for m in SPEC["end_to_end"]},
            "per_layer_seed": SEEDS[0],
            "per_layer": traced["metrics"],
        }
    return out


def compare(old, new):
    """Lines describing each check of new against old; False if any fails."""
    ok = True
    bounds = {m["name"]: (m["bound"], m["better"]) for m in SPEC["end_to_end"]}
    for workload, cur in new.items():
        ref = old.get(workload)
        for name, stats in cur["end_to_end"].items():
            bound, better = bounds[name]
            line = f"{workload} {name}: spread {stats['spread']:.4f} (bound {bound})"
            if stats["spread"] > bound:
                ok, line = False, line + " SPREAD TOO WIDE"
            if ref is not None:
                base = ref["end_to_end"][name]["median"]
                change = (stats["median"] - base) / base
                worse = change if better == "lower" else -change
                line += f"; median {stats['median']:.6g} vs {base:.6g} ({change:+.2%})"
                if worse > bound:
                    ok, line = False, line + " WORSE THAN BOUND"
            print(line)
        if ref is None:
            continue
        digests = [(r["seed"], r["output_digest"]) for r in cur["runs"]]
        if digests != [(r["seed"], r["output_digest"]) for r in ref["runs"]]:
            ok = False
            print(f"{workload}: output digests differ")
        if cur["per_layer_seed"] == ref["per_layer_seed"]:
            units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
            diff = [k for k, u in units.items() if u in COUNT_UNITS
                    and cur["per_layer"][k] != ref["per_layer"][k]]
            if diff:
                ok = False
            print(f"{workload}: per-layer counts {'differ: ' + ', '.join(diff) if diff else 'equal'}")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the record here")
    ap.add_argument("--compare", help="check against this stored record")
    args = ap.parse_args()

    results = measure()
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    record = {
        "machine": {"platform": platform.platform(), "processor": platform.machine(),
                    "cpus": os.cpu_count()},
        "python": sys.version.split()[0],
        "git_sha": sha,
        "run_seconds": SPEC["run_seconds"],
        "workloads": results,
    }
    ok = True
    if args.compare:
        ok = compare(json.loads(Path(args.compare).read_text())["workloads"], results)
    else:
        compare({}, results)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

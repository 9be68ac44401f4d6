#!/usr/bin/env python3
"""splitlie2 benchmark: time to verdict and checks per second.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  One process drives the program as a closed loop with
one client and no threads: each request is a ``splitlie2.cli.main`` call
(or one library call) on a file written before timing starts, and the
next request is issued only after the previous one returns.  The program
is single-threaded and has no queues, so requests never wait and no wait
time is reported.

A pass is the workload's whole request list.  Whole passes run until the
requests have taken ``--seconds``, so every run sees the same mix of
requests.
Each outcome is checked against the input's known answer
(``workloads.judge``); ``failed`` counts the requests that differ.

``--trace 0`` prints the end-to-end metrics (tracing off).  ``--trace 1``
first times one untraced pass, then traces whole passes and prints the
per-layer metrics per pass, with tracing overhead as traced minus
untraced wall time per pass.  Spans and the per-(function, caller) table
are written to ``bench/_work/<workload>/``.  The last line of stdout is
the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

SETUP_RUNS = 40
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import splitlie2.cli\n"
    "splitlie2.cli.build_parser()\n"
    "print(time.perf_counter() - t0)\n"
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _import_program():
    """Import splitlie2 from this checkout's src/ and nowhere else."""
    if not (SRC / "splitlie2" / "cli.py").is_file():
        raise SystemExit(f"bench: no program source at {SRC}/splitlie2")
    sys.path.insert(0, str(SRC))
    import splitlie2

    where = Path(splitlie2.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"bench: splitlie2 was imported from {where}, not {SRC}")


def setup_once() -> float:
    """import splitlie2.cli + build_parser() in a fresh interpreter, timed inside it."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def setup_times(n) -> list:
    """n set-ups, back to back."""
    return [setup_once() for _ in range(n)]


def generate_inputs(workload, seed, workdir):
    """Write the workload's files in a process of its own; returns its requests."""
    import workloads

    subprocess.run([sys.executable, str(BENCH / "workloads.py"), "--workload", workload,
                    "--seed", str(seed), "--out", str(workdir)],
                   cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=600, check=True)
    return workloads.load(workdir / "manifest.json")


def execute(req):
    """Run one request; returns (exit code, report text)."""
    from splitlie2 import cli, cochains, sfile

    if req.calculus is not None:
        path, count, seed = req.calculus
        with open(path, encoding="utf-8") as fh:
            structure = sfile.parse_structure_file(fh.read()).structure
        rep = cochains.verify_calculus_identities(structure, count, seed)
        return (0 if rep.passed else 1), json.dumps({"reports": [rep.to_dict()]})
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(req.argv)
    return code, buf.getvalue()


class Tally:
    """Outcomes of the requests of one run."""

    def __init__(self):
        self.times = []
        self.labels = []
        self.checks = 0
        self.attempted = 0
        self.failures = []
        self.report_bytes = 0
        self.input_bytes = 0
        self.digest = hashlib.sha256()

    def run_pass(self, requests, judge, tracer=None, with_digest=False):
        for req in requests:
            self.attempted += 1
            t0 = time.perf_counter()
            if tracer is None:
                code, text = execute(req)
            else:
                tracer.request_id = self.attempted
                command = req.label.split(" ", 1)[0]
                code, text = tracer.stage(f"request {command}", "request", execute, req)
            self.times.append(time.perf_counter() - t0)
            self.labels.append(req.label)
            self.report_bytes += len(text.encode())
            self.input_bytes += req.input_bytes
            try:
                body = json.loads(text)
            except json.JSONDecodeError:
                body = {}
            self.checks += sum(len(r.get("checks", [])) for r in body.get("reports", []))
            why = judge(req.expect, code, body)
            if why is not None:
                self.failures.append(f"{req.label}: {why}")
            if with_digest:
                body.pop("timestamp", None)
                self.digest.update(json.dumps(body, sort_keys=True).encode() + b"\n")

    def run_for(self, requests, judge, seconds, tracer=None):
        """Whole passes until the requests took `seconds`; returns (passes, wall).

        Only request time counts, so work between requests (output checks)
        does not change how many passes a run makes.
        """
        start = time.perf_counter()
        first = len(self.times)
        passes = 0
        while passes == 0 or sum(self.times[first:]) < seconds:
            self.run_pass(requests, judge, tracer, with_digest=passes == 0)
            passes += 1
        return passes, time.perf_counter() - start


def percentile_info(times, q):
    """Inclusive q-th percentile and the number of samples above it."""
    cut = statistics.quantiles(times, n=100, method="inclusive")[q - 1]
    return cut, sum(1 for t in times if t > cut)


def end_to_end(tally, setup_s):
    p90, beyond = percentile_info(tally.times, 90)
    metrics = {
        "checks_per_s": tally.checks / sum(tally.times),
        "verdict_s.p50": statistics.median(tally.times),
        "verdict_s.p90": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    print(f"verdict_s: {len(tally.times)} samples; {beyond} beyond p90")
    return metrics


def per_layer(tracer, passes, traced_wall, untraced_wall, tally):
    totals = tracer.group_totals()

    def calls(group):
        return totals.get(group, [0, 0.0])[0] / passes

    def self_s(group):
        return totals.get(group, [0, 0.0])[1] / passes

    def inclusive(group):
        return tracer.inclusive.get(group, 0.0) / passes

    mul_calls = totals.get("gradedpoly.mul", [0])[0]
    bracket_calls = totals.get("bracket.poisson_bracket", [0])[0]
    metrics = {
        "gradedpoly.mul.useful_ratio": tracer.mul_useful / mul_calls if mul_calls else 0.0,
        "gradedpoly.mul.peak_terms": tracer.mul_peak_terms,
        "bracket.poisson_bracket.term_pairs": tracer.bracket_term_pairs / passes,
        "bracket.poisson_bracket.nonzero_ratio":
            tracer.bracket_nonzero / bracket_calls if bracket_calls else 0.0,
        "sfile.bytes": tally.input_bytes / passes,
        "cli.report_bytes": tally.report_bytes / passes,
        "trace.overhead_s": traced_wall / passes - untraced_wall,
    }
    for group in ("gradedpoly.mul", "gradedpoly.add", "lwx.ops", "bracket.poisson_bracket",
                  "multivectors.salgebra", "linalg", "structures.ops"):
        metrics[f"{group}.calls"] = calls(group)
        metrics[f"{group}.self_s"] = self_s(group)
    for name in PER_LAYER_UNITS:
        if name.endswith(".s"):
            metrics[name] = inclusive(name[:-2])
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    requests = generate_inputs(args.workload, args.seed, workdir)
    # objects alive now (modules, the request list) live for the whole run;
    # keep the collector's full passes off them
    gc.collect()
    gc.freeze()
    print(f"workload {args.workload}, seed {args.seed}: {len(requests)} requests per pass; "
          "closed loop, 1 client, no threads; single-threaded program without queues, "
          "so no wait time")

    tally = Tally()
    if not args.trace:
        # half the set-ups before the first request and half after the last:
        # process start-up on a shared host has slow spells of a few seconds,
        # and two windows a run apart are less often both inside one
        setup = setup_times(SETUP_RUNS // 2)
        passes, wall = tally.run_for(requests, workloads.judge, args.seconds)
        setup += setup_times(SETUP_RUNS - SETUP_RUNS // 2)
        metrics = end_to_end(tally, statistics.median(setup))
        units = END_TO_END_UNITS
    else:
        from layers import Tracer

        untraced = Tally()
        _, untraced_wall = untraced.run_for(requests, workloads.judge, 0)
        tracer = Tracer()
        tracer.install()
        try:
            passes, wall = tally.run_for(requests, workloads.judge, args.seconds, tracer)
        finally:
            tracer.remove()
        metrics = per_layer(tracer, passes, wall, untraced_wall, tally)
        tally.attempted += untraced.attempted
        tally.failures += untraced.failures
        units = PER_LAYER_UNITS
        (workdir / "spans.json").write_text(json.dumps(tracer.span_dicts()))
        (workdir / "calls.json").write_text(json.dumps(tracer.table(), indent=1))
        print(f"trace: {len(tracer.spans)} spans, {len(tracer.calls)} (function, caller) "
              f"rows in {workdir.relative_to(ROOT)}; overhead "
              f"{metrics['trace.overhead_s']:.3f} s per pass over {untraced_wall:.3f} s untraced")
    (workdir / "times.json").write_text(json.dumps(list(zip(tally.labels, tally.times)), indent=1))
    print(f"{passes} passes in {wall:.3f} s; {tally.checks} checks; "
          f"failed_ratio {len(tally.failures) / tally.attempted:g} "
          f"({len(tally.failures)}/{tally.attempted})")
    print(f"output_digest {args.workload} seed {args.seed}: {tally.digest.hexdigest()}")
    for line in tally.failures[:20]:
        print(f"FAILED {line}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

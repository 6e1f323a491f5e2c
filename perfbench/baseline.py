#!/usr/bin/env python3
"""Runs the benchmark several times per workload and records a baseline.

Usage, from the repository root:

    python3 perfbench/baseline.py [--runs 10] [--seed-base 100]
        [--workloads suite-cold,serve-monte,verify-ckpt] [--out FILE]

Reads the command, run length, workloads and metric bounds from
BENCHMARK.json. For each workload it makes `--runs` untraced runs, each
with another seed, and one traced run, then prints every end-to-end
metric's median, quartiles and spread (interquartile range over median,
as `statistics.quantiles(values, n=4)` gives the quartiles) against the
metric's bound. With `--out` it writes the record as JSON: host context
(CPU count, the host-speed probe of every run), the quartiles, the
traced run's per-layer metrics and span table, and the modelled
metrics with their gap to the paper. Each workload also gets one short
run with `--inject-fault`, which must fail. Exits 1 if a run fails, an
injected fault goes uncaught, or a spread (other than setup_s) exceeds
its bound.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

PAPER_SPEEDUP_PCT = 8.96
PROBE = re.compile(r"probe ([0-9.]+) ms before / ([0-9.]+) ms after")


def run(bench, workload, seed, trace, inject_fault=False):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(1 if inject_fault else bench["run_seconds"]),
        "--trace", str(trace),
    ] + (["--inject-fault"] if inject_fault else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if inject_fault:
        # The checks must catch the planted restore fault: exit 1 and a
        # result that reports the failures.
        result = json.loads(lines[-1]) if lines else {}
        return proc.returncode == 1 and result.get("failed", 0) > 0, result
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    probe = [float(x) for x in PROBE.search(proc.stdout).groups()]
    record = [l for l in lines[:-1] if l.startswith("[perfbench]")]
    return result, probe, record


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=100)
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")

    out = {
        "cpus": os.cpu_count(),
        "runs_per_workload": args.runs,
        "run_seconds": bench["run_seconds"],
        "workloads": {},
    }
    ok = True
    for w in names:
        seeds = [args.seed_base + i for i in range(args.runs)]
        metrics, probes = {}, []
        for s in seeds:
            result, probe, _ = run(bench, w, s, 0)
            ok &= result["correct"]
            probes.append(probe)
            for name, m in result["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
            print(f"{w} seed {s}: wall_s {result['metrics']['wall_s']['value']:.4f}, "
                  f"probe {probe[0]:.1f}/{probe[1]:.1f} ms", flush=True)
        rows = {}
        for name, values in metrics.items():
            rows[name] = dict(unit=bounds[name]["unit"], **summary(values))
            spread, bound = rows[name]["spread"], bounds[name]["bound"]
            flag = "" if name == "setup_s" or spread <= bound else "  OVER BOUND"
            ok &= flag == ""
            print(f"  {name:<20} median {rows[name]['median']:<12.6g} "
                  f"q1 {rows[name]['q1']:<12.6g} q3 {rows[name]['q3']:<12.6g} "
                  f"spread {spread:.4f} (bound {bound}, third {bound / 3:.4f}){flag}")
        traced, _, record = run(bench, w, seeds[0], 1)
        ok &= traced["correct"]
        caught, faulty = run(bench, w, seeds[0], 0, inject_fault=True)
        ok &= caught
        print(f"  injected restore fault caught: {caught} "
              f"({faulty.get('failed')} of {faulty.get('attempted')} operations failed)")
        speedup = rows["sim_ipex_speedup"]["median"]
        out["workloads"][w] = {
            "seeds": seeds,
            "host_probe_ms": probes,
            "end_to_end": rows,
            "modelled": {
                "sim_ipc_median": rows["sim_ipc"]["median"],
                "ipex_speedup_pct_median": (speedup - 1) * 100,
                "gap_to_paper_pp": (speedup - 1) * 100 - PAPER_SPEEDUP_PCT,
            },
            "traced": {
                "seed": seeds[0],
                "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
                "record": record,
            },
            "injected_fault": {
                "caught": caught,
                "failed": faulty.get("failed"),
                "attempted": faulty.get("attempted"),
            },
        }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

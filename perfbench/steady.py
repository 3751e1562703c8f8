#!/usr/bin/env python3
"""Steadiness of the benchmark: run a workload over several seeds.

    python3 perfbench/steady.py --workload mc-bsc-n20 --runs 10 --first-seed 1

Runs ``run.py --trace 0`` once per seed, one run at a time, and prints
for every end-to-end metric the median, the quartiles and the quartile
spread as a share of the median (``statistics.quantiles(values, n=4)``),
next to the metric's bound in ``BENCHMARK.json``.  It also prints each
run's failed share and digest, and with --repeat reruns the first seed
and checks that the determinism digest is identical.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> tuple:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                         timeout=600)
    if res.returncode != 0:
        raise RuntimeError(f"seed {seed}: exit {res.returncode}\n{res.stderr}")
    lines = res.stdout.strip().splitlines()
    digest = next(line.split()[-1] for line in lines if line.startswith("# digest"))
    return json.loads(lines[-1]), digest


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--repeat", action="store_true",
                   help="rerun the first seed and compare digests")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    results, digests = [], []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out, digest = run_once(args.workload, seed, bench["run_seconds"])
        results.append(out)
        digests.append(digest)
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in out["metrics"].items())
        print(f"seed {seed}: correct={out['correct']} failed={out['failed']}/"
              f"{out['attempted']} digest={digest[:12]} {values}", flush=True)

    print(f"\n{args.workload}: {len(results)} runs")
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"  {name:40s} median {med:.6g} {unit:6s} q1 {q1:.6g} q3 {q3:.6g}"
              f" spread {spread:.4f}" + (f" bound {bound}" if bound else ""))
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"  failed shares: {sorted(shares)}")
    ok = all(r["correct"] for r in results)
    if args.repeat:
        _, again = run_once(args.workload, args.first_seed, bench["run_seconds"])
        same = again == digests[0]
        print(f"  rerun of seed {args.first_seed}: digest identical = {same}")
        ok = ok and same
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

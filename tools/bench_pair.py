#!/usr/bin/env python3
"""Paired before/after benchmark of a base commit against the working tree.

    python3 tools/bench_pair.py --pairs 10 --base HEAD --out BENCH.json
    python3 tools/bench_pair.py --pairs 4 --workload mc-bsc-n20 --out pair.json

Exports the committed files of --base into a temporary directory with
``git archive``, and copies the working tree's tracked and untracked,
not ignored, files into a second one, so both sides run from the same
kind of place.  Then runs ``perfbench/run.py --trace 0`` of each side
over seeds 1..--pairs on every workload of ``BENCHMARK.json`` (or on
those named by repeated --workload options), for the run length it
fixes.  Each seed is one pair: the base and the working
tree run back to back, one at a time, and the side that goes first
alternates from pair to pair.  The JSON written to --out holds, per
workload and end-to-end metric, both sides' runs, medians and quartiles
(``statistics.quantiles(values, n=4)``) and the pairs the working tree
wins (ties count for neither side).  A metric is marked ``resolved:
false`` when the base side's quartile spread (q3 - q1) over its median
exceeds the metric's bound: such runs cannot tell a regression of the
bound's size from noise.  Per workload, both sides'
determinism digests, correctness, failed shares and, per run, the
``FAILED check`` lines ``run.py`` wrote to stderr, which name the checks
behind an incorrect run (they are printed too); and the machine block
that ``run.py`` prints.  After the metric lines, one line per workload
says whether the digests are identical, and each side's correctness and
largest failed share.  ``change_snapshot`` records what the
working-tree copy held: its HEAD, file count and ``git status`` lines.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.rstrip("\n")


def export_commit(rev: str, dest: str) -> None:
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")


def snapshot_worktree(dest: str) -> dict:
    """Copy tracked and untracked, not ignored, files of the working tree."""
    listed = git("ls-files", "-z", "--cached", "--others",
                 "--exclude-standard").split("\0")
    files = sorted({f for f in listed
                    if f and os.path.isfile(os.path.join(ROOT, f))})
    for name in files:
        target = os.path.join(dest, name)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy2(os.path.join(ROOT, name), target)
    return {"head": git("rev-parse", "HEAD"), "files": len(files),
            "status": git("status", "--porcelain",
                          "--untracked-files=all").splitlines()}


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                         timeout=600)
    if res.returncode != 0:
        raise RuntimeError(f"{checkout} {workload} seed {seed}: exit "
                           f"{res.returncode}\n{res.stderr}")
    lines = res.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["failed_checks"] = [line for line in res.stderr.splitlines()
                            if line.startswith("FAILED check ")]
    for line in lines:
        if line.startswith("# machine "):
            out["machine"] = json.loads(line[len("# machine "):])
        elif line.startswith("# digest "):
            out["digest"] = line.split()[-1]
    return out


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 \
        else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "runs": values}


def workload_report(runs: dict, metrics: dict) -> dict:
    report = {"metrics": {}}
    for name, spec in metrics.items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in SIDES}
        sign = 1.0 if spec["better"] == "higher" else -1.0
        wins = sum(sign * (c - b) > 0
                   for b, c in zip(values["base"], values["change"]))
        sides = {side: summary(values[side]) for side in SIDES}
        base = sides["base"]
        spread = ((base["q3"] - base["q1"]) / abs(base["median"])
                  if base["median"] else math.inf)
        report["metrics"][name] = {
            "unit": spec["unit"], "better": spec["better"],
            "bound": spec.get("bound"), "pairs": len(values["base"]),
            "change_wins": wins, "base_spread": spread,
            "resolved": spec.get("bound") is None or spread <= spec["bound"],
            **sides,
        }
    for side in SIDES:
        report[side] = {
            "digests": [r["digest"] for r in runs[side]],
            "correct": all(r["correct"] for r in runs[side]),
            "failed_shares": [r["failed"] / r["attempted"] for r in runs[side]],
            "failed_checks": [r["failed_checks"] for r in runs[side]],
        }
    report["digests_identical"] = \
        report["base"]["digests"] == report["change"]["digests"]
    return report


def verdict_line(workload: str, report: dict) -> str:
    """One line per workload: digests, correctness and largest failed share."""
    sides = ", ".join(
        f"{side} correct: {str(report[side]['correct']).lower()} "
        f"largest failed share: {max(report[side]['failed_shares']):.6g}"
        for side in SIDES)
    return (f"{workload}: digests_identical: "
            f"{str(report['digests_identical']).lower()}; {sides}")


def parse_args(argv, known: list) -> argparse.Namespace:
    """The options; every --workload must name a workload in ``known``."""
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--pairs", type=int, default=10,
                   help="seeds 1..PAIRS, one base/change pair each")
    p.add_argument("--base", default="HEAD", help="commit to compare against")
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--workload", action="append", choices=known,
                   help="pair only this workload (repeatable; default: all)")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be positive")
    return args


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    known = [w["name"] for w in bench["workloads"]]
    args = parse_args(argv, known)
    workloads = [w for w in known if w in (args.workload or known)]
    base_rev = git("rev-parse", args.base)

    runs = {w: {side: [] for side in SIDES} for w in workloads}
    machines = []
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as base_dir, \
            tempfile.TemporaryDirectory(prefix="bench-pair-") as change_dir:
        export_commit(base_rev, base_dir)
        snapshot = snapshot_worktree(change_dir)
        checkouts = {"base": base_dir, "change": change_dir}
        for seed in range(1, args.pairs + 1):
            order = SIDES if seed % 2 else SIDES[::-1]
            for workload in workloads:
                for side in order:
                    out = run_once(checkouts[side], workload, seed,
                                   bench["run_seconds"])
                    runs[workload][side].append(out)
                    machines.append(out["machine"])
                    print(f"seed {seed} {workload} {side}: "
                          f"digest {out['digest'][:12]} " + " ".join(
                              f"{k}={v['value']:.6g}"
                              for k, v in out["metrics"].items()),
                          flush=True)
                    for line in out["failed_checks"]:
                        print(f"  {line}", flush=True)

    result = {
        "base": base_rev,
        "change": f"working tree on {snapshot['head']}",
        "change_snapshot": snapshot,
        "run_seconds": bench["run_seconds"],
        "seeds": list(range(1, args.pairs + 1)),
        "machine": machines[0],
        "machine_constant": all(m == machines[0] for m in machines),
        "workloads": {w: workload_report(runs[w], metrics) for w in workloads},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    for workload, rep in result["workloads"].items():
        for name, m in rep["metrics"].items():
            print(f"{workload} {name}: {m['base']['median']:.6g} -> "
                  f"{m['change']['median']:.6g} ({m['change_wins']}/"
                  f"{m['pairs']} pairs won), base spread "
                  f"{m['base_spread']:.3g} vs bound {m['bound']}, "
                  f"resolved: {str(m['resolved']).lower()}")
        print(verdict_line(workload, rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run one benchmark workload against the ``vlfjscc`` sources of this checkout.

    python3 perfbench/run.py --workload mc-bsc-n20 --seed 1 --seconds 22 --trace 0

Closed loop, one caller: one process runs whole rounds of the workload
back to back for --seconds, checks every round's outputs against the
independent oracles, and prints one JSON object as its last line.

--trace 0 reports the end-to-end metrics: ``setup_s`` (median of fresh
interpreters that import ``vlfjscc`` and build the workload's model,
config and codes, probed before, between and after the rounds), and
``ops_per_s`` and ``work_per_s`` (operations and work units over the
rounds' timed seconds).
--trace 1 spends the first half of the time untraced and the second half
with every traced entry point wrapped, and reports the per-layer metrics,
including the tracing overhead (traced round time over untraced).

Details, spans and the determinism digest of each run are written to
``.perfbench_out/`` at the checkout root.
"""

import os

# Pinned before numpy is imported here or in any child interpreter.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# Every run completes at least this many rounds; the digest covers them.
MIN_ROUNDS = 2
SETUP_PROBES = 3
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 60

# Per-layer self-time metrics and the span each one reads.
LAYER_TIMES = {
    "probability.channel_params_s": "probability.channel_params",
    "probability.pairwise_distortion_s": "probability.pairwise_distortion",
    "numerics.rate_distortion_s": "numerics.rate_distortion",
    "numerics.marton_exponent_s": "numerics.marton_exponent",
    "numerics.capacity_s": "numerics.capacity",
    "numerics.converse_delay_bound_s": "numerics.converse_delay_bound",
    "coding_scheme.source_encode_batch_s": "coding_scheme.source_encode_batch",
    "coding_scheme.control_decode_batch_s": "coding_scheme.control_decode_batch",
    "simulation.build_codes_s": "simulation.build_codes",
    "simulation.sample_pmf_batch_s": "simulation.sample_pmf_batch",
    "simulation.sample_channel_batch_s": "simulation.sample_channel_batch",
    "simulation.monte_carlo_self_s": "simulation.monte_carlo",
    "simulation.control_phase_exponent_s": "simulation.control_phase_exponent",
    "decoding.posterior_update_s": "decoding.posterior_update",
    "decoding.min_tail_mass_s": "decoding.min_tail_mass",
    "decoding.certify_map_optimality_s": "decoding.certify_map_optimality",
    "cli.main_self_s": "cli.main",
}
LAYER_COUNTS = (
    "probability.pairwise_distortion_cells", "numerics.rate_distortion_calls",
    "coding_scheme.source_words_encoded", "coding_scheme.control_blocks",
    "simulation.sample_pmf_batch_symbols", "simulation.channel_uses",
    "simulation.blocks", "simulation.sessions",
    "decoding.posterior_update_calls", "decoding.min_tail_mass_calls",
    "decoding.certified_outputs",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help="internal: set up once in this interpreter, print "
                        "'ready' and exit")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def probe_setup(args) -> float:
    """Fresh interpreter start until its set-up reports ready, in seconds."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=child_env(), cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err[-2000:]}")
    return ready - start


def import_times() -> tuple[float, float]:
    """Median cumulative import time of vlfjscc and scipy.stats, -X importtime.

    ``from scipy import stats`` goes through scipy's lazy loader, which
    logs the subpackage's modules but no line for ``scipy.stats`` itself;
    its time is the sum of the outermost ``scipy.stats.*`` lines.
    """
    pkg, stats = [], []
    for _ in range(IMPORT_PROBES):
        res = subprocess.run([sys.executable, "-X", "importtime", "-c",
                              "import vlfjscc"], capture_output=True, text=True,
                             env=child_env(), cwd=ROOT, timeout=PROBE_TIMEOUT_S)
        if res.returncode != 0:
            raise RuntimeError(f"import probe failed: {res.stderr[-2000:]}")
        lines = []
        for line in res.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, field = line[len("import time:"):].split("|")
                if cum.strip().isdigit():
                    depth = len(field) - len(field.lstrip())
                    lines.append((depth, field.strip(), int(cum) * 1e-6))
        pkg.append(next(c for d, n, c in lines if n == "vlfjscc"))
        sub = [(d, c) for d, n, c in lines
               if n == "scipy.stats" or n.startswith("scipy.stats.")]
        top = min((d for d, c in sub), default=0)
        stats.append(sum(c for d, c in sub if d == top))
    return statistics.median(pkg), statistics.median(stats)


def machine_info() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")}}


def run_rounds(wl, first: int, budget: float, tracer=None) -> list:
    """Whole rounds until the budget is spent, at least MIN_ROUNDS of them.

    A new round starts only while the time left exceeds half the previous
    round, so runs end as close to the budget as whole rounds allow.
    """
    results = []
    start = time.perf_counter()
    r = first
    while True:
        t0 = time.perf_counter()
        if tracer is None:
            results.append(wl.run_round(r))
        else:
            with tracer.root(f"round-{r}"):
                results.append(wl.run_round(r))
        r += 1
        last = time.perf_counter() - t0
        if (len(results) >= MIN_ROUNDS
                and time.perf_counter() - start + last / 2 >= budget):
            return results


def layer_metrics(tracer, traced_rounds: list, untraced_rounds: list) -> dict:
    """Per-layer values: the traced set-up, the mean traced round and the
    once-per-run operations."""
    selfs = tracer.self_times()
    counts = tracer.counts
    runs = [run for run in selfs if run.startswith("round-")]
    n = len(runs)

    def per_setup_and_round(table, key):
        rounds = sum(table[run].get(key, 0) for run in runs) / n
        return (table["setup"].get(key, 0) + rounds
                + table.get("once", {}).get(key, 0))

    out = {}
    for metric, span in LAYER_TIMES.items():
        out[metric] = (per_setup_and_round(selfs, span), "s")
    for key in LAYER_COUNTS:
        out[key] = (per_setup_and_round(counts, key), "count")
    encoded = per_setup_and_round(counts, "coding_scheme.source_words_encoded")
    covered = per_setup_and_round(counts, "coding_scheme.covered_words")
    out["coding_scheme.cover_ratio"] = (covered / encoded if encoded else 0.0,
                                        "ratio")
    sessions = per_setup_and_round(counts, "simulation.sessions")
    blocks = per_setup_and_round(counts, "simulation.blocks")
    out["simulation.accept_ratio"] = (sessions / blocks if blocks else 0.0,
                                      "ratio")
    out["simulation.peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    def timed(rounds):
        return statistics.mean(res.op_s + res.work_s for res in rounds)

    out["trace.overhead_pct"] = (
        100.0 * (timed(traced_rounds) / timed(untraced_rounds) - 1.0), "%")
    wall = sum(end - start for name, start, end, parent, run in tracer.spans
               if parent < 0)
    inside = sum(end - start for name, start, end, parent, run in tracer.spans
                 if parent >= 0 and tracer.spans[parent][3] < 0)
    out["trace.covered_pct"] = (100.0 * inside / wall, "%")
    pkg, stats = import_times()
    out["import.vlfjscc_s"] = (pkg, "s")
    out["import.scipy_stats_s"] = (stats, "s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vlfjscc", "__init__.py")):
        sys.stderr.write(f"no vlfjscc sources under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    import workloads
    wl = workloads.make(args.workload)

    if args.probe_setup:
        wl.setup(args.seed, OUT_DIR)
        print("ready", flush=True)
        return 0

    wl.setup(args.seed, OUT_DIR)
    import vlfjscc
    if os.path.dirname(os.path.abspath(vlfjscc.__file__)) != \
            os.path.join(SRC, "vlfjscc"):
        sys.stderr.write(f"vlfjscc imported from {vlfjscc.__file__}, not {SRC}\n")
        return 2
    wl.oracle_setup()

    tracer = None
    if args.trace:
        import spans
        untraced = run_rounds(wl, 0, args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            with tracer.root("setup"):
                wl.setup(args.seed, OUT_DIR)
            traced = run_rounds(wl, len(untraced), args.seconds / 2, tracer)
            with tracer.root("once"):
                once_items, once_record = wl.once()
        finally:
            tracer.uninstall()
        rounds = untraced + traced
    else:
        # The probes are spread over the run so that their median, like the
        # rates, samples the machine's speed across the whole run.
        setups, rounds = [], []
        for k in range(SETUP_PROBES):
            setups.append(probe_setup(args))
            if k < SETUP_PROBES - 1:
                rounds += run_rounds(wl, len(rounds),
                                     args.seconds / (SETUP_PROBES - 1))
        once_items, once_record = wl.once()
    final_items, final_record = wl.final_checks()
    final_items = once_items + final_items

    round_checks = [item for res in rounds for item in res.checks]
    checks = round_checks + final_items
    failed_checks = [item for item in checks if not item[1]]
    # A once-per-run check enters the counts only when it fails, so the
    # failed share of a correct run does not depend on how many rounds fit.
    failed_finals = [item for item in final_items if not item[1]]
    attempted = (sum(res.attempted for res in rounds) + len(round_checks)
                 + len(failed_finals))
    failed = sum(res.failed for res in rounds) + len(failed_checks)
    correct = all(name in workloads.KNOWN_FAULTS
                  for name, ok, detail in failed_checks)
    digest = hashlib.sha256(json.dumps(
        {"rounds": [res.record for res in rounds[:MIN_ROUNDS]],
         "once": once_record, "final": final_record},
        sort_keys=True).encode()).hexdigest()

    if args.trace:
        metrics = layer_metrics(tracer, traced, untraced)
        tracer.write(os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        # A round lost to SessionCapExceeded has no timing; it counts as
        # failed and contributes nothing to the rates.
        timed = [res for res in rounds if res.op_s > 0]
        op_s = sum(res.op_s for res in timed)
        work_s = sum(res.work_s for res in timed)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (sum(res.ops for res in timed) / op_s
                          if op_s else 0.0, "1/s"),
            "work_per_s": (sum(res.work for res in timed) / work_s
                           if work_s else 0.0, "1/s"),
        }

    for (name, detail), times in collections.Counter(
            (name, detail) for name, ok, detail in failed_checks).items():
        known = " (known fault)" if name in workloads.KNOWN_FAULTS else ""
        sys.stderr.write(f"FAILED check {name}{known}, {times}x: {detail}\n")
    machine = machine_info()
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "digest": digest,
        "rounds": len(rounds), "attempted": attempted, "failed": failed,
        "checks": [list(item) for item in checks],
        "round_times": [[res.op_s, res.work_s] for res in rounds],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print("# machine " + json.dumps(machine, sort_keys=True))
    print(f"# digest {digest}")
    print(f"# rounds {len(rounds)} attempted {attempted} failed {failed}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""``tools/bench_pair.py`` flags metrics its base runs cannot resolve.

A metric whose base quartile spread over its median exceeds its bound
is reported ``resolved: false``: the pairs cannot tell a regression of
the bound's size from noise.  Each workload's verdict line reports its
digests, correctness and failed shares.  ``--workload`` takes only the
names in ``BENCHMARK.json``.  The tool is loaded by path.
"""

import importlib.util
from pathlib import Path

import pytest

BENCH_PAIR = Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"


def load_bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", BENCH_PAIR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(value: float, setup: float) -> dict:
    return {"metrics": {"ops_per_s": {"value": value},
                        "setup_s": {"value": setup}},
            "digest": "d", "correct": True, "failed": 0, "attempted": 1,
            "failed_checks": []}


def test_metric_wider_than_its_bound_is_unresolved():
    bench_pair = load_bench_pair()
    metrics = {"ops_per_s": {"unit": "1/s", "better": "higher", "bound": 0.24},
               "setup_s": {"unit": "s", "better": "lower", "bound": 0.25}}
    # ops_per_s: quartiles 99.5 and 101.5 around 100, a 2% spread.
    # setup_s: quartiles 0.15 and 0.25 around 0.2, a 50% spread.
    base = [run(v, s) for v, s in zip((99, 100, 101, 102, 100),
                                      (0.1, 0.2, 0.3, 0.2, 0.2))]
    change = [run(v * 1.5, s) for v, s in zip((99, 100, 101, 102, 100),
                                              (0.1, 0.2, 0.3, 0.2, 0.2))]
    report = bench_pair.workload_report({"base": base, "change": change},
                                        metrics)["metrics"]
    assert report["ops_per_s"]["resolved"] is True
    assert report["ops_per_s"]["change_wins"] == 5
    assert report["setup_s"]["resolved"] is False
    assert report["setup_s"]["base_spread"] > 0.25


def test_verdict_line_reports_digests_correctness_and_failed_shares():
    bench_pair = load_bench_pair()
    metrics = {"ops_per_s": {"unit": "1/s", "better": "higher", "bound": 0.24}}
    base = [run(100, 0.2) for _ in range(3)]
    change = [run(100, 0.2) for _ in range(3)]
    base[1].update(failed=1, attempted=1028)
    change[2].update(correct=False, failed=3, attempted=12, digest="e")
    report = bench_pair.workload_report({"base": base, "change": change},
                                        metrics)
    assert report["digests_identical"] is False
    assert bench_pair.verdict_line("mc-bsc-n20", report) == (
        "mc-bsc-n20: digests_identical: false; "
        "base correct: true largest failed share: 0.000972763, "
        "change correct: false largest failed share: 0.25")
    same = bench_pair.workload_report({"base": base, "change": base}, metrics)
    assert bench_pair.verdict_line("w", same).startswith(
        "w: digests_identical: true; base correct: true ")


def test_workload_option_refuses_unknown_names(capsys):
    bench_pair = load_bench_pair()
    known = ["mc-bsc-n20", "mc-dmc-n16"]
    with pytest.raises(SystemExit) as exc:
        bench_pair.parse_args(["--out", "x.json", "--workload", "mc-bsc"],
                              known)
    assert exc.value.code == 2
    assert "invalid choice: 'mc-bsc'" in capsys.readouterr().err
    assert bench_pair.parse_args(["--out", "x.json"], known).workload is None
    args = bench_pair.parse_args(["--out", "x.json", "--workload",
                                  "mc-dmc-n16", "--workload", "mc-bsc-n20"],
                                 known)
    assert args.workload == ["mc-dmc-n16", "mc-bsc-n20"]

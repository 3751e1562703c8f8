"""End-to-end tests of the command-line front end.

All subcommands run in-process through main(), except two kinds of
check that need a fresh interpreter. One test runs `verify` through the
`vlfjscc` entry point of pyproject.toml's [project.scripts], the way the
generated console wrapper calls it, so it needs no install; where a
`vlfjscc` executable is on PATH it runs that too. The rejected-
configuration tests run `python -m vlfjscc` to see exactly what a user
sees on stderr. Expected numbers come from the closed-form oracles used
elsewhere in the suite.
"""

import math
import os
import shutil
import subprocess
import sys
from importlib.metadata import entry_points
from pathlib import Path

import numpy as np
import pytest

import vlfjscc
from vlfjscc import EstimateReport, SessionCapExceeded
from vlfjscc.cli import (
    CSV_HEADER,
    DEFAULT_CONFIG_TEXT,
    SIMULATE_COLUMNS,
    ConfigError,
    UsageError,
    _build_parser,
    _resolve,
    build_model,
    load_config,
    main,
    parse_config_text,
    serialize_config,
)

BSC02_B = 0.6 * math.log(4.0)


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def parse_kv(text: str) -> dict:
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


# ----------------------------------------------------------------------
# Config parsing
# ----------------------------------------------------------------------

def test_default_config_round_trip():
    cfg = parse_config_text(DEFAULT_CONFIG_TEXT)
    again = parse_config_text(serialize_config(cfg))
    assert again == cfg
    assert cfg.source == (0.5, 0.5)
    assert cfg.channel == ((0.9, 0.1), (0.1, 0.9))
    assert cfg.D == 0.2
    assert cfg.epsilon == 0.08
    assert cfg.N == 16
    assert cfg.trials == 10000


def test_round_trip_preserves_optional_fields():
    text = """\
[source]
pmf = [0.25, 0.75]
[channel]
matrix = [[0.8, 0.2], [0.1, 0.9]]
[distortion]
matrix = [[0.0, 2.0], [1.0, 0.0]]
D = 0.3
[run]
N_list = [4, 8, 12]
pd_target = 1e-06
trials = 77
seed = 3
"""
    cfg = parse_config_text(text)
    assert cfg.distortion == ((0.0, 2.0), (1.0, 0.0))
    assert cfg.N is None
    assert cfg.N_list == (4, 8, 12)
    assert cfg.pd_target == 1e-6
    assert parse_config_text(serialize_config(cfg)) == cfg


def test_missing_section_is_named():
    text = "[source]\npmf = [0.5, 0.5]\n[channel]\nmatrix = [[1.0, 0.0], [0.0, 1.0]]\n[distortion]\nD = 0.0\n"
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text)
    assert exc.value.section == "run"
    assert "missing" in str(exc.value)


def test_missing_required_key_is_named():
    text = "[source]\nx = 1\n[channel]\nmatrix = [[1.0]]\n[distortion]\nD = 0.0\n[run]\n"
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text)
    assert (exc.value.section, exc.value.key) == ("source", "pmf")


def test_unparseable_literal_is_named():
    text = "[source]\npmf = [0.5, oops]\n[channel]\nmatrix = [[1.0]]\n[distortion]\nD = 0.0\n[run]\n"
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config_text(text)


def test_ragged_matrix_rejected():
    text = "[source]\npmf = [0.5, 0.5]\n[channel]\nmatrix = [[0.9, 0.1], [0.2]]\n[distortion]\nD = 0.0\n[run]\n"
    with pytest.raises(ConfigError, match="equal length"):
        parse_config_text(text)


def test_scheme_defaults_without_section():
    text = "[source]\npmf = [0.5, 0.5]\n[channel]\nmatrix = [[0.9, 0.1], [0.1, 0.9]]\n[distortion]\nD = 0.2\n[run]\n"
    cfg = parse_config_text(text)
    assert cfg.epsilon == 0.05
    assert cfg.delta_ctrl == 0.3
    assert cfg.trials == 10000
    assert cfg.seed == 0
    assert cfg.N is None and cfg.N_list is None


def test_build_model_wraps_errors_with_location():
    cfg = parse_config_text(DEFAULT_CONFIG_TEXT)
    from dataclasses import replace
    with pytest.raises(ConfigError) as exc:
        build_model(replace(cfg, source=(0.5, -0.5)))
    assert (exc.value.section, exc.value.key) == ("source", "pmf")
    with pytest.raises(ConfigError) as exc:
        build_model(replace(cfg, channel=((0.0, 0.0), (0.5, 0.5))))
    assert (exc.value.section, exc.value.key) == ("channel", "matrix")
    # A dead output column: the channel's parameters are refused.
    with pytest.raises(ConfigError, match="lambda") as exc:
        build_model(replace(cfg, channel=((0.5, 0.5, 0.0), (0.5, 0.5, 0.0))))
    assert (exc.value.section, exc.value.key) == ("channel", "matrix")
    with pytest.raises(ConfigError) as exc:
        build_model(replace(cfg, distortion=((0.0, 1.0),)))
    assert (exc.value.section, exc.value.key) == ("distortion", "matrix")
    with pytest.raises(ConfigError) as exc:
        build_model(replace(cfg, D=-1.0))
    assert (exc.value.section, exc.value.key) == ("distortion", "D")


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="no-such-file"):
        load_config("/tmp/no-such-file.ini")


# ----------------------------------------------------------------------
# params
# ----------------------------------------------------------------------

def test_params_default_config(capsys):
    code, out, err = run_main(capsys, ["params"])
    assert code == 0 and err == ""
    kv = parse_kv(out)
    assert float(kv["B"]) == pytest.approx(0.8 * math.log(9.0), abs=1e-8)
    assert float(kv["lambda"]) == pytest.approx(0.1, abs=1e-12)
    assert float(kv["C"]) == pytest.approx(0.3680642071684971, abs=1e-8)
    assert kv["caid"] == "[0.5 0.5]"
    assert kv["control_pair"] in ("(0 1)", "(1 0)")
    assert float(kv["R_D"]) == pytest.approx(0.19274475744422329, abs=1e-8)
    assert float(kv["E_star"]) == pytest.approx(0.8372804446978177, abs=1e-8)
    # eps = 0.08 puts R+3eps above C: the canonical gamma is unavailable.
    assert kv["gamma"].startswith("unavailable")
    assert kv["marton_at_RD_plus_eps"] == "inf"


def test_params_custom_channel_via_config(tmp_path, capsys):
    text = DEFAULT_CONFIG_TEXT.replace("[[0.9, 0.1], [0.1, 0.9]]",
                                       "[[0.8, 0.2], [0.2, 0.8]]")
    path = write_config(tmp_path, text)
    code, out, err = run_main(capsys, ["params", "--config", path])
    assert code == 0
    kv = parse_kv(out)
    assert float(kv["B"]) == pytest.approx(BSC02_B, abs=1e-8)
    assert float(kv["lambda"]) == pytest.approx(0.2, abs=1e-12)


def test_params_gamma_available_with_small_epsilon(capsys):
    code, out, _ = run_main(capsys, ["params", "--epsilon", "0.01"])
    assert code == 0
    kv = parse_kv(out)
    oracle = (0.19274475744422329 + 0.03) / 0.3680642071684971
    assert float(kv["gamma"]) == pytest.approx(oracle, abs=1e-8)


def test_params_full_budget_note(tmp_path, capsys):
    text = DEFAULT_CONFIG_TEXT.replace("D = 0.2", "D = 1.0")
    path = write_config(tmp_path, text)
    code, out, _ = run_main(capsys, ["params", "--config", path])
    assert code == 0
    kv = parse_kv(out)
    assert float(kv["E_star"]) == pytest.approx(0.8 * math.log(9.0), abs=1e-8)
    assert kv["note"].startswith("D >= d_max")


def test_params_trivial_regime_note(tmp_path, capsys):
    text = DEFAULT_CONFIG_TEXT.replace("[[0.9, 0.1], [0.1, 0.9]]",
                                       "[[0.55, 0.45], [0.45, 0.55]]")
    text = text.replace("D = 0.2", "D = 0.01")
    path = write_config(tmp_path, text)
    code, out, _ = run_main(capsys, ["params", "--config", path])
    assert code == 0
    kv = parse_kv(out)
    assert kv["note"].startswith("trivial regime")
    assert float(kv["E_star"]) == 0.0
    assert kv["gamma"].startswith("unavailable")


def test_params_out_file(tmp_path, capsys):
    target = tmp_path / "params.txt"
    code, out, _ = run_main(capsys, ["params", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert "E_star = " in target.read_text(encoding="utf-8")


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

def test_simulate_csv_schema(capsys):
    code, out, err = run_main(
        capsys, ["simulate", "--N", "8", "--trials", "200", "--seed", "1"])
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == ",".join(SIMULATE_COLUMNS)
    assert len(lines) == 3
    fields = lines[2].split(",")
    assert len(fields) == len(SIMULATE_COLUMNS)
    assert fields[0] == "8"
    assert fields[2] == "200"
    assert float(fields[11]) == pytest.approx(0.8372804446978177, abs=1e-8)
    assert 0.0 <= float(fields[3]) <= 1.0


def test_simulate_byte_identical_reruns(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for target in (a, b):
        code, _, _ = run_main(
            capsys, ["simulate", "--N", "8", "--trials", "300",
                     "--seed", "7", "--out", str(target)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_seed_changes_output(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_main(capsys, ["simulate", "--N", "8", "--trials", "300",
                      "--seed", "7", "--out", str(a)])
    run_main(capsys, ["simulate", "--N", "8", "--trials", "300",
                      "--seed", "8", "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()


def test_simulate_requires_single_n(capsys):
    code, _, err = run_main(capsys, ["simulate", "--N-list", "8,12"])
    assert code == 1
    assert "usage error" in err
    code, _, err = run_main(capsys, ["simulate", "--trials", "0", "--N", "8"])
    assert code == 1
    assert "trials" in err


def test_simulate_session_cap_exit_code(capsys, monkeypatch):
    import vlfjscc.cli as cli

    def boom(*args, **kwargs):
        raise SessionCapExceeded(10_000, trial_index=17)

    monkeypatch.setattr(cli, "monte_carlo", boom)
    code, _, err = run_main(capsys, ["simulate", "--N", "8"])
    assert code == 3
    assert "session cap exceeded" in err
    assert "trial 17" in err


def test_simulate_invariant_failure_exit_code(capsys, monkeypatch):
    import vlfjscc.cli as cli

    doctored = EstimateReport(
        N=8, gamma=0.9, trials=10, pd_hat=0.5, pd_lo=0.2, pd_hi=0.8,
        etau_hat=16.0, etau_ci=0.1, prt_hat=0.0, pe_hat=0.0,
        exponent_hat=0.04, exponent_ci=0.01, exponent_is_lower_bound=False,
        block_counts=np.array([0, 10]))
    monkeypatch.setattr(cli, "monte_carlo", lambda *a, **k: doctored)
    code, out, err = run_main(capsys, ["simulate", "--N", "8"])
    assert code == 2
    assert "etau-renewal-identity" in err
    assert "pd-upper-bound" in err
    # The CSV is still emitted so the numbers can be inspected.
    assert out.startswith(CSV_HEADER)


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

def test_sweep_rows_and_theory_row(capsys):
    code, out, err = run_main(
        capsys, ["sweep", "--N-list", "8,12", "--trials", "100",
                 "--seed", "2"])
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == ",".join(SIMULATE_COLUMNS)
    assert len(lines) == 5
    first = lines[2].split(",")
    second = lines[3].split(",")
    theory = lines[4].split(",")
    assert first[0] == "8" and second[0] == "12"
    assert theory[0] == "0" and theory[2] == "0"
    assert theory[1] == "nan" and theory[3] == "nan"
    expected = pytest.approx(0.8372804446978177, abs=1e-8)
    assert float(theory[11]) == expected
    assert float(first[11]) == expected
    assert float(second[11]) == expected


def test_sweep_requires_n_list(capsys):
    code, _, err = run_main(capsys, ["sweep"])
    assert code == 1
    assert "usage error" in err and "N_list" in err


def test_length_override_alone_clears_the_other_length(tmp_path, capsys):
    base = parse_config_text(DEFAULT_CONFIG_TEXT)  # sets N = 16
    from dataclasses import replace
    listed = replace(base, N=None, N_list=(4, 8))
    parser = _build_parser()

    def resolved(cfg, *flags):
        cfg = _resolve(cfg, parser.parse_args(["params", *flags]))
        return cfg.N, cfg.N_list

    assert resolved(listed, "--N", "12") == (12, None)
    assert resolved(base, "--N-list", "4,8") == (None, (4, 8))
    assert resolved(base, "--N", "6", "--N-list", "4,8") == (6, (4, 8))
    assert resolved(listed) == (None, (4, 8))
    assert resolved(base) == (16, None)
    # End to end: --N over a config with N_list runs a single-N command.
    path = write_config(tmp_path, serialize_config(listed))
    code, out, err = run_main(capsys, ["converse", "--config", path, "--N",
                                       "200", "--pd-target", "1e-6"])
    assert code == 0 and err == ""
    assert parse_kv(out)["N"] == "200"
    # And --N-list over a config with N runs the sweep.
    path = write_config(tmp_path, serialize_config(base), name="single.ini")
    code, out, err = run_main(capsys, ["sweep", "--config", path,
                                       "--N-list", "4,8", "--trials", "20"])
    assert code == 0 and err == ""
    assert [row.split(",")[0] for row in out.splitlines()[2:]] == \
        ["4", "8", "0"]


# ----------------------------------------------------------------------
# converse
# ----------------------------------------------------------------------

def test_converse_golden_numbers(capsys):
    code, out, err = run_main(
        capsys, ["converse", "--N", "200", "--pd-target", "1e-6"])
    assert code == 0 and err == ""
    kv = parse_kv(out)
    assert kv["N"] == "200"
    assert float(kv["delta_N"]) == pytest.approx(0.723824137, abs=1e-6)
    assert float(kv["Etau_lower"]) == pytest.approx(34.15311548, abs=1e-6)
    # The exponent ceiling printed alongside the bound is E*(D) itself.
    assert float(kv["exponent_upper"]) == pytest.approx(0.8372804446978177,
                                                        abs=1e-6)


def test_converse_rejects_large_pd_target(capsys):
    code, _, err = run_main(
        capsys, ["converse", "--N", "200", "--pd-target", "0.01"])
    assert code == 1
    assert "converse bound unavailable" in err
    assert "lambda" in err


def test_converse_needs_pd_target(capsys):
    code, _, err = run_main(capsys, ["converse", "--N", "200"])
    assert code == 1
    assert "pd-target" in err


def test_converse_infinite_b_note(tmp_path, capsys):
    text = DEFAULT_CONFIG_TEXT.replace("[[0.9, 0.1], [0.1, 0.9]]",
                                       "[[1.0, 0.0], [0.0, 1.0]]")
    path = write_config(tmp_path, text)
    code, out, _ = run_main(
        capsys, ["converse", "--config", path, "--N", "100",
                 "--pd-target", "1e-9"])
    assert code == 0
    kv = parse_kv(out)
    assert kv["note"].startswith("B = inf")


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def test_verify_all_fixtures_pass(capsys):
    code, out, err = run_main(capsys, ["verify"])
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    expected_names = [
        "fixture-bsc02-N1-n2-D0",
        "fixture-bsc01-N2-n3-Dhalf",
        "fixture-noiseless-zero-excess",
        "negative-control-corrupted-decoder",
        "property-one-step-contraction",
        "property-stopping-chain",
    ]
    assert len(lines) == len(expected_names) + 1
    for line, name in zip(lines, expected_names):
        assert line.startswith("PASS " + name)
    assert lines[-1] == "verify: all checks passed"


# ----------------------------------------------------------------------
# control-exponent
# ----------------------------------------------------------------------

def test_control_exponent_output(capsys):
    code, out, err = run_main(
        capsys, ["control-exponent", "--m-list", "2,3,4",
                 "--trials", "2000", "--seed", "1"])
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].split(",")[0] == "m"
    assert len(lines[1].split(",")) == 9
    data = [line.split(",") for line in lines[2:5]]
    assert [row[0] for row in data] == ["2", "3", "4"]
    for row in data:
        assert row[4] in ("0", "1") and row[8] in ("0", "1")
    comments = lines[5:]
    assert comments[0].startswith("# slope_ec = ")
    assert comments[1].startswith("# slope_ce = ")
    assert comments[2].startswith("# B = ")
    assert float(comments[2].split(" = ")[1]) == pytest.approx(
        0.8 * math.log(9.0), abs=1e-8)


def test_control_exponent_bad_m_list_value(capsys):
    code, _, err = run_main(capsys, ["control-exponent", "--m-list", "4,x,8"])
    assert code == 1
    assert "usage error" in err


# ----------------------------------------------------------------------
# top-level plumbing
# ----------------------------------------------------------------------

def test_unknown_command_is_usage_error(capsys):
    code, _, err = run_main(capsys, ["bogus"])
    assert code == 1
    assert "usage error" in err


def test_missing_command_is_usage_error(capsys):
    code, _, err = run_main(capsys, [])
    assert code == 1
    assert "usage error" in err


def test_bad_config_path_is_config_error(capsys):
    code, _, err = run_main(capsys, ["params", "--config", "/tmp/nope.ini"])
    assert code == 1
    assert "config error" in err


def package_env() -> dict:
    """Environment whose PYTHONPATH puts this package's source first."""
    package_root = str(Path(vlfjscc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--N", "40"], "exceeds guard"),
    (["simulate", "--N", "3000"], "exceeds guard"),
    (["simulate", "--epsilon", "0.2"], "R(D) + 2*epsilon >= C"),
    (["simulate", "--delta-ctrl", "5"], "delta_ctrl must lie strictly"),
    (["sweep", "--N-list", "16,8"], "N_list must be ascending"),
    (["control-exponent", "--m-list", "50"], "at least three control"),
], ids=["message-guard", "message-guard-past-exp-overflow", "epsilon", "delta-ctrl", "descending-N-list",
        "short-m-list"])
def test_rejected_configuration_is_one_line_exit_1(argv, message):
    proc = subprocess.run([sys.executable, "-m", "vlfjscc", *argv],
                          env=package_env(), capture_output=True, text=True)
    assert proc.returncode == 1
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


@pytest.fixture
def rd_solves(monkeypatch):
    """Records every rate_distortion call, from any vlfjscc module."""
    calls = []
    original = vlfjscc.numerics.rate_distortion

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "vlfjscc" and \
                getattr(module, "rate_distortion", None) is original:
            monkeypatch.setattr(module, "rate_distortion", counted)
    return calls


@pytest.mark.parametrize("argv, solves", [
    (["simulate", "--trials", "200"], 1),
    (["sweep", "--N-list", "8,12,16", "--trials", "200"], 1),
    (["control-exponent", "--trials", "200"], 0),
], ids=["simulate", "sweep", "control-exponent"])
def test_main_solves_rate_distortion_at_most_once(capsys, rd_solves, argv,
                                                  solves):
    code, _, err = run_main(capsys, argv)
    assert code == 0 and err == ""
    assert len(rd_solves) == solves


def test_building_a_model_solves_nothing(rd_solves):
    model = build_model(load_config(None))
    assert rd_solves == []
    model.derive_config(16, 0.08, 0.3)
    model.derive_config(20, 0.08, 0.3)
    assert model.e_star > 0.0
    assert len(rd_solves) == 1


def console_script_target():
    """The ``module:attr`` target of ``vlfjscc`` in [project.scripts]."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: read the installed metadata
        found = entry_points(group="console_scripts", name="vlfjscc")
        assert found, "no installed vlfjscc console script to read on 3.10"
        return next(iter(found)).value
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["vlfjscc"]


def assert_verify_passes(proc):
    assert proc.returncode == 0, proc.stderr
    assert "verify: all checks passed" in proc.stdout


def test_console_script_runs_verify():
    # What a generated console wrapper does: load the entry point's
    # target and exit with its return value.
    wrapper = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"main = EntryPoint('vlfjscc', {console_script_target()!r},"
        " 'console_scripts').load()\n"
        "sys.exit(main())\n")
    assert_verify_passes(subprocess.run(
        [sys.executable, "-c", wrapper, "verify"], env=package_env(),
        capture_output=True, text=True))
    installed = shutil.which("vlfjscc")
    if installed is not None:
        assert_verify_passes(subprocess.run(
            [installed, "verify"], capture_output=True, text=True))

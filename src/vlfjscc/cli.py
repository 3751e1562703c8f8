"""Command-line front end: config ingestion, subcommands, CSV emission.

Subcommands:
  params            closed-form quantities of the configured system
  simulate          Monte Carlo protocol run at one block length N
  sweep             simulate across an N list, with the theory ceiling
  converse          expected-delay lower bound for a target excess prob
  verify            decoder-optimality certification and property suites
  control-exponent  crossover probabilities of the control phase vs m

Exit codes: 0 success, 1 usage or config problem (any configuration the
library rejects), 2 invariant failure, 3 session cap exceeded.
"""

from __future__ import annotations

import argparse
import ast
import configparser
import functools
import io
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .coding_scheme import derive_gamma
from .decoding import (
    EncoderMap,
    Posterior,
    certify_map_optimality,
    posterior_trajectory,
    posterior_update,
    stopping_threshold_time,
)
from .numerics import converse_delay_bound, marton_exponent
from .probability import ChannelMatrix, DistortionMatrix, Pmf, hamming_distortion
from .simulation import (
    RngSpec,
    SessionCapExceeded,
    SystemModel,
    control_phase_exponent,
    empirical_exponent_sweep,
    monte_carlo,
)

CSV_HEADER = "# vlf-jscc-lab v1"
SIMULATE_COLUMNS = ("N", "gamma", "trials", "pd_hat", "pd_lo", "pd_hi",
                    "etau_hat", "etau_ci", "prt_hat", "pe_hat",
                    "exponent_hat", "exponent_theory")

DEFAULT_CONFIG_TEXT = """\
[source]
pmf = [0.5, 0.5]

[channel]
matrix = [[0.9, 0.1], [0.1, 0.9]]

[distortion]
D = 0.2

[scheme]
epsilon = 0.08
delta_ctrl = 0.3

[run]
trials = 10000
seed = 0
N = 16
"""


class ConfigError(ValueError):
    """Configuration problem with the offending location named."""

    def __init__(self, section: str, key: str, message: str):
        super().__init__(f"[{section}] {key}: {message}")
        self.section = section
        self.key = key


class UsageError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description (plain immutable values)."""

    source: tuple
    channel: tuple
    distortion: tuple | None
    D: float
    N: int | None
    N_list: tuple | None
    epsilon: float
    delta_ctrl: float
    trials: int
    seed: int
    pd_target: float | None
    out: str | None


def _literal(parser: configparser.ConfigParser, section: str, key: str,
             caster, default=None, required=False):
    if not parser.has_option(section, key):
        if required:
            raise ConfigError(section, key, "required field is missing")
        return default
    raw = parser.get(section, key)
    try:
        value = ast.literal_eval(raw)
    except (ValueError, SyntaxError) as exc:
        raise ConfigError(section, key, f"cannot parse {raw!r}: {exc}") from exc
    try:
        return caster(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(section, key, str(exc)) from exc


def _as_vector(value) -> tuple:
    return tuple(float(x) for x in value)


def _as_matrix(value) -> tuple:
    rows = tuple(tuple(float(x) for x in row) for row in value)
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("matrix rows must be nonempty and equal length")
    return rows


def _as_int_list(value) -> tuple:
    return tuple(int(x) for x in value)


def parse_config_text(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("<file>", "<syntax>", str(exc)) from exc
    for section in ("source", "channel", "distortion", "run"):
        if not parser.has_section(section):
            raise ConfigError(section, "<section>", "section is missing")
    source = _literal(parser, "source", "pmf", _as_vector, required=True)
    channel = _literal(parser, "channel", "matrix", _as_matrix, required=True)
    dist = _literal(parser, "distortion", "matrix", _as_matrix, default=None)
    D = _literal(parser, "distortion", "D", float, required=True)
    epsilon = _literal(parser, "scheme", "epsilon", float, default=0.05)
    delta_ctrl = _literal(parser, "scheme", "delta_ctrl", float, default=0.3)
    N = _literal(parser, "run", "N", int, default=None)
    N_list = _literal(parser, "run", "N_list", _as_int_list, default=None)
    trials = _literal(parser, "run", "trials", int, default=10000)
    seed = _literal(parser, "run", "seed", int, default=0)
    pd_target = _literal(parser, "run", "pd_target", float, default=None)
    out = parser.get("run", "out", fallback=None)
    return ExperimentConfig(source=source, channel=channel, distortion=dist,
                            D=D, N=N, N_list=N_list, epsilon=epsilon,
                            delta_ctrl=delta_ctrl, trials=trials, seed=seed,
                            pd_target=pd_target, out=out)


def serialize_config(cfg: ExperimentConfig) -> str:
    buf = io.StringIO()
    buf.write("[source]\n")
    buf.write(f"pmf = {list(cfg.source)!r}\n\n")
    buf.write("[channel]\n")
    buf.write(f"matrix = {[list(r) for r in cfg.channel]!r}\n\n")
    buf.write("[distortion]\n")
    if cfg.distortion is not None:
        buf.write(f"matrix = {[list(r) for r in cfg.distortion]!r}\n")
    buf.write(f"D = {cfg.D!r}\n\n")
    buf.write("[scheme]\n")
    buf.write(f"epsilon = {cfg.epsilon!r}\n")
    buf.write(f"delta_ctrl = {cfg.delta_ctrl!r}\n\n")
    buf.write("[run]\n")
    if cfg.N is not None:
        buf.write(f"N = {cfg.N!r}\n")
    if cfg.N_list is not None:
        buf.write(f"N_list = {list(cfg.N_list)!r}\n")
    buf.write(f"trials = {cfg.trials!r}\n")
    buf.write(f"seed = {cfg.seed!r}\n")
    if cfg.pd_target is not None:
        buf.write(f"pd_target = {cfg.pd_target!r}\n")
    if cfg.out is not None:
        buf.write(f"out = {cfg.out}\n")
    return buf.getvalue()


def load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return parse_config_text(DEFAULT_CONFIG_TEXT)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError("<file>", path, str(exc)) from exc


def build_model(cfg: ExperimentConfig) -> SystemModel:
    try:
        P_V = Pmf(cfg.source)
    except ValueError as exc:
        raise ConfigError("source", "pmf", str(exc)) from exc
    try:
        W = ChannelMatrix(cfg.channel)
    except ValueError as exc:
        raise ConfigError("channel", "matrix", str(exc)) from exc
    try:
        if cfg.distortion is None:
            d = hamming_distortion(len(P_V))
        else:
            d = DistortionMatrix(cfg.distortion)
    except ValueError as exc:
        raise ConfigError("distortion", "matrix", str(exc)) from exc
    try:
        return SystemModel.build(P_V, W, d, cfg.D)
    except ValueError as exc:
        raise ConfigError("distortion", "D", str(exc)) from exc


# ----------------------------------------------------------------------
# Output helpers
# ----------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.9g" % float(value)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv(rows: list, columns: tuple) -> str:
    lines = [CSV_HEADER, ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def _report_row(report, theory: float) -> tuple:
    return (report.N, report.gamma, report.trials, report.pd_hat,
            report.pd_lo, report.pd_hi, report.etau_hat, report.etau_ci,
            report.prt_hat, report.pe_hat, report.exponent_hat, theory)


def _check_report_invariants(report) -> list[str]:
    failed = []
    if abs(report.etau_hat * (1.0 - report.prt_hat) - report.N) \
            > 1e-6 * report.N:
        failed.append("etau-renewal-identity")
    bound = report.pe_hat / (1.0 - report.prt_hat) \
        if report.prt_hat < 1.0 else math.inf
    if report.pd_hat > bound + 1e-9:
        failed.append("pd-upper-bound")
    return failed


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_params(cfg: ExperimentConfig) -> int:
    model = build_model(cfg)
    params, point = model.params, model.rd
    try:
        gamma = derive_gamma(point.R, cfg.epsilon, params.C)
        gamma_note = _fmt(gamma)
    except ValueError:
        gamma_note = "unavailable: the canonical split needs R(D) + 3*epsilon < C"
    marton = marton_exponent(model.P_V, point.R + cfg.epsilon, model.D,
                             d=model.d)
    lines = [
        ("B", _fmt(params.B)),
        ("lambda", _fmt(params.lam)),
        ("C", _fmt(params.C)),
        ("caid", "[" + " ".join(_fmt(p) for p in params.caid.probs) + "]"),
        ("control_pair", f"({params.x0} {params.x0_prime})"),
        ("R_D", _fmt(point.R)),
        ("gamma", gamma_note),
        ("marton_at_RD_plus_eps", _fmt(marton)),
        ("E_star", _fmt(model.e_star)),
    ]
    if point.R >= params.C:
        lines.append(("note", "trivial regime: R(D) >= C forces E_star = 0"))
    if model.D >= model.d.d_max:
        lines.append(("note", "D >= d_max: source term vanishes, E_star = B"))
    text = "\n".join(f"{k} = {v}" for k, v in lines) + "\n"
    _emit(text, cfg.out)
    return 0


def _single_N(cfg: ExperimentConfig) -> int:
    if cfg.N is None or cfg.N_list is not None:
        raise UsageError("this subcommand needs exactly one block length "
                         "(set N, not N_list)")
    return cfg.N


def cmd_simulate(cfg: ExperimentConfig) -> int:
    N = _single_N(cfg)
    model = build_model(cfg)
    scheme = model.derive_config(N, cfg.epsilon, cfg.delta_ctrl,
                                 master_seed=cfg.seed)
    report = monte_carlo(scheme, model, cfg.trials, RngSpec(cfg.seed))
    text = _csv([_report_row(report, model.e_star)], SIMULATE_COLUMNS)
    _emit(text, cfg.out)
    failed = _check_report_invariants(report)
    if failed:
        sys.stderr.write("invariant failure: " + ", ".join(failed) + "\n")
        return 2
    return 0


def cmd_sweep(cfg: ExperimentConfig) -> int:
    if cfg.N_list is None or cfg.N is not None:
        raise UsageError("sweep needs N_list (and no single N)")
    model = build_model(cfg)
    result = empirical_exponent_sweep(model, cfg.epsilon, cfg.delta_ctrl,
                                      cfg.N_list, cfg.trials,
                                      RngSpec(cfg.seed))
    rows = [_report_row(r.report, result.exponent_theory)
            for r in result.rows]
    nan = math.nan
    rows.append((0, nan, 0, nan, nan, nan, nan, nan, nan, nan, nan,
                 result.exponent_theory))
    text = _csv(rows, SIMULATE_COLUMNS)
    _emit(text, cfg.out)
    failed = []
    for r in result.rows:
        for name in _check_report_invariants(r.report):
            failed.append(f"N={r.N}: {name}")
    if failed:
        sys.stderr.write("invariant failure: " + ", ".join(failed) + "\n")
        return 2
    return 0


def cmd_converse(cfg: ExperimentConfig) -> int:
    N = _single_N(cfg)
    if cfg.pd_target is None:
        raise UsageError("converse needs --pd-target")
    model = build_model(cfg)
    try:
        bound = converse_delay_bound(model.P_V, model.W, model.d, model.D,
                                     cfg.pd_target, N)
    except ValueError as exc:
        sys.stderr.write(f"converse bound unavailable: {exc}\n")
        return 1
    lines = [
        ("N", _fmt(N)),
        ("pd_target", _fmt(cfg.pd_target)),
        ("delta_N", _fmt(bound.delta_N)),
        ("Etau_lower", _fmt(bound.Etau_lower)),
        ("exponent_upper", _fmt(bound.exponent_upper)),
    ]
    if math.isinf(model.params.B):
        lines.append(("note", "B = inf: channel terms vanish from the bound"))
    text = "\n".join(f"{k} = {v}" for k, v in lines) + "\n"
    _emit(text, cfg.out)
    return 0


def _verify_fixtures() -> list[tuple[str, bool, str]]:
    """Three bundled certification fixtures plus a corrupted-decoder
    negative control and the contraction/stopping property suites."""
    results = []
    hamming2 = hamming_distortion(2)
    uniform2 = Pmf([0.5, 0.5])

    bsc02 = ChannelMatrix([[0.8, 0.2], [0.2, 0.8]])
    enc1 = EncoderMap.letter_cycle(2, 1)
    rep = certify_map_optimality(uniform2, enc1, bsc02, hamming2, 0.0, 2)
    results.append(("fixture-bsc02-N1-n2-D0", rep.max_violation <= 1e-12,
                    f"max_violation={rep.max_violation:.3g}"))

    bsc01 = ChannelMatrix([[0.9, 0.1], [0.1, 0.9]])
    enc2 = EncoderMap.letter_cycle(2, 2)
    rep = certify_map_optimality(uniform2, enc2, bsc01, hamming2, 0.5, 3)
    results.append(("fixture-bsc01-N2-n3-Dhalf", rep.max_violation <= 1e-12,
                    f"max_violation={rep.max_violation:.3g}"))

    noiseless = ChannelMatrix([[1.0, 0.0], [0.0, 1.0]])
    rep = certify_map_optimality(uniform2, enc2, noiseless, hamming2, 0.0, 2)
    ok = rep.max_violation <= 1e-12 and rep.excess_probability == 0.0
    results.append(("fixture-noiseless-zero-excess", ok,
                    f"max_violation={rep.max_violation:.3g} "
                    f"excess={rep.excess_probability:.3g}"))

    def corrupted(post, d, D):
        return tuple([0] * post.length)

    rep = certify_map_optimality(uniform2, enc2, bsc01, hamming2, 0.0, 3,
                                 decoder=corrupted)
    detected = rep.max_violation > 1e-12 and rep.worst_output is not None
    detail = (f"violation={rep.max_violation:.3g} at y^n={rep.worst_output}"
              if detected else "corruption went undetected")
    results.append(("negative-control-corrupted-decoder", detected, detail))

    rng = np.random.default_rng(20240817)
    contraction_ok = True
    detail = "1000 updates"
    for i in range(1000):
        k = int(rng.integers(2, 4))
        mat = rng.random((k, k)) + 0.05
        W = ChannelMatrix(mat / mat.sum(axis=1, keepdims=True))
        lam = float(W.matrix.min())
        prior_w = rng.random(k ** 2) + 1e-3
        prior = Posterior(k, 2, prior_w / prior_w.sum())
        enc = EncoderMap.random_table(k, 2, k, rng)
        history = tuple(int(s) for s in rng.integers(0, k, size=2))
        y = int(rng.integers(0, k))
        post = posterior_update(prior, enc, len(history), history, y, W)
        if not np.all(post.weights >= lam * prior.weights - 1e-12):
            contraction_ok = False
            detail = f"violated at instance {i}"
            break
    results.append(("property-one-step-contraction", contraction_ok, detail))

    chain_ok = True
    detail = "200 trajectories"
    for i in range(200):
        k = 2
        mat = rng.random((k, k)) + 0.05
        W = ChannelMatrix(mat / mat.sum(axis=1, keepdims=True))
        pv = rng.random(k) + 0.1
        P_V = Pmf(pv / pv.sum())
        enc = EncoderMap.random_table(k, 2, k, rng)
        yn = [int(s) for s in rng.integers(0, k, size=6)]
        traj = posterior_trajectory(P_V, enc, yn, W)
        pd = float(rng.uniform(0.0, 0.5))
        delta = pd + float(rng.uniform(0.0, 0.5))
        t_pd = stopping_threshold_time(traj, hamming2, 0.0, pd)
        t_delta = stopping_threshold_time(traj, hamming2, 0.0, delta)
        if t_pd is not None and (t_delta is None or t_delta > t_pd):
            chain_ok = False
            detail = f"violated at trajectory {i}"
            break
    results.append(("property-stopping-chain", chain_ok, detail))
    return results


def cmd_verify(cfg: ExperimentConfig) -> int:
    results = _verify_fixtures()
    lines = []
    for name, ok, detail in results:
        lines.append(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")
    all_ok = all(ok for _, ok, _ in results)
    lines.append("verify: " + ("all checks passed" if all_ok
                               else "FAILURES detected"))
    _emit("\n".join(lines) + "\n", cfg.out)
    return 0 if all_ok else 2


def cmd_control_exponent(cfg: ExperimentConfig, m_list: tuple) -> int:
    model = build_model(cfg)
    result = control_phase_exponent(model, m_list, cfg.trials,
                                    cfg.delta_ctrl, RngSpec(cfg.seed))
    columns = ("m", "p_ec_hat", "p_ec_lo", "p_ec_hi", "p_ec_flagged",
               "p_ce_hat", "p_ce_lo", "p_ce_hi", "p_ce_flagged")
    rows = [(pt.m, pt.p_ec_hat, pt.p_ec_lo, pt.p_ec_hi, pt.p_ec_flagged,
             pt.p_ce_hat, pt.p_ce_lo, pt.p_ce_hi, pt.p_ce_flagged)
            for pt in result.points]
    text = _csv(rows, columns)
    slope_ec = "none" if result.slope_ec is None else _fmt(result.slope_ec)
    slope_ce = "none" if result.slope_ce is None else _fmt(result.slope_ce)
    text += (f"# slope_ec = {slope_ec}\n"
             f"# slope_ce = {slope_ce}\n"
             f"# B = {_fmt(result.B)}\n")
    _emit(text, cfg.out)
    return 0


# ----------------------------------------------------------------------
# Argument plumbing
# ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_list(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(",") if part)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The argument parser, built once per process; every parse is fresh."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH")
    common.add_argument("--trials", type=int)
    common.add_argument("--seed", type=int)
    common.add_argument("--out", metavar="PATH")
    common.add_argument("--N", type=int, dest="N")
    common.add_argument("--N-list", type=_int_list, dest="N_list",
                        metavar="A,B,C")
    common.add_argument("--pd-target", type=float, dest="pd_target")
    common.add_argument("--epsilon", type=float)
    common.add_argument("--delta-ctrl", type=float, dest="delta_ctrl")
    parser = _Parser(prog="vlfjscc",
                     description="Two-phase feedback coding lab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("params", "simulate", "sweep", "converse", "verify"):
        sub.add_parser(name, parents=[common])
    ctrl = sub.add_parser("control-exponent", parents=[common])
    ctrl.add_argument("--m-list", type=_int_list, dest="m_list",
                      metavar="A,B,C", default=(50, 100, 200))
    return parser


def _resolve(cfg: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    for name in ("trials", "seed", "N", "N_list", "pd_target", "epsilon",
                 "delta_ctrl", "out"):
        value = getattr(args, name, None)
        if value is not None:
            updates[name] = value
    # An override of N or N_list alone clears the other.
    if ("N" in updates) != ("N_list" in updates):
        cfg = replace(cfg, N=None, N_list=None)
    return replace(cfg, **updates)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config)
        cfg = _resolve(cfg, args)
        if args.command == "params":
            return cmd_params(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "converse":
            return cmd_converse(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "control-exponent":
            return cmd_control_exponent(cfg, args.m_list)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except SessionCapExceeded as exc:
        sys.stderr.write(f"session cap exceeded: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())

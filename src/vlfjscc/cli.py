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
import math
import sys
from dataclasses import dataclass, field, fields, replace

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


# Marks an INI key that has no default: a config must set it.
_REQUIRED = object()


def _as_vector(value) -> tuple:
    return tuple(float(x) for x in value)


def _as_matrix(value) -> tuple:
    rows = tuple(tuple(float(x) for x in row) for row in value)
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("matrix rows must be nonempty and equal length")
    return rows


def _as_int_list(value) -> tuple:
    return tuple(int(x) for x in value)


def _int_list(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(",") if part)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _ini(section: str, key: str, caster, default=_REQUIRED, flag=None):
    """A config field read from ``[section] key``.

    ``caster`` maps the key's Python literal to the field's value; None
    keeps the raw text.  ``flag`` holds the ``add_argument`` keywords of
    the field's command-line override, ``--`` plus the field name with
    ``-`` for ``_``; None means it has none.
    """
    return field(metadata={"section": section, "key": key, "caster": caster,
                           "default": default, "flag": flag})


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description (plain immutable values).

    Each field states its INI key, in file order; parsing, serialising
    and flag overrides all read them from here.
    """

    source: tuple = _ini("source", "pmf", _as_vector)
    channel: tuple = _ini("channel", "matrix", _as_matrix)
    distortion: tuple | None = _ini("distortion", "matrix", _as_matrix, None)
    D: float = _ini("distortion", "D", float)
    epsilon: float = _ini("scheme", "epsilon", float, 0.05, {"type": float})
    delta_ctrl: float = _ini("scheme", "delta_ctrl", float, 0.3,
                             {"type": float})
    N: int | None = _ini("run", "N", int, None, {"type": int})
    N_list: tuple | None = _ini("run", "N_list", _as_int_list, None,
                                {"type": _int_list, "metavar": "A,B,C"})
    trials: int = _ini("run", "trials", int, 10000, {"type": int})
    seed: int = _ini("run", "seed", int, 0, {"type": int})
    pd_target: float | None = _ini("run", "pd_target", float, None,
                                   {"type": float})
    out: str | None = _ini("run", "out", None, None, {"metavar": "PATH"})


_FIELDS = {f.name: f.metadata for f in fields(ExperimentConfig)}


def _read(parser: configparser.ConfigParser, meta) -> object:
    section, key = meta["section"], meta["key"]
    if not parser.has_option(section, key):
        if meta["default"] is _REQUIRED:
            raise ConfigError(section, key, "required field is missing")
        return meta["default"]
    raw = parser.get(section, key)
    if meta["caster"] is None:
        return raw
    try:
        value = ast.literal_eval(raw)
    except (ValueError, SyntaxError) as exc:
        raise ConfigError(section, key, f"cannot parse {raw!r}: {exc}") from exc
    try:
        return meta["caster"](value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(section, key, str(exc)) from exc


def parse_config_text(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("<file>", "<syntax>", str(exc)) from exc
    for section in ("source", "channel", "distortion", "run"):
        if not parser.has_section(section):
            raise ConfigError(section, "<section>", "section is missing")
    return ExperimentConfig(**{name: _read(parser, meta)
                               for name, meta in _FIELDS.items()})


def _plain(value):
    """A field value as it is written: tuples as lists."""
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


def serialize_config(cfg: ExperimentConfig) -> str:
    sections: dict = {}
    for name, meta in _FIELDS.items():
        lines = sections.setdefault(meta["section"], [])
        value = getattr(cfg, name)
        if value is not None:
            text = value if meta["caster"] is None else repr(_plain(value))
            lines.append(f"{meta['key']} = {text}\n")
    return "\n".join(f"[{section}]\n" + "".join(lines)
                     for section, lines in sections.items())


def load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return parse_config_text(DEFAULT_CONFIG_TEXT)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError("<file>", path, str(exc)) from exc


def _located(name: str, build, *args):
    """build(*args); a ValueError is reported at the INI key of field name."""
    try:
        return build(*args)
    except ValueError as exc:
        meta = _FIELDS[name]
        raise ConfigError(meta["section"], meta["key"], str(exc)) from exc


def build_model(cfg: ExperimentConfig) -> SystemModel:
    """The model of a config, with its channel parameters solved, so that
    every rejected value is reported at its INI key."""
    P_V = _located("source", Pmf, cfg.source)
    W = _located("channel", ChannelMatrix, cfg.channel)
    d = (hamming_distortion(len(P_V)) if cfg.distortion is None
         else _located("distortion", DistortionMatrix, cfg.distortion))
    model = _located("D", SystemModel.build, P_V, W, d, cfg.D)
    _located("channel", getattr, model, "params")
    return model


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

def cmd_params(cfg: ExperimentConfig, args) -> int:
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


def cmd_simulate(cfg: ExperimentConfig, args) -> int:
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


def cmd_sweep(cfg: ExperimentConfig, args) -> int:
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


def cmd_converse(cfg: ExperimentConfig, args) -> int:
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


def cmd_verify(cfg: ExperimentConfig, args) -> int:
    results = _verify_fixtures()
    lines = []
    for name, ok, detail in results:
        lines.append(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")
    all_ok = all(ok for _, ok, _ in results)
    lines.append("verify: " + ("all checks passed" if all_ok
                               else "FAILURES detected"))
    _emit("\n".join(lines) + "\n", cfg.out)
    return 0 if all_ok else 2


def cmd_control_exponent(cfg: ExperimentConfig, args) -> int:
    model = build_model(cfg)
    result = control_phase_exponent(model, args.m_list, cfg.trials,
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


# Every subcommand: its handler, called as handler(cfg, args), and the
# add_argument keywords of the flags only it takes.
COMMANDS = {
    "params": (cmd_params, {}),
    "simulate": (cmd_simulate, {}),
    "sweep": (cmd_sweep, {}),
    "converse": (cmd_converse, {}),
    "verify": (cmd_verify, {}),
    "control-exponent": (cmd_control_exponent,
                         {"--m-list": {"type": _int_list, "metavar": "A,B,C",
                                       "default": (50, 100, 200)}}),
}


@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The argument parser, built once per process; every parse is fresh."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH")
    for name, meta in _FIELDS.items():
        if meta["flag"] is not None:
            common.add_argument("--" + name.replace("_", "-"),
                                **meta["flag"])
    parser = _Parser(prog="vlfjscc",
                     description="Two-phase feedback coding lab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, own) in COMMANDS.items():
        command = sub.add_parser(name, parents=[common])
        for flag, keywords in own.items():
            command.add_argument(flag, **keywords)
    return parser


def _resolve(cfg: ExperimentConfig, args) -> ExperimentConfig:
    updates = {name: value for name in _FIELDS
               if (value := getattr(args, name, None)) is not None}
    # An override of N or N_list alone clears the other.
    if ("N" in updates) != ("N_list" in updates):
        cfg = replace(cfg, N=None, N_list=None)
    return replace(cfg, **updates)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _resolve(load_config(args.config), args)
        handler, _ = COMMANDS[args.command]
        return handler(cfg, args)
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

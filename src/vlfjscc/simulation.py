"""Seeded Monte Carlo execution of full feedback sessions.

A session repeats two-phase blocks (message phase, then a one-bit
ACK/NACK control phase) until the decoder accepts.  This module runs
sessions at scale, estimates the excess-distortion probability, the
expected stopping time, and per-block retransmission statistics, and
fits empirical exponents with confidence intervals.

Two engines share one law and one session loop, ``_sessions``: the send
rule, the control phase, the stop rule and the excess verdict
d(v, vhat) > D (``probability``'s rule, which the codes obey too) are
written once, and the engines differ only in the message decision.
``run_session`` is the readable reference: it draws an explicit M x L
codebook every block and ML-decodes it.  ``monte_carlo`` draws each
block's ML decision in law at a cost that does not grow with M, for
every DMC: it draws only the true codeword and its channel output y.
Given y, the M - 1 competitor scores are i.i.d. with a finite-support
law that depends on y only through its output type; the kernel builds
that law once per type and call (exact tie-preserving sums), draws the
best competitor score from F**(M-1), and the first competitor attaining
it from a truncated geometric, so exact ties still go to the lowest index.

Given its source word, a session's blocks are i.i.d. (each draws a fresh
channel code, fresh noise and fresh control letters), so its block count
is a geometric draw and ``_sessions`` draws it in few wide steps: a live
session that has run b blocks runs up to b more in one step, and stops at
the first of them heard c.  This keeps the law of (tau, end distortion)
of one block per step, not its values.

Estimator conventions: prt_hat and pe_hat are pooled per-block
frequencies over every transmitted block (retransmission rounds
included).  They follow from tau and excess: a session hears e on every
block but its last, the only one heard c.  With that reading,
etau_hat*(1 - prt_hat) = N and pd_hat = pe_hat/(1 - prt_hat) hold as
in-sample identities, not merely asymptotically.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coding_scheme import (
    ControlCode,
    SchemeConfig,
    SourceCodebook,
    _source_word,
    _tie_exact_log,
    build_channel_codebook,
    build_control_code,
    build_source_code,
    control_accepts,
    control_decode_batch,
    ml_channel_decode,
    source_encode_batch,
)
from .numerics import RdPoint, rate_distortion, reliability_from_parts
from .probability import (
    ChannelMatrix,
    ChannelParams,
    DistortionMatrix,
    Pmf,
    channel_params,
    distortion,
    sample_channel_batch,
    sample_pmf_batch,
)

DEFAULT_SESSION_CAP = 10_000
CHUNK_TRIALS = 2048
# Count cells (trials x |Y|) per multinomial draw of control-block types.
CONTROL_CHUNK_CELLS = 1 << 23
_Z95 = 1.959963984540054
GOF_MIN_EXPECTED = 5.0


class SessionCapExceeded(RuntimeError):
    """A session exceeded the block cap (retransmission prob near 1)."""

    def __init__(self, cap: int, trial_index: int):
        super().__init__(
            f"trial {trial_index} still retransmitting after {cap} blocks; "
            "the configuration looks pathological (P_RT close to 1)")
        self.cap = cap
        self.trial_index = trial_index


# ----------------------------------------------------------------------
# Reproducible stream plumbing
# ----------------------------------------------------------------------

def _encode_label(label) -> int:
    if isinstance(label, str):
        return zlib.crc32(label.encode("utf-8"))
    if isinstance(label, (int, np.integer)):
        if label < 0:
            raise ValueError("stream labels must be nonnegative")
        return int(label)
    raise TypeError(f"unsupported stream label type: {type(label).__name__}")


@dataclass(frozen=True)
class RngSpec:
    """Master seed plus a label path; names an independent stream family.

    Identical (master_seed, labels) always reproduce the same stream;
    distinct label paths give statistically independent streams.
    """

    master_seed: int
    labels: tuple = ()

    def child(self, *labels) -> "RngSpec":
        return RngSpec(self.master_seed, self.labels + labels)

    def generator(self, *labels) -> np.random.Generator:
        key = tuple(_encode_label(l) for l in self.labels + labels)
        seq = np.random.SeedSequence(self.master_seed, spawn_key=key)
        return np.random.Generator(np.random.PCG64(seq))


# ----------------------------------------------------------------------
# Model and code bundles
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SystemModel:
    """Source, channel, distortion and target D.

    The channel parameters and R(D) are solved on first use and then
    kept, so a model solves each at most once; E* is built from them.
    """

    P_V: Pmf
    W: ChannelMatrix
    d: DistortionMatrix
    D: float

    @classmethod
    def build(cls, P_V: Pmf, W: ChannelMatrix, d: DistortionMatrix,
              D: float) -> "SystemModel":
        if len(P_V) != d.alphabet_size:
            raise ValueError("source alphabet does not match distortion matrix")
        if D < 0:
            raise ValueError("target distortion must be nonnegative")
        return cls(P_V=P_V, W=W, d=d, D=float(D))

    @cached_property
    def params(self) -> ChannelParams:
        return channel_params(self.W)

    @cached_property
    def rd(self) -> RdPoint:
        return rate_distortion(self.P_V, self.d, self.D)

    @property
    def e_star(self) -> float:
        return reliability_from_parts(self.params.B, self.params.C, self.rd.R)

    def derive_config(self, N: int, epsilon: float, delta_ctrl: float,
                      master_seed: int = 0) -> SchemeConfig:
        return SchemeConfig.derive(N=N, epsilon=epsilon,
                                   delta_ctrl=delta_ctrl, R_D=self.rd.R,
                                   C=self.params.C, master_seed=master_seed)


@dataclass(frozen=True)
class CodeSet:
    """The static codes of one configuration (channel codebooks are per block)."""

    source: SourceCodebook
    control: ControlCode
    caid: Pmf


def build_codes(model: SystemModel, cfg: SchemeConfig,
                rng: np.random.Generator) -> CodeSet:
    source = build_source_code(model.P_V, model.d, model.rd, cfg.M, cfg.N,
                               rng)
    control = build_control_code(model.params, cfg.ctrl_len, cfg.delta_ctrl)
    return CodeSet(source=source, control=control, caid=model.params.caid)


# ----------------------------------------------------------------------
# The session loop and its single-session reference
# ----------------------------------------------------------------------

def _sessions(cfg: SchemeConfig, codes: CodeSet, W: ChannelMatrix,
              v: np.ndarray, decide, rng: np.random.Generator,
              session_cap: int, trial_offset: int):
    """tau and the stopping block's distortion of one session per row of v.

    Every live session has run the same number b of blocks.  A step runs
    k = min(max(1, b), len(v) // live, session_cap - b) more for each,
    as rows ``np.repeat(alive, k)``: ``decide(msg, rng)`` draws their
    message phase and returns the decoded messages, the encoder sends c
    where d(v, vhat) <= D, else e, and the control letters are drawn
    next.  A session stops at the first block of the step decided c, its
    j-th: tau = (b + j) N, and the end distortion is that block's.  Its
    later blocks are drawn and discarded.

    Why the law is that of one block per step: given v, every row is a
    fresh block, independent of the others, so the first stop among k
    blocks, then k more if none stops, is the first stop of one long run.
    A step holds at most len(v) rows, and discards fewer blocks per
    session than it has already run; with one session k is always 1, so
    ``run_session`` draws block by block.  No block past session_cap is
    drawn: a session still live then raises, at its row index +
    trial_offset (the lowest live row).  Codes built for another block
    than cfg are refused.
    """
    if session_cap < 1:
        raise ValueError("session_cap must be >= 1")
    for what, built, block in (("N", codes.source.N, cfg.N),
                               ("M", codes.source.M, cfg.M),
                               ("ctrl_len", codes.control.length,
                                cfg.ctrl_len)):
        if built != block:
            raise ValueError(f"codes built for {what} = {built} cannot run "
                             f"a block of {what} = {block}")
    msg = source_encode_batch(codes.source, v)
    tau = np.zeros(len(v), dtype=np.int64)
    end_dist = np.zeros(len(v))
    alive = np.arange(len(v))
    done = 0
    while len(alive):
        if done == session_cap:
            raise SessionCapExceeded(session_cap,
                                     trial_index=trial_offset + int(alive[0]))
        k = min(max(1, done), len(v) // len(alive), session_cap - done)
        rows = np.repeat(alive, k)
        decoded = decide(msg[rows], rng)
        dist = distortion(codes.source.d, v[rows],
                          codes.source.reproductions[decoded - 1])
        sent = np.where((dist <= codes.source.D)[:, np.newaxis],
                        codes.control.x_c, codes.control.x_e)
        heard_c = control_decode_batch(
            codes.control, sample_channel_batch(W, sent, rng)).reshape(-1, k)
        stopped = heard_c.any(axis=1)
        first = heard_c[stopped].argmax(axis=1)
        tau[alive[stopped]] = (done + first + 1) * cfg.N
        end_dist[alive[stopped]] = dist.reshape(-1, k)[stopped, first]
        alive = alive[~stopped]
        done += k
    return tau, end_dist


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one complete session.

    The control phase was heard e on each of the ``retransmissions``
    blocks before the last, and c on the last.
    """

    tau: int
    retransmissions: int
    realized_distortion: float
    excess: bool

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")


def run_session(cfg: SchemeConfig, codes: CodeSet, W: ChannelMatrix,
                P_V: Pmf, rng: np.random.Generator,
                session_cap: int = DEFAULT_SESSION_CAP,
                source_word=None) -> TrialRecord:
    """One session, block by block, with explicit codebooks throughout.

    The readable reference message phase: every block draws a fresh
    codebook and ML-decodes it.  The rest of the session is ``_sessions``,
    as in ``monte_carlo``.  A ``source_word`` must be N source letters.
    """
    v = (sample_pmf_batch(P_V, (cfg.N,), rng) if source_word is None
         else _source_word(codes.source, source_word))

    def decide(msg, rng):
        codebook = build_channel_codebook(codes.caid, cfg.msg_len, cfg.M, rng)
        y = sample_channel_batch(W, codebook.codewords[msg - 1], rng)
        return np.array([ml_channel_decode(codebook, y[0], W)])

    tau, dist = _sessions(cfg, codes, W, v[np.newaxis], decide, rng,
                          session_cap, trial_offset=0)
    blocks = int(tau[0]) // cfg.N
    return TrialRecord(tau=int(tau[0]), retransmissions=blocks - 1,
                       realized_distortion=float(dist[0]),
                       excess=bool(dist[0] > codes.source.D))


# ----------------------------------------------------------------------
# Vectorized batch engine
# ----------------------------------------------------------------------

def _convolve(va: np.ndarray, pa: np.ndarray, vb: np.ndarray,
              pb: np.ndarray):
    """Law of the sum of two independent finite-support scores.

    Equal sums are merged; with tie-exact terms every sum is exact, so
    equal scores stay bit-equal.  -inf (a zero channel entry) absorbs.
    """
    vals, inv = np.unique((va[:, np.newaxis] + vb).ravel(),
                          return_inverse=True)
    return vals, np.bincount(inv.ravel(),
                             weights=(pa[:, np.newaxis] * pb).ravel())


class _MessagePhase:
    """ML decisions of fresh random codebooks, drawn in law.

    The method is in the module docstring.  Exact ties go to the lower
    index, as in ``coding_scheme.ml_channel_decode``.  ``monte_carlo``
    builds one per call.  The key of an output type (letter counts c_b)
    is its rank among all types, the sum over b < |Y| - 1 of
    comb(c_0 + ... + c_b + b, b + 1); it picks the type's row, filled
    when the type is first seen, of a padded G table and of per-row
    offsets into flat (values, a) arrays.
    """

    def __init__(self, W: ChannelMatrix, caid: Pmf, L: int, M: int):
        self.W, self.caid, self.L, self.M = W, caid, L, M
        self.logw = _tie_exact_log(W, L)
        live = caid.probs > 0
        self._letters = [(self.logw[live, b], caid.probs[live])
                         for b in range(W.num_outputs)]
        # _powers[b][k]: law of a k-position score against output letter b,
        # shared by every output type.
        self._powers = [[(np.zeros(1), np.ones(1))]
                        for _ in range(W.num_outputs)]
        # comb(s + j, j + 1) < the count of types: int64 refuses >2**63.
        self._rank = np.array([[math.comb(s + j, j + 1)
                                for j in range(W.num_outputs - 1)]
                               for s in range(L + 1)], dtype=np.int64)
        # Each table row's key (row 0's, no type's, above every key), the
        # order that sorts them, the padded G table, the row offsets
        # (start[r + 1] ends row r) and the flat (values, a) arrays.
        self._types = (np.array([np.iinfo(np.int64).max]), np.zeros(1, int),
                       np.full((1, 1), np.inf), np.zeros(2, np.int64),
                       np.empty((2, 0)))

    def _law(self, counts: tuple):
        """(values, G, a) of one competitor's score for an output type.

        Over the ascending support, G = (M - 1) log F(value) is the log
        CDF of the best competitor, and a = log(1 - q), where q =
        P(S = value) / F(value) is the chance that a competitor scoring
        at most value scores exactly value.
        """
        vals, probs = np.zeros(1), np.ones(1)
        for b, n_b in enumerate(counts):
            powers = self._powers[b]
            while len(powers) <= n_b:
                powers.append(_convolve(*powers[-1], *self._letters[b]))
            vals, probs = _convolve(vals, probs, *powers[n_b])
        cum = np.cumsum(probs)
        above = np.append(np.cumsum(probs[::-1])[-2::-1], 0.0)
        with np.errstate(divide="ignore"):
            log_f = np.where(cum < 0.5, np.log(cum),
                             np.log1p(-np.minimum(above, 1.0)))
            log_f = np.maximum.accumulate(log_f)
            q = np.minimum(probs / np.exp(log_f), 1.0)
            return vals, (self.M - 1) * log_f, np.log1p(-q)

    def _add_types(self, key: np.ndarray, counts: np.ndarray) -> None:
        """Give each new type, keyed by key with counts rows, a table row."""
        keys, first = np.unique(key, return_index=True)
        laws = [self._law(tuple(counts[i])) for i in first]
        old_keys, _, G, start, flat = self._types
        n, width = len(old_keys), max(len(v) for v, _, _ in laws)
        if n + len(laws) >= len(start) or width > G.shape[1]:
            # Rows double; +inf pads G above every log u.
            rows = max(n + len(laws), 2 * n)
            grown = np.full((rows, max(width, G.shape[1])), np.inf)
            grown[:n, :G.shape[1]] = G[:n]
            G = grown
            start = np.append(start[:n + 1], np.zeros(rows - n, np.int64))
        end = int(start[n]) + sum(len(v) for v, _, _ in laws)
        if end > flat.shape[1]:
            # The flat arrays double too.
            grown = np.empty((2, max(end, 2 * flat.shape[1])))
            grown[:, :start[n]] = flat[:, :start[n]]
            flat = grown
        for row, (vals, g, a) in enumerate(laws, start=n):
            G[row, :len(g)] = g
            start[row + 1] = start[row] + len(vals)
            flat[:, start[row]:start[row + 1]] = vals, a
        keys = np.concatenate([old_keys, keys])
        # One assignment, so an interrupted build leaves the old index.
        self._types = (keys, np.argsort(keys), G, start, flat)

    def _lookup(self, y: np.ndarray, log_u: np.ndarray):
        """(values, a) of each row's type law at searchsorted(G, log_u), the
        count of G entries below the column log_u: G is non-decreasing."""
        n, k = y.shape[0], self.W.num_outputs
        counts = np.bincount((k * np.arange(n)[:, None] + y).ravel(),
                             minlength=n * k).reshape(n, k)
        key = self._rank[counts[:, :-1].cumsum(axis=1),
                         np.arange(k - 1)].sum(axis=1)
        keys, order = self._types[:2]
        new = keys[order[np.searchsorted(keys, key, sorter=order)]] != key
        if new.any():
            self._add_types(key[new], counts[new])
        keys, order, G, start, flat = self._types
        slot = order[np.searchsorted(keys, key, sorter=order)]
        j = (G[slot] < log_u).sum(axis=1)
        return flat[:, start[slot] + j]

    def decide(self, msg: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """ML-decoded messages (1-based) for sent messages ``msg``.

        Draws x_true and y (len(msg) x L each), then two uniforms per
        message: one for the best competitor score S*, drawn by inverting
        F**(M-1), and one for the first competitor position attaining it,
        which maps past the sent message.
        """
        n, M = len(msg), self.M
        x_true = sample_pmf_batch(self.caid, (n, self.L), rng)
        y = sample_channel_batch(self.W, x_true, rng)
        if M == 1:
            return msg.copy()
        score = self.logw[x_true, y].sum(axis=1)
        u = 1.0 - rng.random((n, 2))
        best, a = self._lookup(y, np.log(u[:, :1]))
        # First competitor position scoring S*: K with P(K <= k)
        # proportional to 1 - (1 - q)**k on 1..M-1, by inversion.  A NaN
        # (q = 0, or q = 1 with u = 1) reads as 1.
        with np.errstate(divide="ignore", invalid="ignore"):
            pos = np.ceil(np.log1p(u[:, 1] * np.expm1((M - 1) * a)) / a)
        pos = np.minimum(np.fmax(pos, 1), M - 1).astype(np.int64)
        rival = pos + (pos >= msg)
        return np.where(score > best, msg,
                        np.where(score == best, np.minimum(msg, rival),
                                 rival))


def _simulate_chunk(cfg: SchemeConfig, codes: CodeSet, model: SystemModel,
                    n_trials: int, rng: np.random.Generator,
                    session_cap: int, trial_offset: int,
                    message_phase: _MessagePhase) -> tuple:
    """(tau, excess) of n_trials sessions on fresh source words."""
    v = sample_pmf_batch(model.P_V, (n_trials, cfg.N), rng)
    tau, dist = _sessions(cfg, codes, model.W, v, message_phase.decide, rng,
                          session_cap, trial_offset)
    return tau, dist > codes.source.D


# ----------------------------------------------------------------------
# Estimation
# ----------------------------------------------------------------------

def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = successes / trials
    denom = 1.0 + _Z95 * _Z95 / trials
    center = (p + _Z95 * _Z95 / (2 * trials)) / denom
    half = _Z95 * math.sqrt(p * (1 - p) / trials
                            + _Z95 * _Z95 / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def rule_of_three(trials: int) -> float:
    """95% upper bound for a probability with zero observed events."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return 3.0 / trials


@dataclass(frozen=True, eq=False)
class EstimateReport:
    """Monte Carlo estimates for one configuration.

    prt_hat and pe_hat are pooled per-block frequencies (all blocks of
    all sessions), so the renewal identities hold in-sample.  When no
    excess event is observed, exponent_hat is the rule-of-three lower
    bound and exponent_is_lower_bound is set.
    """

    N: int
    gamma: float
    trials: int
    pd_hat: float
    pd_lo: float
    pd_hi: float
    etau_hat: float
    etau_ci: float
    prt_hat: float
    pe_hat: float
    exponent_hat: float
    exponent_ci: float
    exponent_is_lower_bound: bool
    block_counts: np.ndarray


def monte_carlo(cfg: SchemeConfig, model: SystemModel, trials: int,
                rng: RngSpec,
                session_cap: int = DEFAULT_SESSION_CAP) -> EstimateReport:
    """Run independent sessions and assemble the full estimate report.

    Chunks of CHUNK_TRIALS sessions, each on its own stream, run through
    ``_sessions`` with ``_MessagePhase`` deciding the message phase.
    The reported gamma is msg_len / N, the split of the block that ran.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    codes = build_codes(model, cfg, rng.generator("source-code"))
    message_phase = _MessagePhase(model.W, codes.caid, cfg.msg_len, cfg.M)
    chunks = [_simulate_chunk(cfg, codes, model,
                              min(CHUNK_TRIALS, trials - lo),
                              rng.generator("mc", i), session_cap,
                              trial_offset=lo, message_phase=message_phase)
              for i, lo in enumerate(range(0, trials, CHUNK_TRIALS))]
    taus, excesses = zip(*chunks)
    tau, excess = np.concatenate(taus), np.concatenate(excesses)

    k_excess = int(excess.sum())
    pd_hat = k_excess / trials
    pd_lo, pd_hi = wilson_interval(k_excess, trials)
    etau_hat = float(tau.mean())
    etau_sd = float(tau.std(ddof=1)) if trials > 1 else 0.0
    etau_ci = _Z95 * etau_sd / math.sqrt(trials)
    # Every block but a session's last is heard e, and only its last
    # (heard c) can carry its excess.
    blocks = int(tau.sum()) // cfg.N
    prt_hat = (blocks - trials) / blocks
    pe_hat = k_excess / blocks

    if k_excess > 0:
        exponent_hat = -math.log(pd_hat) / etau_hat
        lower = False
        se_pd = math.sqrt(pd_hat * (1 - pd_hat) / trials)
        se_etau = etau_sd / math.sqrt(trials)
        var = (se_pd / (pd_hat * etau_hat)) ** 2 \
            + (math.log(pd_hat) * se_etau / etau_hat ** 2) ** 2
        exponent_ci = _Z95 * math.sqrt(var)
    else:
        exponent_hat = -math.log(rule_of_three(trials)) / etau_hat
        lower = True
        exponent_ci = math.inf
    block_counts = np.bincount(tau // cfg.N)
    return EstimateReport(N=cfg.N, gamma=cfg.msg_len / cfg.N, trials=trials,
                          pd_hat=pd_hat, pd_lo=pd_lo, pd_hi=pd_hi,
                          etau_hat=etau_hat, etau_ci=etau_ci,
                          prt_hat=prt_hat, pe_hat=pe_hat,
                          exponent_hat=exponent_hat, exponent_ci=exponent_ci,
                          exponent_is_lower_bound=lower,
                          block_counts=block_counts)


@dataclass(frozen=True)
class GofResult:
    statistic: float
    df: int
    pvalue: float
    bins: int


def geometric_gof(block_counts: np.ndarray, prt_hat: float) -> GofResult:
    """Chi-square fit of session block counts against Geometric(1-prt_hat).

    Tail categories are merged until each bin's expected count reaches
    GOF_MIN_EXPECTED; one degree of freedom is charged for the estimated
    parameter.
    """
    counts = np.asarray(block_counts, dtype=np.float64)
    total = counts.sum()
    if not 0.0 < prt_hat < 1.0:
        return GofResult(statistic=0.0, df=0, pvalue=1.0, bins=1)
    p = prt_hat
    obs_bins = []
    exp_bins = []
    acc_obs = 0.0
    acc_exp = 0.0
    for k in range(1, len(counts)):
        acc_obs += counts[k]
        acc_exp += total * (1 - p) * p ** (k - 1)
        if acc_exp >= GOF_MIN_EXPECTED:
            obs_bins.append(acc_obs)
            exp_bins.append(acc_exp)
            acc_obs = 0.0
            acc_exp = 0.0
    # Open tail bin: everything at or beyond the last boundary.
    tail_exp = total - sum(exp_bins)
    tail_obs = total - sum(obs_bins)
    if exp_bins and tail_exp < GOF_MIN_EXPECTED:
        exp_bins[-1] += tail_exp
        obs_bins[-1] += tail_obs
    else:
        exp_bins.append(tail_exp)
        obs_bins.append(tail_obs)
    obs = np.array(obs_bins)
    exp = np.array(exp_bins)
    if len(obs) < 3:
        return GofResult(statistic=0.0, df=0, pvalue=1.0, bins=len(obs))
    stat = float(((obs - exp) ** 2 / exp).sum())
    df = len(obs) - 2
    # Imported on use: scipy.special is most of the cost of importing this
    # package, and it loads numpy.fft with it.
    from scipy.special import chdtrc
    return GofResult(statistic=stat, df=df,
                     pvalue=float(chdtrc(df, stat)), bins=len(obs))


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    N: int
    report: EstimateReport


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    exponent_theory: float


def empirical_exponent_sweep(model: SystemModel, epsilon: float,
                             delta_ctrl: float, N_list, trials: int,
                             rng: RngSpec,
                             session_cap: int = DEFAULT_SESSION_CAP
                             ) -> SweepResult:
    """Estimate the empirical exponent at each N, with the theory ceiling."""
    N_list = list(N_list)
    if N_list != sorted(N_list):
        raise ValueError("N_list must be ascending")
    rows = []
    for N in N_list:
        cfg = model.derive_config(N, epsilon, delta_ctrl,
                                  master_seed=rng.master_seed)
        report = monte_carlo(cfg, model, trials, rng.child("N", N),
                             session_cap=session_cap)
        rows.append(SweepRow(N=N, report=report))
    return SweepResult(rows=tuple(rows), exponent_theory=float(model.e_star))


# ----------------------------------------------------------------------
# Control-phase crossover exponents
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ControlPointEstimate:
    m: int
    p_ec_hat: float
    p_ec_lo: float
    p_ec_hi: float
    p_ec_flagged: bool
    p_ce_hat: float
    p_ce_lo: float
    p_ce_hi: float
    p_ce_flagged: bool


@dataclass(frozen=True)
class ControlExponentResult:
    points: tuple
    slope_ec: float | None
    slope_ce: float | None
    B: float


def _crossover_probability(model: SystemModel, ctrl: ControlCode,
                           send_c: bool, trials: int,
                           rng: np.random.Generator) -> int:
    """Count decoding decisions opposite to the sent control word.

    The decision depends on a block only through its output type, which
    under the repeated input x is Multinomial(m, W(.|x)).  So each trial
    draws one type, not m letters, and ``control_accepts`` decides it:
    O(|Y|) work per trial, whatever m.  Rows are drawn CONTROL_CHUNK_CELLS
    count cells at a time; the counts do not depend on the chunking.
    """
    wrong = 0
    probs = model.W.matrix[int((ctrl.x_c if send_c else ctrl.x_e)[0])]
    chunk = max(1, CONTROL_CHUNK_CELLS // len(probs))
    for lo in range(0, trials, chunk):
        counts = rng.multinomial(ctrl.length, probs,
                                 size=min(chunk, trials - lo))
        heard_c = control_accepts(ctrl, counts)
        wrong += int((~heard_c).sum()) if send_c else int(heard_c.sum())
    return wrong


def control_phase_exponent(model: SystemModel, m_list, trials: int,
                           delta_ctrl: float,
                           rng: RngSpec) -> ControlExponentResult:
    """Monte Carlo slopes of -ln P(e->c) and -ln P(c->e) versus m.

    Each trial is one control block, drawn as its output type (a
    multinomial count of the m output letters) and decided by
    ``coding_scheme.control_accepts``; see ``_crossover_probability``.

    Points with zero observed events get rule-of-three upper bounds and
    are flagged; flagged points never enter the least-squares fits.  A
    slope is None when fewer than two clean points remain.
    """
    m_list = list(m_list)
    if len(m_list) < 3:
        raise ValueError("need at least three control lengths")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    points = []
    for m in m_list:
        ctrl = build_control_code(model.params, m, delta_ctrl)
        k_ec = _crossover_probability(model, ctrl, send_c=False,
                                      trials=trials,
                                      rng=rng.generator("ec", m))
        k_ce = _crossover_probability(model, ctrl, send_c=True,
                                      trials=trials,
                                      rng=rng.generator("ce", m))
        ec_flag = k_ec == 0
        ce_flag = k_ce == 0
        ec_hat = rule_of_three(trials) if ec_flag else k_ec / trials
        ce_hat = rule_of_three(trials) if ce_flag else k_ce / trials
        ec_lo, ec_hi = wilson_interval(k_ec, trials)
        ce_lo, ce_hi = wilson_interval(k_ce, trials)
        points.append(ControlPointEstimate(
            m=m, p_ec_hat=ec_hat, p_ec_lo=ec_lo, p_ec_hi=ec_hi,
            p_ec_flagged=ec_flag, p_ce_hat=ce_hat, p_ce_lo=ce_lo,
            p_ce_hi=ce_hi, p_ce_flagged=ce_flag))

    def fit(select_flag, select_p):
        xs = [pt.m for pt in points if not select_flag(pt)]
        ys = [-math.log(select_p(pt)) for pt in points if not select_flag(pt)]
        if len(xs) < 2:
            return None
        return float(np.polyfit(xs, ys, 1)[0])

    slope_ec = fit(lambda pt: pt.p_ec_flagged, lambda pt: pt.p_ec_hat)
    slope_ce = fit(lambda pt: pt.p_ce_flagged, lambda pt: pt.p_ce_hat)
    return ControlExponentResult(points=tuple(points), slope_ec=slope_ec,
                                 slope_ce=slope_ce, B=model.params.B)

"""The four benchmark workloads.

Each workload builds its model once (``setup``), then runs whole rounds of
the same operations (``run_round``).  A round times the public entry
points of ``vlfjscc`` and then checks the round's outputs against
``oracles``, outside the timed section.  After the timed rounds, ``once``
runs the program operations whose outputs do not change from round to
round (traced, but not timed end to end), and ``final_checks`` the checks
too slow to repeat every round (neither traced nor timed).

Program functions are always looked up through their module at call time
(``self.sim.monte_carlo``), so the traced run's wrappers see every call.

Every random input comes from the run's ``--seed``: round r of a run uses
the stream family (seed, r), so the same seed reproduces the same inputs
and two runs at one seed give the same outputs, round for round.
"""

from __future__ import annotations

import contextlib
import io
import os
import time

import numpy as np

import oracles

BSC01 = [[0.9, 0.1], [0.1, 0.9]]
ASYMMETRIC = [[0.95, 0.05], [0.15, 0.85]]

# Checks that fail on every run because of a recorded fault of the program.
# They count as failed operations but leave a run's ``correct`` true.
# ml-tie-break: ``coding_scheme.ml_channel_decode`` breaks exact likelihood
# ties by floating-point rounding, not at the lowest index it documents.
KNOWN_FAULTS = frozenset({"ml-tie-break"})


def round_seed(seed: int, r: int) -> int:
    """A 32-bit seed for round r, fixed by the run seed."""
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


class Check:
    """Collects named pass/fail outcomes of oracle comparisons."""

    def __init__(self):
        self.items: list[tuple[str, bool, str]] = []

    def __call__(self, name: str, ok: bool, detail: str = "") -> None:
        self.items.append((name, bool(ok), detail))

    def close(self, name: str, got: float, want: float, tol: float) -> None:
        self(name, abs(got - want) <= tol,
             f"got {got!r} want {float(want)!r}")


class RoundResult:
    """One round: the two timed quantities, its outputs and its checks.

    ``ops``/``op_s`` feed ``ops_per_s``; ``work``/``work_s`` feed
    ``work_per_s``.  ``attempted``/``failed`` count program operations;
    checks are counted on top by the runner.  ``record`` holds the
    round's non-timing outputs for the determinism digest.
    """

    def __init__(self, ops, op_s, work, work_s, attempted, failed, record, check):
        self.ops, self.op_s = ops, op_s
        self.work, self.work_s = work, work_s
        self.attempted, self.failed = attempted, failed
        self.record = record
        self.checks = check.items


class Workload:
    """Defaults for the once-per-run steps of a workload."""

    def once(self) -> tuple[list, dict]:
        """Once-per-run program operations: (check items, digest record)."""
        return [], {}

    def final_checks(self) -> tuple[list, dict]:
        """Once-per-run checks: (check items, digest record)."""
        return [], {}


class MonteCarloWorkload(Workload):
    """``monte_carlo`` sessions on a uniform binary source, Hamming D = 0.2.

    A round is one ``monte_carlo`` call of SESSIONS sessions with a fresh
    source codebook; an operation is a session and a unit of work a
    transmitted block.

    With ``tie_check`` every round also ML-decodes TIE_OUTPUTS fixed BSC
    outputs with ``ml_channel_decode``, the decoder of the reference
    ``run_session``, on a fixed codebook of the message-phase size.  The
    inputs come from TIE_SEED, not from the run's seed, so the outcome is
    the same in every round of every run.
    """

    SESSIONS = 1024
    REFERENCE_SESSIONS = 400
    TIE_OUTPUTS, TIE_SEED = 64, 0
    EPSILON, DELTA_CTRL, D = 0.08, 0.3, 0.2

    def __init__(self, name: str, channel, N: int, tie_check: bool = False):
        self.name, self.channel, self.N = name, channel, N
        self.tie_check = tie_check

    def setup(self, seed: int, out_dir: str) -> None:
        import vlfjscc
        self.sim = vlfjscc.simulation
        self.cs = vlfjscc.coding_scheme
        self.seed = seed
        self.model = self.sim.SystemModel.build(
            vlfjscc.Pmf([0.5, 0.5]), vlfjscc.ChannelMatrix(self.channel),
            vlfjscc.hamming_distortion(2), self.D)
        self.cfg = self.model.derive_config(self.N, self.EPSILON,
                                            self.DELTA_CTRL, master_seed=seed)
        self.codes = self.sim.build_codes(self.model, self.cfg,
                                          self.spec(0).generator("source-code"))

    def oracle_setup(self) -> None:
        ch = oracles.binary_channel(self.channel)
        R = oracles.rate_distortion_hamming(0.5, self.D)
        self.e_star = oracles.e_star(ch["B"], ch["C"], R)
        m = self.cfg.ctrl_len
        self.accept_c, self.accept_e = oracles.control_accept(
            self.channel, ch["x0"], ch["x0_prime"], m,
            m * (ch["B"] - self.DELTA_CTRL))
        self.first_report = None
        if self.tie_check:
            rng = np.random.default_rng(self.TIE_SEED)
            M, n = self.cfg.M, self.cfg.msg_len
            words = rng.integers(0, 2, (M, n))
            sent = words[rng.integers(0, M, self.TIE_OUTPUTS)]
            self.tie_outputs = sent ^ (rng.random(sent.shape) < 0.1)
            self.tie_codebook = self.cs.ChannelCodebook(M, n, words)
            self.tie_want = [oracles.ml_lowest_index_bsc(words, y)
                             for y in self.tie_outputs]

    def spec(self, r: int):
        return self.sim.RngSpec(self.seed).child("round", r)

    def run_round(self, r: int) -> RoundResult:
        check = Check()
        t0 = time.perf_counter()
        try:
            rep = self.sim.monte_carlo(self.cfg, self.model, self.SESSIONS,
                                       self.spec(r))
        except self.sim.SessionCapExceeded as exc:
            check("session-cap", False, str(exc))
            return RoundResult(0, 0.0, 0, 0.0, self.SESSIONS, self.SESSIONS,
                               {"error": str(exc)}, check)
        elapsed = time.perf_counter() - t0
        counts = np.asarray(rep.block_counts)
        blocks = int((np.arange(len(counts)) * counts).sum())
        if r == 0:
            self.first_report = rep

        check("sessions-counted", int(counts.sum()) == self.SESSIONS,
              f"{int(counts.sum())} sessions in block_counts")
        lo, hi = oracles.wilson(self.SESSIONS, blocks)
        check("acceptance-rate", hi >= self.accept_e and lo <= self.accept_c,
              f"1-prt_hat={1.0 - rep.prt_hat:.6f} wilson=[{lo:.6f},{hi:.6f}] "
              f"exact P(c|e)={self.accept_e:.6f} P(c|c)={self.accept_c:.6f}")
        check("exponent-below-ceiling",
              rep.exponent_hat <= self.e_star + 2.0 * rep.exponent_ci,
              f"exponent_hat={rep.exponent_hat:.6f} ci={rep.exponent_ci:.6f} "
              f"E*={self.e_star:.6f}")
        record = {k: repr(getattr(rep, k)) for k in (
            "pd_hat", "pd_lo", "pd_hi", "etau_hat", "etau_ci", "prt_hat",
            "pe_hat", "exponent_hat", "exponent_ci", "exponent_is_lower_bound")}
        record["block_counts"] = [int(c) for c in counts]
        if self.tie_check:
            got = [self.cs.ml_channel_decode(self.tie_codebook, y, self.model.W)
                   for y in self.tie_outputs]
            off = sum(g != w for g, w in zip(got, self.tie_want))
            check("ml-tie-break", off == 0,
                  f"{off} of {len(got)} fixed outputs decoded off the "
                  f"lowest-index ML message")
            record["ml_tie_off"] = off
        return RoundResult(self.SESSIONS, elapsed, blocks, elapsed,
                           self.SESSIONS, 0, record, check)

    def final_checks(self) -> tuple[list, dict]:
        """Round 0's estimates against the explicit-codebook ``run_session``.

        The reference draws REFERENCE_SESSIONS sessions with round 0's
        source codebook and its own stream.  pd and the mean block count
        must agree within Z_CHECK standard errors of their difference.
        """
        check = Check()
        rep = self.first_report
        if rep is None:
            check("reference", False, "round 0 produced no estimate report")
            return check.items, {}
        rng = self.spec(0).generator("reference")
        excess, blocks = [], []
        try:
            for _ in range(self.REFERENCE_SESSIONS):
                rec = self.sim.run_session(self.cfg, self.codes, self.model.W,
                                           self.model.P_V, rng)
                excess.append(rec.excess)
                blocks.append(rec.retransmissions + 1)
        except self.sim.SessionCapExceeded as exc:
            check("reference", False, f"run_session: {exc}")
            return check.items, {}
        n_ref, n_mc = len(blocks), self.SESSIONS
        pd_ref = sum(excess) / n_ref
        pooled = (pd_ref * n_ref + rep.pd_hat * n_mc) / (n_ref + n_mc)
        z_pd = oracles.two_sample_z(pd_ref, pooled * (1 - pooled), n_ref,
                                    rep.pd_hat, pooled * (1 - pooled), n_mc)
        counts = np.asarray(rep.block_counts, dtype=float)
        k = np.arange(len(counts))
        mc_mean = float((k * counts).sum() / n_mc)
        mc_var = float((counts * (k - mc_mean) ** 2).sum() / (n_mc - 1))
        ref = np.asarray(blocks, dtype=float)
        z_blocks = oracles.two_sample_z(float(ref.mean()), float(ref.var(ddof=1)),
                                        n_ref, mc_mean, mc_var, n_mc)
        check("reference-pd-in-law", z_pd <= oracles.Z_CHECK,
              f"run_session pd={pd_ref:.5f} monte_carlo pd={rep.pd_hat:.5f} "
              f"|z|={z_pd:.2f}")
        check("reference-blocks-in-law", z_blocks <= oracles.Z_CHECK,
              f"run_session blocks={ref.mean():.4f} monte_carlo "
              f"blocks={mc_mean:.4f} |z|={z_blocks:.2f}")
        return check.items, {"reference_pd": repr(pd_ref),
                             "reference_blocks": [int(b) for b in blocks]}


class CharacteriseWorkload(Workload):
    """``params``, ``converse`` and ``control-exponent`` through ``cli.main``.

    The source is Bernoulli(0.3): on the default uniform source no grid
    point of the Marton scan exceeds R(D), the exponent is +inf and there
    is nothing to check.  A round is one ``control-exponent`` call with a
    fresh seed; an operation is that call, and a unit of work one simulated
    control block (trials x m-points x 2), so the two rates share one
    timing.  ``params`` and ``converse`` are closed-form: their outputs are
    the same in every round, so ``once`` runs and checks them once per run.
    A ``params`` call is seconds of mostly interpreted Python whose speed
    varied between runs by more than an end-to-end bound allows, so its
    cost is reported per layer only.
    """

    name = "characterise-bsc"
    CTRL_TRIALS = 10_000
    M_LIST = (50, 100, 200)
    Q, D, EPSILON, DELTA_CTRL, N, PD = 0.3, 0.2, 0.08, 0.3, 200, 1e-6

    CONFIG = """\
[source]
pmf = [0.7, 0.3]

[channel]
matrix = [[0.9, 0.1], [0.1, 0.9]]

[distortion]
D = 0.2

[scheme]
epsilon = 0.08
delta_ctrl = 0.3

[run]
N = 200
pd_target = 1e-6
trials = {trials}
seed = {seed}
"""

    def setup(self, seed: int, out_dir: str) -> None:
        import vlfjscc.cli
        self.cli = vlfjscc.cli
        self.seed = seed
        self.path = os.path.join(out_dir, f"{self.name}-seed{seed}.ini")
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(self.CONFIG.format(trials=self.CTRL_TRIALS, seed=seed))
        self.cli.build_model(self.cli.load_config(self.path))

    def oracle_setup(self) -> None:
        ch = oracles.binary_channel(BSC01)
        R = oracles.rate_distortion_hamming(self.Q, self.D)
        self.expect_params = {
            "B": ch["B"], "lambda": ch["lam"], "C": ch["C"], "R_D": R,
            "gamma": (R + 3 * self.EPSILON) / ch["C"],
            "marton_at_RD_plus_eps": oracles.marton_hamming(
                self.Q, R + self.EPSILON, self.D),
            "E_star": oracles.e_star(ch["B"], ch["C"], R),
        }
        delta_N, etau = oracles.converse(ch["lam"], ch["B"], ch["C"], R,
                                         self.N, self.PD)
        self.expect_converse = {"delta_N": delta_N, "Etau_lower": etau,
                                "exponent_upper": self.expect_params["E_star"]}
        self.exact = {m: oracles.control_accept(BSC01, ch["x0"], ch["x0_prime"],
                                                m, m * (ch["B"] - self.DELTA_CTRL))
                      for m in self.M_LIST}

    def _cli(self, args: list) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(args)
        return code, buf.getvalue()

    def once(self) -> tuple[list, dict]:
        check = Check()
        code_p, params = self._cli(["params", "--config", self.path])
        code_c, conv = self._cli(["converse", "--config", self.path])
        check("params-exit-codes", (code_p, code_c) == (0, 0),
              f"exit codes {(code_p, code_c)}")
        lines = dict(line.split(" = ", 1) for line in
                     (params + conv).splitlines() if " = " in line)
        for key, want in {**self.expect_params, **self.expect_converse}.items():
            try:
                got = float(lines[key])
            except (KeyError, ValueError):
                check(key, False, f"missing or unparsable: {lines.get(key)!r}")
                continue
            check.close(key, got, want, 1e-6)
        return check.items, {"params": params, "converse": conv}

    def run_round(self, r: int) -> RoundResult:
        check = Check()
        m_list = ",".join(str(m) for m in self.M_LIST)
        t0 = time.perf_counter()
        code, ctrl = self._cli(["control-exponent", "--config", self.path,
                                "--m-list", m_list,
                                "--seed", str(round_seed(self.seed, r))])
        elapsed = time.perf_counter() - t0
        check("exit-code", code == 0, f"exit code {code}")

        rows = [line.split(",") for line in ctrl.splitlines()
                if line and line[0].isdigit()]
        check("control-rows", [int(row[0]) for row in rows] == list(self.M_LIST),
              f"{len(rows)} rows")
        n = self.CTRL_TRIALS
        for row in rows:
            m = int(row[0])
            p_cc, p_ec = self.exact[m]
            for label, exact, hat, flag in (("ec", p_ec, row[1], row[4]),
                                            ("ce", 1.0 - p_cc, row[5], row[8])):
                flagged = flag == "1"
                k = 0 if flagged else round(float(hat) * n)
                lo, hi = oracles.wilson(k, n)
                ok = lo <= exact <= hi and (not flagged or exact * n < 0.01)
                check(f"p_{label}-m{m}", ok,
                      f"k={k} flagged={flagged} exact={exact:.6g} "
                      f"wilson=[{lo:.6g},{hi:.6g}]")
        blocks = n * len(self.M_LIST) * 2
        return RoundResult(1, elapsed, blocks, elapsed, 1, int(code != 0),
                           {"control": ctrl}, check)


class ConverseDecoderWorkload(Workload):
    """Posterior tracking, stopping rule and MAP certification, BSC(0.1).

    A round draws a Bernoulli(0.3) word of N = 10 letters and 2N channel
    outputs through the ``letter_cycle`` encoder.  One timed operation runs
    ``posterior_trajectory``, ``stopping_threshold_time`` and
    ``min_tail_mass`` of the final posterior; its work units are the tail
    evaluations, timed from the end of the trajectory.  Then
    ``certify_map_optimality`` certifies ``distortion_map_decode`` on a
    seeded ``random_table`` encoder.  Certification is checked every round
    and traced, but it is no end-to-end metric: it is pure Python and ran
    twice as slow in some stretches of the shared machine as in others.

    The stopping threshold is the characterisation's excess target
    Pd = 1e-6.  With 2N outputs the smallest tail stays near 1e-5, so the
    rule scans the whole trajectory: every round does the same 2N + 2
    tail evaluations (the scan and the final decision), and a stopping time
    at a looser threshold is checked once per run in ``final_checks``.
    """

    name = "converse-decoder-n10"
    N, D, THRESHOLD, CHECK_THRESHOLD = 10, 0.2, 1e-6, 0.2
    CERT_N, CERT_STEPS, CERT_D = 4, 8, 0.25

    def setup(self, seed: int, out_dir: str) -> None:
        import vlfjscc
        self.dec = vlfjscc.decoding
        self.seed = seed
        self.model = vlfjscc.SystemModel.build(
            vlfjscc.Pmf([0.7, 0.3]), vlfjscc.ChannelMatrix(BSC01),
            vlfjscc.hamming_distortion(2), self.D)
        self.enc = self.dec.EncoderMap.letter_cycle(2, self.N)

    def oracle_setup(self) -> None:
        self.mask = oracles.hamming_ball_mask(self.N, self.D)
        self.cert_mask = oracles.hamming_ball_mask(self.CERT_N, self.CERT_D)
        self.first = None

    def inputs(self, r: int):
        rng = np.random.default_rng(round_seed(self.seed, r))
        v = (rng.random(self.N) < 0.3).astype(np.int64)
        flips = rng.random(2 * self.N) < 0.1
        yn = [int(v[t % self.N] ^ flips[t]) for t in range(2 * self.N)]
        cert_enc = self.dec.EncoderMap.random_table(2, self.CERT_N, 2, rng)
        return yn, cert_enc

    def run_round(self, r: int) -> RoundResult:
        check = Check()
        m = self.model
        yn, cert_enc = self.inputs(r)
        t0 = time.perf_counter()
        traj = self.dec.posterior_trajectory(m.P_V, self.enc, yn, m.W)
        t1 = time.perf_counter()
        stop = self.dec.stopping_threshold_time(traj, m.d, self.D,
                                                self.THRESHOLD)
        value, word = self.dec.min_tail_mass(traj[-1], m.d, self.D)
        t2 = time.perf_counter()
        tails = (len(traj) if stop is None else stop + 1) + 1
        rep = self.dec.certify_map_optimality(m.P_V, cert_enc, m.W, m.d,
                                              self.CERT_D, self.CERT_STEPS)
        if self.first is None:
            self.first = (yn, cert_enc, traj)

        pv, W = [0.7, 0.3], BSC01
        expect = oracles.letter_cycle_posterior(pv, W, self.N, yn)
        diff = float(np.abs(traj[-1].weights - expect).max())
        check("final-posterior", diff <= 1e-12, f"max |diff| = {diff:.3g}")
        want_tails = [oracles.min_tail(oracles.letter_cycle_posterior(
            pv, W, self.N, yn[:n]), self.mask)[0] for n in range(len(yn) + 1)]
        want_stop = next((n for n, t in enumerate(want_tails)
                          if t <= self.THRESHOLD), None)
        check("stopping-time", stop == want_stop,
              f"program {stop} brute force {want_stop}")
        want_value, want_k = oracles.min_tail(traj[-1].weights, self.mask)
        check("min-tail-mass", abs(value - want_value) <= 1e-12
              and word == oracles.word_bits(want_k, self.N),
              f"program {value!r} at {word}, brute force {want_value!r} "
              f"at {oracles.word_bits(want_k, self.N)}")
        check("certification", rep.max_violation <= 1e-12
              and rep.outputs_checked == 2 ** self.CERT_STEPS,
              f"max_violation={rep.max_violation:.3g} "
              f"outputs={rep.outputs_checked}")
        record = {"stop": stop, "min_tail": repr(value), "word": list(word),
                  "cert": [repr(rep.max_violation), repr(rep.excess_probability),
                           rep.outputs_checked, rep.zero_probability_outputs]}
        return RoundResult(1, t2 - t0, tails, t2 - t1, 2, 0, record, check)

    def final_checks(self) -> tuple[list, dict]:
        """A stopping time the rule reaches, and a corrupted decoder caught.

        The corrupted decoder answers with the candidate whose ball holds
        the least posterior mass; certification must report a violation.
        """
        check = Check()
        m = self.model
        yn, cert_enc, traj = self.first
        stop = self.dec.stopping_threshold_time(traj, m.d, self.D,
                                                self.CHECK_THRESHOLD)
        tails = [oracles.min_tail(post.weights, self.mask)[0] for post in traj]
        want = next((n for n, t in enumerate(tails)
                     if t <= self.CHECK_THRESHOLD), None)
        check("stopping-time-reached", stop == want,
              f"threshold {self.CHECK_THRESHOLD}: program {stop} "
              f"brute force {want}")

        def corrupted(post, d, D):
            masses = self.cert_mask.astype(float) @ post.weights
            return oracles.word_bits(int(np.argmin(masses)), self.CERT_N)

        rep = self.dec.certify_map_optimality(m.P_V, cert_enc, m.W, m.d,
                                              self.CERT_D, self.CERT_STEPS,
                                              decoder=corrupted)
        check("negative-control", rep.max_violation > 1e-12
              and rep.worst_output is not None,
              f"corrupted decoder max_violation={rep.max_violation:.3g}")
        return check.items, {"check_stop": stop,
                             "corrupted": repr(rep.max_violation)}


def make(name: str):
    """The workload object for a benchmark workload name."""
    if name == "mc-bsc-n20":
        return MonteCarloWorkload(name, BSC01, 20, tie_check=True)
    if name == "mc-dmc-n16":
        return MonteCarloWorkload(name, ASYMMETRIC, 16)
    if name == "characterise-bsc":
        return CharacteriseWorkload()
    if name == "converse-decoder-n10":
        return ConverseDecoderWorkload()
    raise ValueError(f"unknown workload {name!r}")

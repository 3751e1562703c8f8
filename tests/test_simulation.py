"""Unit tests for the session engine and Monte Carlo estimators.

Control crossover rates are checked against exact binomial tail oracles;
the Wilson interval against scipy's independent implementation; the
renewal identities against their in-sample closed forms; the decisions of
the Monte Carlo message-phase kernel against exact enumeration of tiny
codes, and its sessions against run_session's explicit codebooks.
"""

import itertools
import math
import os
import subprocess
import sys
import zlib
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binom, binomtest, chi2

import vlfjscc

from vlfjscc import (
    ChannelCodebook,
    ChannelMatrix,
    CodeSet,
    ControlCode,
    DistortionMatrix,
    EstimateReport,
    Pmf,
    Posterior,
    SchemeConfig,
    SessionCapExceeded,
    SourceCodebook,
    SystemModel,
    RngSpec,
    TrialRecord,
    build_codes,
    build_control_code,
    build_source_code,
    channel_params,
    control_phase_exponent,
    empirical_exponent_sweep,
    geometric_gof,
    hamming_distortion,
    monte_carlo,
    pairwise_distortion,
    rate_distortion,
    reliability_function,
    rule_of_three,
    run_session,
    sample_channel,
    source_encode,
    wilson_interval,
)
from vlfjscc.simulation import (
    _MessagePhase,
    _encode_label,
    _sessions,
    _simulate_chunk,
    sample_channel_batch,
    sample_pmf_batch,
)

LN9 = math.log(9.0)
BSC01_B = 0.8 * LN9


def bsc(p: float) -> ChannelMatrix:
    return ChannelMatrix([[1.0 - p, p], [p, 1.0 - p]])


IDENTITY = ChannelMatrix([[1.0, 0.0], [0.0, 1.0]])


def bsc_model(p: float = 0.1, D: float = 0.2) -> SystemModel:
    return SystemModel.build(Pmf([0.5, 0.5]), bsc(p), hamming_distortion(2), D)


def noiseless_full_budget_model() -> SystemModel:
    return SystemModel.build(Pmf([0.5, 0.5]), IDENTITY, hamming_distortion(2),
                             1.0)


# ----------------------------------------------------------------------
# Reproducible streams
# ----------------------------------------------------------------------

def test_rng_spec_same_path_same_stream():
    a = RngSpec(42).generator("mc", 3).random(10)
    b = RngSpec(42).generator("mc", 3).random(10)
    assert np.array_equal(a, b)


def test_rng_spec_distinct_paths_distinct_streams():
    a = RngSpec(42).generator("mc", 0).random(10)
    b = RngSpec(42).generator("mc", 1).random(10)
    c = RngSpec(43).generator("mc", 0).random(10)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_spec_child_equals_inline_labels():
    base = RngSpec(7)
    a = base.child("N", 16).generator("mc", 2).random(5)
    b = base.generator("N", 16, "mc", 2).random(5)
    c = RngSpec(7, ("N", 16)).generator("mc", 2).random(5)
    assert np.array_equal(a, b)
    assert np.array_equal(a, c)


def test_label_encoding_rules():
    assert _encode_label("mc") == zlib.crc32(b"mc")
    assert _encode_label(12) == 12
    with pytest.raises(ValueError):
        _encode_label(-1)
    with pytest.raises(TypeError):
        _encode_label(1.5)


# ----------------------------------------------------------------------
# Channel sampling
# ----------------------------------------------------------------------

def test_sample_channel_law():
    rng = np.random.default_rng(0)
    draws = [sample_channel(bsc(0.3), 0, rng) for _ in range(20_000)]
    freq = np.mean(np.asarray(draws) == 1)
    assert abs(freq - 0.3) <= 3 * math.sqrt(0.3 * 0.7 / 20_000)


def test_sample_channel_batch_law_and_shape():
    rng = np.random.default_rng(1)
    x = np.zeros((500, 2000), dtype=np.int64)
    y = sample_channel_batch(bsc(0.3), x, rng)
    assert y.shape == x.shape
    n = y.size
    assert abs(float((y == 1).mean()) - 0.3) <= 3 * math.sqrt(0.3 * 0.7 / n)


def test_sample_channel_batch_respects_support():
    W = ChannelMatrix([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
    rng = np.random.default_rng(2)
    y0 = sample_channel_batch(W, np.zeros(10_000, dtype=np.int64), rng)
    y1 = sample_channel_batch(W, np.ones(10_000, dtype=np.int64), rng)
    assert set(np.unique(y0)) <= {0, 1}
    assert set(np.unique(y1)) <= {1, 2}


def test_sample_channel_batch_deterministic():
    x = np.zeros((4, 5), dtype=np.int64)
    a = sample_channel_batch(bsc(0.4), x, np.random.default_rng(3))
    b = sample_channel_batch(bsc(0.4), x, np.random.default_rng(3))
    assert np.array_equal(a, b)


def test_sample_pmf_batch_law_dtype_and_point_mass():
    rng = np.random.default_rng(4)
    draws = sample_pmf_batch(Pmf([0.2, 0.5, 0.3]), (100_000,), rng)
    assert draws.dtype == np.int8
    for letter, p in ((0, 0.2), (1, 0.5), (2, 0.3)):
        freq = float((draws == letter).mean())
        assert abs(freq - p) <= 3 * math.sqrt(p * (1 - p) / draws.size)
    point = sample_pmf_batch(Pmf([0.0, 1.0]), (50,), rng)
    assert np.all(point == 1)


# ----------------------------------------------------------------------
# SystemModel
# ----------------------------------------------------------------------

def test_system_model_build_checks():
    with pytest.raises(ValueError, match="alphabet"):
        SystemModel.build(Pmf([0.3, 0.3, 0.4]), bsc(0.1),
                          hamming_distortion(2), 0.2)
    with pytest.raises(ValueError):
        SystemModel.build(Pmf([0.5, 0.5]), bsc(0.1), hamming_distortion(2),
                          -0.1)


def test_system_model_derives_channel_params_on_first_use():
    assert [f.name for f in fields(SystemModel)] == ["P_V", "W", "d", "D"]
    model = bsc_model()
    assert model.params is model.params
    assert model.params.C == channel_params(model.W).C
    # A dead output column: the model builds, and its parameters refuse.
    dead = SystemModel.build(Pmf([0.5, 0.5]),
                             ChannelMatrix([[0.5, 0.5, 0.0],
                                            [0.5, 0.5, 0.0]]),
                             hamming_distortion(2), 0.2)
    with pytest.raises(ValueError, match="lambda"):
        dead.params


def test_system_model_derive_config_matches_manual_derivation():
    from vlfjscc import rate_distortion
    model = bsc_model()
    cfg = model.derive_config(16, 0.08, 0.3, master_seed=9)
    point = rate_distortion(model.P_V, model.d, model.D)
    manual = SchemeConfig.derive(16, 0.08, 0.3, point.R, model.params.C,
                                 master_seed=9)
    assert cfg == manual
    assert cfg.msg_len == 15 and cfg.ctrl_len == 1


@pytest.mark.parametrize("W", [bsc(0.1),
                               ChannelMatrix([[0.95, 0.05], [0.15, 0.85]])],
                         ids=["bsc01", "asymmetric"])
def test_system_model_rd_and_e_star_match_the_numerics(W):
    model = SystemModel.build(Pmf([0.5, 0.5]), W, hamming_distortion(2), 0.2)
    assert model.rd.R == rate_distortion(model.P_V, model.d, model.D).R
    assert model.rd.D == model.D
    assert model.rd is model.rd
    assert model.e_star == reliability_function(model.P_V, W, model.d,
                                                model.D)


def _noiseless_codes():
    model = noiseless_full_budget_model()
    return build_codes(model, model.derive_config(8, 0.2, 0.3),
                       np.random.default_rng(0))


def _noiseless_report():
    model = noiseless_full_budget_model()
    return monte_carlo(model.derive_config(8, 0.2, 0.3), model, 1, RngSpec(1))


@pytest.mark.parametrize("make", [
    lambda: Pmf([0.5, 0.5]),
    lambda: bsc(0.1),
    lambda: hamming_distortion(2),
    lambda: channel_params(bsc(0.1)),
    lambda: rate_distortion(Pmf([0.5, 0.5]), hamming_distortion(2), 0.1),
    lambda: build_source_code(Pmf([0.5, 0.5]), hamming_distortion(2),
                              rate_distortion(Pmf([0.5, 0.5]),
                                              hamming_distortion(2), 0.2),
                              6, 6, np.random.default_rng(0)),
    lambda: ChannelCodebook(M=2, length=3, codewords=np.zeros((2, 3))),
    lambda: build_control_code(channel_params(bsc(0.1)), 4, 0.3),
    lambda: Posterior.from_prior(Pmf([0.5, 0.5]), 3),
    _noiseless_report,
    bsc_model,
    _noiseless_codes,
], ids=["Pmf", "ChannelMatrix", "DistortionMatrix", "ChannelParams",
        "RdPoint", "SourceCodebook", "ChannelCodebook", "ControlCode",
        "Posterior", "EstimateReport", "SystemModel", "CodeSet"])
def test_array_holding_dataclasses_compare_by_identity(make):
    # Equal-valued instances with distinct arrays: == must not raise.
    a, b = make(), make()
    assert (a == b) is False
    assert a != b
    assert a == a


# ----------------------------------------------------------------------
# run_session
# ----------------------------------------------------------------------

def test_trial_record_requires_positive_tau():
    with pytest.raises(ValueError):
        TrialRecord(tau=0, retransmissions=0, realized_distortion=0.0,
                    excess=False)


def test_run_session_noiseless_full_budget_stops_immediately():
    model = noiseless_full_budget_model()
    cfg = model.derive_config(8, 0.2, 0.3)
    rng = np.random.default_rng(5)
    codes = build_codes(model, cfg, rng)
    for _ in range(10):
        rec = run_session(cfg, codes, model.W, model.P_V, rng)
        assert rec.tau == 8
        assert rec.retransmissions == 0
        assert not rec.excess
        assert rec.realized_distortion <= 1.0


def test_run_session_uncoverable_word_hits_cap():
    # Noiseless channel, zero budget, reproductions that never cover the
    # all-zeros word: every block sends e and is heard as e, forever.
    d = hamming_distortion(2)
    cfg = SchemeConfig(gamma=0.5, delta_ctrl=0.5, M=2, msg_len=2, ctrl_len=2,
                       master_seed=0)
    from vlfjscc import CodeSet
    params = channel_params(IDENTITY)
    codes = CodeSet(
        source=SourceCodebook(N=4, M=2,
                              reproductions=np.ones((2, 4), dtype=np.int8),
                              D=0.0, d=d),
        control=build_control_code(params, 2, 0.5),
        caid=params.caid)
    with pytest.raises(SessionCapExceeded) as exc:
        run_session(cfg, codes, IDENTITY, Pmf([0.5, 0.5]),
                    np.random.default_rng(6), session_cap=5,
                    source_word=(0, 0, 0, 0))
    assert exc.value.cap == 5
    assert exc.value.trial_index == 0
    assert "5 blocks" in str(exc.value)


@pytest.mark.parametrize("word", [(-1,) * 8, (0, 2) * 4,
                                  (0.7, 1.9, 1.2, 1.0, 0, 0, 0, 0)],
                         ids=["negative", "past_the_alphabet", "non_integral"])
def test_run_session_refuses_letters_outside_the_alphabet(word):
    model = bsc_model()
    cfg = model.derive_config(8, 0.08, 0.3)
    rng = np.random.default_rng(7)
    codes = build_codes(model, cfg, rng)
    with pytest.raises(ValueError, match="alphabet"):
        run_session(cfg, codes, model.W, model.P_V, rng, source_word=word)


# A word pair at the D boundary.  With decimal entries and N = 9 the word
# sum depends on summation order: in position order d(v, vhat) is exactly
# BOUNDARY_RADIUS, while numpy's pairwise-summed mean is one ulp above it.
BOUNDARY_D = DistortionMatrix([[0.0, 0.9, 0.1], [0.8, 0.0, 0.3],
                               [1.0, 0.8, 0.0]])
BOUNDARY_V = (0, 1, 0, 0, 1, 1, 0, 1, 2)
BOUNDARY_VHAT = (0, 2, 1, 0, 0, 1, 1, 2, 2)
BOUNDARY_RADIUS = 0.3555555555555555


def test_run_session_confirms_a_word_covered_at_the_d_boundary():
    # The encoder covers v with reproduction 2, so over a noiseless
    # channel the session must send c and stop without excess, not send e
    # until the cap.
    noiseless = ChannelMatrix(np.eye(3))
    params = channel_params(noiseless)
    source = SourceCodebook(N=9, M=2,
                            reproductions=[(1,) * 9, BOUNDARY_VHAT],
                            D=BOUNDARY_RADIUS, d=BOUNDARY_D)
    assert source_encode(source, BOUNDARY_V) == 2
    cfg = SchemeConfig(gamma=0.6, delta_ctrl=0.5, M=2, msg_len=6, ctrl_len=3,
                       master_seed=0)
    codes = CodeSet(source=source, control=build_control_code(params, 3, 0.5),
                    caid=params.caid)
    rec = run_session(cfg, codes, noiseless, Pmf([1.0, 1.0, 1.0]),
                      np.random.default_rng(0), session_cap=20,
                      source_word=BOUNDARY_V)
    assert not rec.excess
    assert rec.realized_distortion == BOUNDARY_RADIUS
    assert rec.tau == cfg.N * (rec.retransmissions + 1)


def test_batch_engine_excess_is_the_encoders_cover_verdict():
    # One reproduction (M = 1), so every block decodes it: a session stops
    # with excess exactly when the encoder's kernel leaves its word
    # uncovered, whatever the channel does to the control blocks.
    W = ChannelMatrix([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
    model = SystemModel.build(Pmf([1.0, 1.0, 1.0]), W, BOUNDARY_D,
                              BOUNDARY_RADIUS)
    source = SourceCodebook(N=9, M=1, reproductions=[BOUNDARY_VHAT],
                            D=BOUNDARY_RADIUS, d=BOUNDARY_D)
    codes = CodeSet(source=source,
                    control=build_control_code(model.params, 2, 0.5),
                    caid=model.params.caid)
    cfg = SchemeConfig(gamma=0.7, delta_ctrl=0.5, M=1, msg_len=7, ctrl_len=2,
                       master_seed=0)
    n = 2048
    _, excess = _simulate_chunk(
        cfg, codes, model, n, np.random.default_rng(4), session_cap=1000,
        trial_offset=0, message_phase=_MessagePhase(W, codes.caid, 7, 1))
    # The chunk's source words are the first draws of its stream; the
    # encoder's verdict is the position-order sum, pairwise_distortion,
    # against D.
    v = sample_pmf_batch(model.P_V, (n, 9), np.random.default_rng(4))
    dist = pairwise_distortion(BOUNDARY_D, v, source.reproductions)[:, 0]
    assert np.array_equal(excess, dist > BOUNDARY_RADIUS)
    # Some words sit where a pairwise-summed mean would read above D.
    mean = BOUNDARY_D.matrix[v, source.reproductions[0]].mean(axis=1)
    assert ((mean > BOUNDARY_RADIUS) & (dist <= BOUNDARY_RADIUS)).any()


def test_run_session_pathwise_invariants():
    model = bsc_model()
    cfg = model.derive_config(8, 0.08, 0.3)
    rng = np.random.default_rng(7)
    codes = build_codes(model, cfg, rng)
    for _ in range(50):
        rec = run_session(cfg, codes, model.W, model.P_V, rng)
        assert rec.tau % cfg.N == 0
        assert rec.tau == cfg.N * (rec.retransmissions + 1)
        assert rec.excess == (rec.realized_distortion > model.D)


def test_directly_built_block_runs_the_message_count_it_names():
    # M = 37 at N = 8 is no ceil(exp(8 (R(D) + 2 eps))) of any ready
    # epsilon; both engines run it against a 37-word source code.
    model = bsc_model()
    cfg = SchemeConfig(gamma=0.75, delta_ctrl=0.3, M=37, msg_len=6,
                       ctrl_len=2, master_seed=0)
    assert cfg.N == 8
    rep = monte_carlo(cfg, model, 500, RngSpec(3))
    assert rep.N == 8 and rep.trials == 500
    assert rep.etau_hat * (1.0 - rep.prt_hat) == pytest.approx(8.0,
                                                               rel=1e-12)
    rng = np.random.default_rng(3)
    codes = build_codes(model, cfg, rng)
    assert codes.source.reproductions.shape == (37, 8)
    assert codes.control.length == 2
    for _ in range(20):
        rec = run_session(cfg, codes, model.W, model.P_V, rng)
        assert rec.tau == 8 * (rec.retransmissions + 1)


def test_replaced_phase_length_charges_the_new_block_length():
    # N is msg_len + ctrl_len, so a shorter message phase is a shorter
    # block: 7 channel uses are charged per block, not the derived 12.
    model = bsc_model()
    cfg = replace(model.derive_config(12, 0.08, 0.3), msg_len=6)
    assert cfg.N == 6 + cfg.ctrl_len == 7
    rep = monte_carlo(cfg, model, 2000, RngSpec(1))
    assert rep.N == 7
    assert rep.etau_hat * (1.0 - rep.prt_hat) == pytest.approx(7.0,
                                                               rel=1e-12)


@pytest.mark.parametrize("change, named", [
    (lambda cfg: replace(cfg, M=3 * cfg.M), "M"),
    (lambda cfg: replace(cfg, msg_len=cfg.msg_len + 4), "N"),
    (lambda cfg: replace(cfg, msg_len=cfg.msg_len - 1,
                         ctrl_len=cfg.ctrl_len + 1), "ctrl_len"),
], ids=["M", "N", "ctrl_len"])
def test_run_session_refuses_codes_built_for_another_block(change, named):
    model = bsc_model()
    cfg = model.derive_config(12, 0.08, 0.3)
    rng = np.random.default_rng(8)
    codes = build_codes(model, cfg, rng)
    other = change(cfg)
    with pytest.raises(ValueError, match="codes built for") as exc:
        run_session(other, codes, model.W, model.P_V, rng)
    built = {"M": cfg.M, "N": cfg.N, "ctrl_len": cfg.ctrl_len}[named]
    wanted = getattr(other, named)
    assert f"{named} = {built}" in str(exc.value)
    assert f"{named} = {wanted}" in str(exc.value)


# ----------------------------------------------------------------------
# monte_carlo
# ----------------------------------------------------------------------

def test_monte_carlo_single_noiseless_trial():
    model = noiseless_full_budget_model()
    cfg = model.derive_config(8, 0.2, 0.3)
    rep = monte_carlo(cfg, model, 1, RngSpec(1))
    assert rep.trials == 1
    assert rep.pd_hat == 0.0
    assert rep.etau_hat == 8.0
    assert rep.etau_ci == 0.0
    assert rep.prt_hat == 0.0
    assert rep.pe_hat == 0.0
    assert rep.exponent_is_lower_bound
    assert math.isinf(rep.exponent_ci)
    assert np.array_equal(rep.block_counts, np.array([0, 1]))


def test_monte_carlo_deterministic_and_seed_sensitive():
    model = bsc_model()
    cfg = model.derive_config(8, 0.08, 0.3)
    a = monte_carlo(cfg, model, 500, RngSpec(42))
    b = monte_carlo(cfg, model, 500, RngSpec(42))
    c = monte_carlo(cfg, model, 500, RngSpec(43))
    assert a.pd_hat == b.pd_hat
    assert a.etau_hat == b.etau_hat
    assert a.prt_hat == b.prt_hat
    assert a.pe_hat == b.pe_hat
    assert np.array_equal(a.block_counts, b.block_counts)
    assert a.etau_hat != c.etau_hat


def test_monte_carlo_in_sample_renewal_identities():
    # Pooled per-block estimators make both identities exact in-sample:
    # every session ends with exactly one heard-c block, and that block
    # is the only one that can carry the session's excess flag.
    model = bsc_model()
    cfg = model.derive_config(8, 0.08, 0.3)
    rep = monte_carlo(cfg, model, 3000, RngSpec(5))
    assert rep.etau_hat * (1.0 - rep.prt_hat) == pytest.approx(8.0,
                                                               rel=1e-12)
    assert rep.pd_hat == pytest.approx(rep.pe_hat / (1.0 - rep.prt_hat),
                                       rel=1e-12)
    assert rep.pd_lo <= rep.pd_hat <= rep.pd_hi
    assert 0.0 < rep.prt_hat < 1.0


def test_monte_carlo_chunk_boundary():
    model = bsc_model()
    cfg = model.derive_config(8, 0.08, 0.3)
    rep = monte_carlo(cfg, model, 2049, RngSpec(2))
    assert rep.trials == 2049
    assert int(rep.block_counts.sum()) == 2049
    assert rep.etau_hat * (1.0 - rep.prt_hat) == pytest.approx(8.0,
                                                               rel=1e-12)


def test_monte_carlo_propagates_session_cap():
    model = bsc_model()
    cfg = model.derive_config(8, 0.08, 0.3)
    with pytest.raises(SessionCapExceeded) as exc:
        monte_carlo(cfg, model, 64, RngSpec(7), session_cap=1)
    assert exc.value.cap == 1
    assert 0 <= exc.value.trial_index < 64


@pytest.mark.parametrize("engine", ["run_session", "monte_carlo"])
def test_session_cap_below_one_is_refused(engine):
    model = bsc_model()
    cfg = model.derive_config(8, 0.08, 0.3)
    codes = build_codes(model, cfg, np.random.default_rng(0))
    for cap in (0, -3):
        with pytest.raises(ValueError, match="session_cap"):
            if engine == "run_session":
                run_session(cfg, codes, model.W, model.P_V,
                            np.random.default_rng(1), session_cap=cap)
            else:
                monte_carlo(cfg, model, 16, RngSpec(0), session_cap=cap)


def test_monte_carlo_rejects_zero_trials():
    model = bsc_model()
    cfg = model.derive_config(8, 0.08, 0.3)
    with pytest.raises(ValueError):
        monte_carlo(cfg, model, 0, RngSpec(0))


TERNARY = ChannelMatrix([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])


def _two_sample_z(mean_a, var_a, n_a, mean_b, var_b, n_b):
    return abs(mean_a - mean_b) / math.sqrt(var_a / n_a + var_b / n_b)


def test_fast_and_general_paths_agree_in_law():
    # The message-phase kernel of monte_carlo against run_session, which
    # draws and ML-decodes explicit codebooks, on one source codebook.
    n_mc, n_ref = 16384, 4096
    for W in (bsc(0.1), ChannelMatrix([[0.95, 0.05], [0.15, 0.85]]),
              TERNARY):
        model = SystemModel.build(Pmf([0.5, 0.5]), W, hamming_distortion(2),
                                  0.2)
        cfg = model.derive_config(8, 0.08, 0.3)
        fast = monte_carlo(cfg, model, n_mc, RngSpec(11))
        codes = build_codes(model, cfg, RngSpec(11).generator("source-code"))
        rng = RngSpec(11).generator("sessions")
        records = [run_session(cfg, codes, model.W, model.P_V, rng)
                   for _ in range(n_ref)]
        blocks = np.array([rec.retransmissions + 1 for rec in records],
                          dtype=float)
        pd_ref = float(np.mean([rec.excess for rec in records]))
        pooled = (pd_ref * n_ref + fast.pd_hat * n_mc) / (n_ref + n_mc)
        var_pd = pooled * (1 - pooled)
        assert _two_sample_z(pd_ref, var_pd, n_ref,
                             fast.pd_hat, var_pd, n_mc) <= 5.0
        counts = fast.block_counts
        k = np.arange(len(counts))
        mean_mc = float((k * counts).sum() / n_mc)
        var_mc = float((counts * (k - mean_mc) ** 2).sum() / (n_mc - 1))
        assert _two_sample_z(float(blocks.mean()), float(blocks.var(ddof=1)),
                             n_ref, mean_mc, var_mc, n_mc) <= 5.0
        # Sessions that stop after one block: message-decoding errors move
        # this share most, since uncovered words dilute pd and mean blocks.
        one_ref = float((blocks == 1).mean())
        pooled = (one_ref * n_ref + counts[1]) / (n_ref + n_mc)
        var_one = pooled * (1 - pooled)
        assert _two_sample_z(one_ref, var_one, n_ref,
                             counts[1] / n_mc, var_one, n_mc) <= 5.0
        prt_ref = float((blocks - 1).sum() / blocks.sum())
        assert abs(fast.prt_hat - prt_ref) <= 0.04


def _exact_decoded_law(W: ChannelMatrix, caid, L: int, M: int, msg: int):
    """Exact law of the ML message (ties to the lowest index) when message
    ``msg`` is sent on a fresh i.i.d. codebook: every true codeword, output
    and competitor codebook is enumerated, with exact rational likelihoods.
    """
    words = list(itertools.product(range(W.num_inputs), repeat=L))
    p_word = np.array([math.prod(caid[x] for x in w) for w in words])
    rivals = np.array(list(itertools.product(range(len(words)),
                                             repeat=M - 1)),
                      dtype=np.int64).reshape(len(words) ** (M - 1), M - 1)
    p_rivals = p_word[rivals].prod(axis=1)
    law = np.zeros(M)
    for y in itertools.product(range(W.num_outputs), repeat=L):
        lik = [math.prod(Fraction(W.matrix[x, b]) for x, b in zip(w, y))
               for w in words]
        level = {v: i for i, v in enumerate(sorted(set(lik)))}
        rank = np.array([level[v] for v in lik])
        for t in range(len(words)):
            p_true = p_word[t] * float(lik[t])
            if p_true == 0.0:
                continue
            table = np.insert(rank[rivals], msg - 1, rank[t], axis=1)
            law += np.bincount(table.argmax(axis=1),
                               weights=p_true * p_rivals, minlength=M)
    return law


@pytest.mark.parametrize("W, caid, L, M, msg", [
    (bsc(0.1), [0.5, 0.5], 3, 4, 2),
    (ChannelMatrix([[0.95, 0.05], [0.15, 0.85]]), [0.55, 0.45], 3, 4, 3),
    (TERNARY, [1 / 3, 1 / 3, 1 / 3], 2, 3, 2),
    (ChannelMatrix([[1.0, 0.0], [0.3, 0.7]]), [0.6, 0.4], 3, 4, 1),
    (bsc(0.1), [0.5, 0.5], 3, 1, 1),
], ids=["bsc-L3-M4", "asymmetric-L3-M4", "ternary-L2-M3", "zero-entry-L3-M4",
        "M1"])
def test_message_phase_kernel_matches_exact_ml_law(W, caid, L, M, msg):
    exact = _exact_decoded_law(W, caid, L, M, msg)
    assert exact.sum() == pytest.approx(1.0, abs=1e-12)
    n = 200_000
    decoded = _MessagePhase(W, Pmf(caid), L, M).decide(
        np.full(n, msg), np.random.default_rng(12))
    freq = np.bincount(decoded - 1, minlength=M) / n
    assert len(freq) == M
    for f, p in zip(freq, exact):
        if p < 1e-15 or p > 1.0 - 1e-15:
            assert f == round(p)
        else:
            assert abs(f - p) <= 5.0 * math.sqrt(p * (1 - p) / n)


KERNEL_CHANNELS = [
    (bsc(0.1), [0.5, 0.5]),
    (ChannelMatrix([[0.95, 0.05], [0.15, 0.85]]), [0.55, 0.45]),
    (TERNARY, [1 / 3, 1 / 3, 1 / 3]),
    (ChannelMatrix([[1.0, 0.0], [0.3, 0.7]]), [0.6, 0.4]),
]


@pytest.mark.parametrize("W, caid", KERNEL_CHANNELS,
                         ids=["bsc", "asymmetric", "ternary", "zero-entry"])
@pytest.mark.parametrize("M", [4, 1000])
def test_type_key_lookup_is_the_searchsorted_index(W, caid, M):
    # Every output type at L <= 6, met a few at a time in shuffled order
    # so the padded tables grow, then all at once: at each G entry, its
    # neighbours and 0, the lookup must read the law at searchsorted(G).
    rng = np.random.default_rng(3)
    n_out = W.num_outputs
    for L in range(1, 7):
        phase = _MessagePhase(W, Pmf(caid), L, M)
        types = [c for c in itertools.product(range(L + 1), repeat=n_out)
                 if sum(c) == L]
        rng.shuffle(types)
        batches = [types[i:i + 3] for i in range(0, len(types), 3)] + [types]
        for batch in batches:
            ys, log_u, want_vals, want_a = [], [], [], []
            for counts in batch:
                vals, G, a = phase._law(counts)
                at = np.concatenate([G, np.nextafter(G, -np.inf),
                                     np.nextafter(G, np.inf), [0.0]])
                at = at[(at <= 0.0) & np.isfinite(at)]
                j = np.searchsorted(G, at)
                word = np.repeat(np.arange(n_out), counts)
                ys.append(np.tile(word, (len(at), 1)))
                log_u.append(at)
                want_vals.append(vals[j])
                want_a.append(a[j])
            got_vals, got_a = phase._lookup(np.concatenate(ys),
                                            np.concatenate(log_u)[:, None])
            assert np.array_equal(got_vals, np.concatenate(want_vals))
            assert np.array_equal(got_a, np.concatenate(want_a))
        assert len(phase._types[0]) == len(types) + 1


@pytest.mark.parametrize("n_out, L", [(8, 20), (64, 12)])
def test_type_keys_of_a_channel_with_many_outputs(n_out, L):
    # Keys are ranks among the comb(L + |Y| - 1, |Y| - 1) output types, so
    # they fit int64 where a radix (L + 1)**(|Y| - 1) would need 14 GB of
    # slots (|Y| = 8, L = 20) or overflow (|Y| = 64).
    rng = np.random.default_rng(4)
    W = ChannelMatrix(rng.random((2, n_out)) + 0.1)
    phase = _MessagePhase(W, Pmf([0.5, 0.5]), L, 1000)
    y = rng.integers(0, n_out, size=(40, L))
    y[1::2] = y[::2]  # every type met twice
    log_u = np.log(1.0 - rng.random((40, 1)))
    got_vals, got_a = phase._lookup(y, log_u)
    counts = [tuple(np.bincount(row, minlength=n_out)) for row in y]
    keys = phase._types[0][1:]
    assert len(keys) == len(set(counts))
    assert 0 <= keys.min() and keys.max() < math.comb(L + n_out - 1, L)
    for row, c in enumerate(counts):
        vals, G, a = phase._law(c)
        j = np.searchsorted(G, log_u[row, 0])
        assert got_vals[row] == vals[j] and got_a[row] == a[j]


def test_monte_carlo_on_a_channel_with_eight_outputs():
    W = ChannelMatrix([[0.4, 0.3, 0.15, 0.1, 0.02, 0.01, 0.01, 0.01],
                       [0.01, 0.01, 0.01, 0.02, 0.1, 0.15, 0.3, 0.4]])
    model = SystemModel.build(Pmf([0.5, 0.5]), W, hamming_distortion(2), 0.2)
    cfg = model.derive_config(16, 0.1, 0.3)
    assert cfg.msg_len == 15
    rep = monte_carlo(cfg, model, 200, RngSpec(2))
    assert rep.trials == 200 and rep.etau_hat >= cfg.N


def test_report_gamma_is_the_split_that_ran():
    # The canonical gamma of N = 12 is 0.979; a block replaced to a 6/7
    # split reports 6/7.
    model = bsc_model()
    cfg = model.derive_config(12, 0.08, 0.3)
    assert monte_carlo(cfg, model, 50, RngSpec(1)).gamma == cfg.msg_len / 12
    rep = monte_carlo(replace(cfg, msg_len=6), model, 50, RngSpec(1))
    assert rep.gamma == 6 / 7


def test_monte_carlo_on_one_model_equals_fresh_models():
    model = bsc_model()
    short, long = (model.derive_config(N, 0.08, 0.3) for N in (8, 12))
    for cfg, seed in ((short, 1), (long, 2), (short, 3)):
        kept = monte_carlo(cfg, model, 600, RngSpec(seed))
        fresh = monte_carlo(cfg, bsc_model(), 600, RngSpec(seed))
        for f in fields(EstimateReport):
            assert np.array_equal(getattr(kept, f.name),
                                  getattr(fresh, f.name)), f.name


def test_type_laws_are_stored_unpadded():
    # Only G is padded (by +inf); a type's values and a fill exactly its
    # slice start[row]:start[row + 1] of the flat arrays.
    W = ChannelMatrix([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])
    phase = _MessagePhase(W, Pmf([0.5, 0.5]), 6, 50)
    y = np.random.default_rng(5).integers(0, 3, size=(300, 6))
    for lo in range(0, 300, 7):
        phase._lookup(y[lo:lo + 7], np.full((len(y[lo:lo + 7]), 1), -1.0))
    keys, _, G, start, flat = phase._types
    laws = {tuple(np.bincount(row, minlength=3)): None for row in y}
    assert len(keys) == len(laws) + 1
    for counts in laws:
        vals, g, a = phase._law(counts)
        key = phase._rank[np.cumsum(counts[:-1]), np.arange(2)].sum()
        row = int(np.flatnonzero(keys == key)[0])
        assert np.array_equal(G[row, :len(g)], g)
        assert np.all(G[row, len(g):] == np.inf)
        assert start[row + 1] - start[row] == len(vals)
        assert np.array_equal(flat[0, start[row]:start[row + 1]], vals)
        assert np.array_equal(flat[1, start[row]:start[row + 1]], a)
    assert start[len(keys)] == sum(len(phase._law(c)[0]) for c in laws)


# ----------------------------------------------------------------------
# Wide session steps
# ----------------------------------------------------------------------

def _fixed_word_block(W: ChannelMatrix, D: float, ctrl_len: int,
                      delta: float):
    """A block whose every source word is all zeros and every reproduction
    all ones, so a word is covered exactly when D >= 1; its message phase
    is noiseless."""
    params = channel_params(W)
    N = 4 + ctrl_len
    cfg = SchemeConfig(gamma=4 / N, delta_ctrl=delta, M=2, msg_len=4,
                       ctrl_len=ctrl_len, master_seed=0)
    source = SourceCodebook(N=N, M=2,
                            reproductions=np.ones((2, N), dtype=np.int8),
                            D=D, d=hamming_distortion(2))
    codes = CodeSet(source=source,
                    control=build_control_code(params, ctrl_len, delta),
                    caid=params.caid)
    return cfg, codes


@pytest.mark.parametrize("D, ctrl_len, stop", [
    (1.0, 4, lambda: 1.0 - exact_p_ce(4)),
    (0.0, 1, lambda: exact_p_ec(1)),
], ids=["always-covered", "never-covered"])
def test_wide_steps_keep_the_geometric_stop_law(D, ctrl_len, stop):
    # Every session sends the same control word every block, so its block
    # count is exactly Geometric(P(c|c)) or Geometric(P(c|e)).
    p, n = stop(), 20_000
    cfg, codes = _fixed_word_block(bsc(0.1), D, ctrl_len, 0.3)
    v = np.zeros((n, cfg.N), dtype=np.int8)
    tau, end_dist = _sessions(cfg, codes, bsc(0.1), v,
                              lambda msg, rng: msg,
                              np.random.default_rng(9), session_cap=10_000,
                              trial_offset=0)
    assert np.all(tau % cfg.N == 0) and np.all(end_dist == 1.0)
    blocks = tau // cfg.N
    sd = math.sqrt(1.0 - p) / p
    assert abs(blocks.mean() - 1.0 / p) <= 5.0 * sd / math.sqrt(n)
    gof = geometric_gof(np.bincount(blocks), 1.0 - p)
    assert gof.df >= 3 and gof.pvalue > 1e-6, gof


def _counting_decide(calls):
    def decide(msg, rng):
        calls.append(len(msg))
        return msg
    return decide


def test_wide_steps_stop_at_the_session_cap():
    # The never-stopping setup of test_run_session_uncoverable_word_hits_cap
    # on 64 rows: every session runs exactly session_cap blocks.
    cfg, codes = _fixed_word_block(IDENTITY, 0.0, 2, 0.5)
    calls = []
    with pytest.raises(SessionCapExceeded) as exc:
        _sessions(cfg, codes, IDENTITY, np.zeros((64, 6), dtype=np.int8),
                  _counting_decide(calls), np.random.default_rng(6),
                  session_cap=7, trial_offset=0)
    assert exc.value.cap == 7 and exc.value.trial_index == 0
    assert calls == [64] * 7


def test_few_live_sessions_take_wide_steps_up_to_the_cap():
    # 56 covered words stop at their first block; the 8 uncovered ones
    # then run 1, 2 and (clamped by the cap) 3 blocks per step, never more
    # rows than words.
    cfg, codes = _fixed_word_block(IDENTITY, 0.0, 2, 0.5)
    v = np.ones((64, 6), dtype=np.int8)
    v[3:11] = 0
    calls = []
    with pytest.raises(SessionCapExceeded) as exc:
        _sessions(cfg, codes, IDENTITY, v, _counting_decide(calls),
                  np.random.default_rng(6), session_cap=7, trial_offset=100)
    assert exc.value.cap == 7 and exc.value.trial_index == 103
    assert "7 blocks" in str(exc.value)
    assert calls == [64, 8, 16, 24]
    calls.clear()
    tau, _ = _sessions(cfg, codes, IDENTITY, v[11:], _counting_decide(calls),
                       np.random.default_rng(6), session_cap=7,
                       trial_offset=0)
    assert calls == [53] and np.all(tau == cfg.N)


# ----------------------------------------------------------------------
# Interval estimators
# ----------------------------------------------------------------------

def test_wilson_interval_matches_scipy():
    for k, n in ((5, 50), (0, 20), (20, 20), (314, 1000)):
        lo, hi = wilson_interval(k, n)
        ci = binomtest(k, n).proportion_ci(confidence_level=0.95,
                                           method="wilson")
        assert lo == pytest.approx(ci.low, abs=1e-12)
        assert hi == pytest.approx(ci.high, abs=1e-12)
    assert wilson_interval(0, 20)[0] == 0.0
    assert wilson_interval(20, 20)[1] == 1.0
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def test_rule_of_three():
    assert rule_of_three(100) == pytest.approx(0.03)
    assert rule_of_three(10_000) == pytest.approx(3e-4)


@pytest.mark.parametrize("estimate", [
    lambda: rule_of_three(0),
    lambda: control_phase_exponent(bsc_model(), [4, 8, 12], 0, 0.3,
                                   RngSpec(0)),
], ids=["rule_of_three", "control_phase_exponent"])
def test_zero_trials_is_a_value_error(estimate):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        estimate()


# ----------------------------------------------------------------------
# Geometric goodness of fit
# ----------------------------------------------------------------------

def _counts_and_prt(samples: np.ndarray):
    counts = np.bincount(samples)
    prt_hat = 1.0 - 1.0 / float(samples.mean())
    return counts, prt_hat


def test_geometric_gof_accepts_true_geometric():
    rng = np.random.default_rng(8)
    samples = rng.geometric(0.5, size=20_000)
    counts, prt_hat = _counts_and_prt(samples)
    res = geometric_gof(counts, prt_hat)
    assert res.pvalue > 0.01
    assert res.df == res.bins - 2
    assert res.bins >= 3


def test_geometric_gof_rejects_mixture():
    rng = np.random.default_rng(9)
    samples = np.concatenate([rng.geometric(0.9, size=10_000),
                              rng.geometric(0.15, size=10_000)])
    counts, prt_hat = _counts_and_prt(samples)
    res = geometric_gof(counts, prt_hat)
    assert res.pvalue < 0.01


def test_geometric_gof_degenerate_inputs():
    # Nearly all mass in one bin cannot support a fit: p-value 1.
    res = geometric_gof(np.array([0, 100]), 0.01)
    assert res.pvalue == 1.0 and res.bins < 3
    res = geometric_gof(np.array([0, 50, 25, 13, 12]), 0.0)
    assert res.pvalue == 1.0


def test_geometric_gof_pvalue_is_chi_square_tail():
    rng = np.random.default_rng(10)
    for p in (0.3, 0.5, 0.8):
        counts, prt_hat = _counts_and_prt(rng.geometric(p, size=5_000))
        res = geometric_gof(counts, prt_hat)
        assert res.pvalue == pytest.approx(chi2.sf(res.statistic, res.df),
                                           rel=1e-12, abs=1e-300)


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs most of the package's import time; the package
    # needs only scipy.special.
    package_root = str(Path(vlfjscc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, vlfjscc; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------

def test_sweep_rejects_unsorted_n_list():
    model = bsc_model()
    with pytest.raises(ValueError, match="ascending"):
        empirical_exponent_sweep(model, 0.08, 0.3, [12, 8], 10, RngSpec(0))


def test_sweep_noiseless_rows_and_infinite_theory():
    model = noiseless_full_budget_model()
    res = empirical_exponent_sweep(model, 0.2, 0.3, [4, 8], 50, RngSpec(3))
    assert [row.N for row in res.rows] == [4, 8]
    assert res.rows[0].report.etau_hat == 4.0
    assert res.rows[1].report.etau_hat == 8.0
    assert math.isinf(res.exponent_theory)


def test_sweep_bsc_theory_value_and_per_n_reports():
    model = bsc_model()
    res = empirical_exponent_sweep(model, 0.08, 0.3, [8, 12], 400, RngSpec(4))
    assert res.exponent_theory == pytest.approx(0.8372804446978177, abs=1e-9)
    assert res.rows[0].report.N == 8 and res.rows[1].report.N == 12
    for row in res.rows:
        assert row.report.trials == 400
        assert row.report.etau_hat * (1 - row.report.prt_hat) == \
            pytest.approx(row.N, rel=1e-12)
    # Rows use independent child streams keyed by N, so a rerun of one N
    # in isolation reproduces that row exactly.
    cfg = model.derive_config(12, 0.08, 0.3, master_seed=4)
    alone = monte_carlo(cfg, model, 400, RngSpec(4).child("N", 12))
    assert alone.etau_hat == res.rows[1].report.etau_hat


# ----------------------------------------------------------------------
# Control-phase crossover exponents
# ----------------------------------------------------------------------

def exact_p_ec(m: int) -> float:
    # Sent e through BSC(0.1): LLR sum is ln9*(2Z - m), Z ~ Bin(m, 0.1);
    # heard c iff the sum clears m*(B - 0.3).
    z_min = math.ceil(0.5 * m * (1.0 + (BSC01_B - 0.3) / LN9) - 1e-12)
    return float(binom.sf(z_min - 1, m, 0.1))


def exact_p_ce(m: int) -> float:
    # Sent c: Z ~ Bin(m, 0.9); heard e iff the sum stays below threshold.
    z_min = math.ceil(0.5 * m * (1.0 + (BSC01_B - 0.3) / LN9) - 1e-12)
    return float(binom.cdf(z_min - 1, m, 0.9))


def test_control_exponent_exact_oracles():
    assert exact_p_ec(4) == pytest.approx(1e-4, rel=1e-9)
    assert exact_p_ce(4) == pytest.approx(0.3439, rel=1e-9)
    assert exact_p_ec(8) == pytest.approx(7.3e-7, rel=1e-9)


def test_control_phase_exponent_needs_three_lengths():
    with pytest.raises(ValueError, match="three"):
        control_phase_exponent(bsc_model(), [4, 8], 100, 0.3, RngSpec(0))


def test_control_phase_exponent_rejects_zero_divergence_channel():
    model = SystemModel.build(Pmf([0.5, 0.5]),
                              ChannelMatrix([[0.4, 0.6], [0.4, 0.6]]),
                              hamming_distortion(2), 0.2)
    with pytest.raises(ValueError, match="control phase"):
        control_phase_exponent(model, [4, 6, 8], 100, 0.3, RngSpec(0))


def test_control_phase_exponent_against_binomial_tails():
    model = bsc_model()
    trials = 200_000
    res = control_phase_exponent(model, [4, 6, 8], trials, 0.3, RngSpec(3))
    assert res.B == pytest.approx(BSC01_B, abs=1e-12)
    by_m = {pt.m: pt for pt in res.points}
    for m in (4, 6):
        pt = by_m[m]
        exact = exact_p_ec(m)
        assert not pt.p_ec_flagged
        assert abs(pt.p_ec_hat - exact) <= 5 * math.sqrt(exact / trials)
        assert pt.p_ec_lo <= pt.p_ec_hi
    # Expected e->c count at m=8 is 0.15 events: either none are seen
    # (flagged, rule-of-three bound) or at most a couple.
    pt8 = by_m[8]
    assert pt8.p_ec_flagged or pt8.p_ec_hat <= 2e-5
    for m in (4, 6, 8):
        pt = by_m[m]
        exact = exact_p_ce(m)
        assert not pt.p_ce_flagged
        assert abs(pt.p_ce_hat - exact) <= 0.01
    # c->e slope: exact least squares over the three points gives 0.152.
    ys = [-math.log(exact_p_ce(m)) for m in (4, 6, 8)]
    exact_slope = float(np.polyfit([4, 6, 8], ys, 1)[0])
    assert res.slope_ce == pytest.approx(exact_slope, abs=0.05)
    assert res.slope_ce > 0.0
    if res.slope_ec is not None:
        assert res.slope_ec > 0.0


def test_control_phase_exponent_at_long_blocks_against_binomial_tails():
    # The control lengths of the characterise-bsc benchmark workload.
    # Each c->e count must hold its exact tail within a z = 5 Wilson
    # interval; no e->c event can be expected.
    trials, z = 100_000, 5.0
    res = control_phase_exponent(bsc_model(), (50, 100, 200), trials, 0.3,
                                 RngSpec(8))
    for pt in res.points:
        assert pt.p_ec_flagged and exact_p_ec(pt.m) * trials < 0.01
        assert not pt.p_ce_flagged
        p, denom = pt.p_ce_hat, 1 + z * z / trials
        center = (p + z * z / (2 * trials)) / denom
        half = z * math.sqrt(p * (1 - p) / trials
                             + z * z / (4 * trials ** 2)) / denom
        assert abs(exact_p_ce(pt.m) - center) <= half, (pt.m, p)


ASYM =ChannelMatrix([[0.95, 0.05], [0.15, 0.85]])
ASYM_TERNARY = ChannelMatrix([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6],
                              [0.2, 0.5, 0.3]])


def exact_crossovers(W: ChannelMatrix, ctrl: ControlCode) -> tuple:
    """Exact (P(e->c), P(c->e)) of a repetition control code.

    Sums the multinomial pmf of every output type of the m letters under
    x_e (accepted types) and under x_c (rejected types).  Each type is
    decided on its exact LLR sum; a type within 1e-9 of the threshold
    would make the decision depend on rounding, and is refused.
    """
    m, q, llr = ctrl.length, W.num_outputs, ctrl.llr
    p_ec = p_ce = 0.0
    for head in itertools.product(range(m + 1), repeat=q - 1):
        if sum(head) > m:
            continue
        counts = head + (m - sum(head),)
        used = [b for b in range(q) if counts[b]]
        if any(llr[b] == -math.inf for b in used):
            accept = False
        elif any(llr[b] == math.inf for b in used):
            accept = True
        else:
            total = math.fsum(counts[b] * llr[b] for b in used)
            assert abs(total - ctrl.llr_threshold) > 1e-9, counts
            accept = total >= ctrl.llr_threshold
        ways = math.factorial(m)
        for c in counts:
            ways //= math.factorial(c)
        x = int(ctrl.x_e[0]) if accept else int(ctrl.x_c[0])
        pr = ways * math.prod(W.matrix[x, b] ** counts[b] for b in used)
        if accept:
            p_ec += pr
        else:
            p_ce += pr
    return p_ec, p_ce


def test_exact_crossovers_match_the_binomial_tails_on_the_bsc():
    model = bsc_model()
    for m in (4, 6, 8):
        ctrl = build_control_code(model.params, m, 0.3)
        p_ec, p_ce = exact_crossovers(model.W, ctrl)
        assert p_ec == pytest.approx(exact_p_ec(m), rel=1e-9)
        assert p_ce == pytest.approx(exact_p_ce(m), rel=1e-9)


@pytest.mark.parametrize("W, m_list, trials", [
    (ASYM, [2, 4, 6], 400_000),
    (ASYM_TERNARY, [4, 6, 8], 200_000),
], ids=["asym", "ternary"])
def test_control_phase_exponent_in_law_beyond_the_bsc(W, m_list, trials):
    # The type draws against exact sums over output types, |z| <= 5 at
    # every point; each point expects at least 25 events of both kinds.
    model = SystemModel.build(Pmf([0.5, 0.5]), W, hamming_distortion(2), 0.2)
    delta = 1.0
    res = control_phase_exponent(model, m_list, trials, delta, RngSpec(5))
    for pt in res.points:
        ctrl = build_control_code(model.params, pt.m, delta)
        for hat, flagged, exact in zip((pt.p_ec_hat, pt.p_ce_hat),
                                       (pt.p_ec_flagged, pt.p_ce_flagged),
                                       exact_crossovers(W, ctrl)):
            assert trials * exact >= 25
            k = 0 if flagged else round(hat * trials)
            z = (k - trials * exact) / math.sqrt(trials * exact * (1 - exact))
            assert abs(z) <= 5, (pt.m, k, exact, z)


def test_control_type_draws_do_not_depend_on_the_chunk(monkeypatch):
    model = SystemModel.build(Pmf([0.5, 0.5]), ASYM_TERNARY,
                              hamming_distortion(2), 0.2)
    whole = control_phase_exponent(model, [4, 6, 8], 2000, 1.0, RngSpec(6))
    # Three rows of three letters per draw; 2000 is no multiple of three.
    monkeypatch.setattr(vlfjscc.simulation, "CONTROL_CHUNK_CELLS", 9)
    chunked = control_phase_exponent(model, [4, 6, 8], 2000, 1.0,
                                     RngSpec(6))
    assert chunked == whole
    assert all(pt.p_ec_hat > 0.005 and pt.p_ce_hat > 0.01
               for pt in whole.points)

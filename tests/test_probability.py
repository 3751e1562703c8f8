"""Unit tests for the probability primitives.

Closed-form oracles are written out explicitly before the assertions they
feed, so every frozen constant can be re-derived by reading this file.
"""

import math

import numpy as np
import pytest

from vlfjscc import (
    ChannelMatrix,
    DistortionMatrix,
    Pmf,
    binary_entropy,
    channel_params,
    distortion,
    distortion_ball,
    entropy,
    enumerate_words,
    hamming_distortion,
    kl_divergence,
    mutual_information,
    pairwise_distortion,
    rate_distortion,
    word_index,
)
from vlfjscc.probability import _as_clipped, _divergences

# ----------------------------------------------------------------------
# Oracles (independent closed forms, computed before use)
# ----------------------------------------------------------------------

def h2(x: float) -> float:
    """Binary entropy in nats, written directly from the definition."""
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log(x) - (1.0 - x) * math.log(1.0 - x)


# BSC(p): B = max KL between the two rows = (1-2p) ln((1-p)/p).
BSC01_B = (1.0 - 2 * 0.1) * math.log(0.9 / 0.1)
# BSC(p): C = ln 2 - h2(p) under the uniform input.
BSC01_C = math.log(2.0) - h2(0.1)


# ----------------------------------------------------------------------
# Pmf
# ----------------------------------------------------------------------

def test_pmf_accepts_valid_and_exposes_size():
    p = Pmf([0.25, 0.75])
    assert len(p) == 2
    assert p.alphabet_size == 2
    assert np.allclose(p.probs, [0.25, 0.75])


def test_pmf_rejects_negative_entries():
    with pytest.raises(ValueError):
        Pmf([1.2, -0.2])


def test_pmf_normalizes_weights_once():
    p = Pmf([0.5, 0.6])
    assert p.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(p.probs, [0.5 / 1.1, 0.6 / 1.1])


def test_pmf_rejects_zero_sum():
    with pytest.raises(ValueError):
        Pmf([0.0, 0.0])


def test_pmf_probs_are_read_only():
    p = Pmf([0.5, 0.5])
    with pytest.raises(ValueError):
        p.probs[0] = 1.0


def test_pmf_allows_zero_mass_letters():
    p = Pmf([1.0, 0.0])
    assert p.probs[1] == 0.0


# ----------------------------------------------------------------------
# ChannelMatrix
# ----------------------------------------------------------------------

def test_channel_matrix_shape_and_rows():
    W = ChannelMatrix([[0.9, 0.1], [0.2, 0.8]])
    assert W.num_inputs == 2
    assert W.num_outputs == 2
    assert np.allclose(W.row(0).probs, [0.9, 0.1])


def test_channel_matrix_normalizes_rows():
    W = ChannelMatrix([[0.9, 0.2], [0.1, 0.9]])
    assert np.allclose(W.matrix.sum(axis=1), 1.0, atol=1e-12)


def test_channel_matrix_rejects_negative_entries():
    with pytest.raises(ValueError):
        ChannelMatrix([[1.1, -0.1], [0.5, 0.5]])


def test_channel_matrix_is_read_only():
    W = ChannelMatrix([[0.9, 0.1], [0.1, 0.9]])
    with pytest.raises(ValueError):
        W.matrix[0, 0] = 0.5


# ----------------------------------------------------------------------
# DistortionMatrix
# ----------------------------------------------------------------------

def test_hamming_distortion_entries():
    d = hamming_distortion(3)
    assert d.alphabet_size == 3
    assert d.d_max == 1.0
    assert np.allclose(d.matrix, 1.0 - np.eye(3))


def test_distortion_matrix_rejects_negative():
    with pytest.raises(ValueError):
        DistortionMatrix([[0.0, -1.0], [1.0, 0.0]])


def test_distortion_averages_per_letter():
    d = hamming_distortion(2)
    assert distortion(d, (0, 0, 1, 1), (0, 1, 1, 0)) == pytest.approx(0.5)
    assert distortion(d, (1,), (1,)) == 0.0


def test_distortion_rejects_length_mismatch():
    d = hamming_distortion(2)
    with pytest.raises(ValueError):
        distortion(d, (0, 1), (0,))


# ----------------------------------------------------------------------
# Information measures
# ----------------------------------------------------------------------

def test_entropy_uniform_and_point_mass():
    assert entropy(Pmf([0.25] * 4)) == pytest.approx(math.log(4.0), abs=1e-12)
    assert entropy(Pmf([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)


def test_binary_entropy_matches_direct_formula():
    assert binary_entropy(0.1) == pytest.approx(h2(0.1), abs=1e-12)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0


def test_kl_divergence_zero_iff_equal_and_known_value():
    p = Pmf([0.3, 0.7])
    q = Pmf([0.5, 0.5])
    assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)
    oracle = 0.3 * math.log(0.3 / 0.5) + 0.7 * math.log(0.7 / 0.5)
    assert kl_divergence(p, q) == pytest.approx(oracle, abs=1e-12)


def test_kl_divergence_infinite_on_support_mismatch():
    p = Pmf([1.0, 0.0])
    q = Pmf([0.0, 1.0])
    assert math.isinf(kl_divergence(p, q))


def test_mutual_information_bsc_closed_form():
    W = ChannelMatrix([[0.9, 0.1], [0.1, 0.9]])
    got = mutual_information(Pmf([0.5, 0.5]), W)
    assert got == pytest.approx(BSC01_C, abs=1e-12)


def test_mutual_information_zero_for_identical_rows():
    W = ChannelMatrix([[0.4, 0.6], [0.4, 0.6]])
    assert mutual_information(Pmf([0.3, 0.7]), W) == pytest.approx(0.0, abs=1e-12)


# ----------------------------------------------------------------------
# channel_params
# ----------------------------------------------------------------------

def test_channel_params_bsc01_closed_forms():
    W = ChannelMatrix([[0.9, 0.1], [0.1, 0.9]])
    params = channel_params(W)
    assert params.B == pytest.approx(BSC01_B, abs=1e-12)
    assert params.lam == pytest.approx(0.1, abs=1e-15)
    assert params.C == pytest.approx(BSC01_C, abs=1e-6)
    assert np.allclose(params.caid.probs, [0.5, 0.5], atol=1e-6)
    assert {params.x0, params.x0_prime} == {0, 1}
    # Symmetric channel: the reverse divergence equals B.
    assert params.B_reverse == pytest.approx(BSC01_B, abs=1e-12)


def test_channel_params_identity_channel_has_infinite_b():
    W = ChannelMatrix([[1.0, 0.0], [0.0, 1.0]])
    params = channel_params(W)
    assert math.isinf(params.B)
    assert params.lam == 0.0
    assert params.C == pytest.approx(math.log(2.0), abs=1e-6)


def test_channel_params_identical_rows_give_zero_b():
    W = ChannelMatrix([[0.4, 0.6], [0.4, 0.6]])
    params = channel_params(W)
    assert params.B == pytest.approx(0.0, abs=1e-12)
    assert params.C == pytest.approx(0.0, abs=1e-6)


def test_channel_params_asymmetric_channel_picks_max_divergence_pair():
    # Three rows; the (0, 2) pair maximizes KL in one of the directions.
    W = ChannelMatrix([
        [0.8, 0.1, 0.1],
        [0.4, 0.3, 0.3],
        [0.05, 0.05, 0.9],
    ])
    params = channel_params(W)
    rows = W.matrix
    best = -1.0
    arg = None
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            val = float(np.sum(rows[i] * np.log(rows[i] / rows[j])))
            if val > best:
                best = val
                arg = (i, j)
    assert params.B == pytest.approx(best, abs=1e-12)
    assert (params.x0, params.x0_prime) == arg
    assert params.lam == pytest.approx(rows.min(), abs=1e-15)


def test_channel_params_pair_rule_on_ties_and_one_input():
    # Identity: every off-diagonal divergence is +inf, the first is (0, 1).
    eye = channel_params(ChannelMatrix(np.eye(3)))
    assert (eye.B, eye.B_reverse) == (math.inf, math.inf)
    assert (eye.x0, eye.x0_prime) == (0, 1)
    # Identical rows: B = 0 at the first ordered pair, not on the diagonal.
    same = channel_params(ChannelMatrix([[0.4, 0.6], [0.4, 0.6]]))
    assert (same.B, same.B_reverse, same.x0, same.x0_prime) == (0.0, 0.0, 0, 1)
    # A single input has no pair: B = 0 and the pair is (0, 0).
    one = channel_params(ChannelMatrix([[0.3, 0.7]]))
    assert (one.B, one.B_reverse, one.x0, one.x0_prime) == (0.0, 0.0, 0, 0)
    assert np.array_equal(one.llr, [0.0, 0.0])


def _row_kl_literal(row: np.ndarray, q: np.ndarray) -> float:
    """The per-row divergence loop the capacity solver used before the kernel."""
    mask = row > 0
    if np.any(q[mask] == 0.0):
        return math.inf
    return float((row[mask] * np.log(row[mask] / q[mask])).sum())


@pytest.mark.parametrize("seed", range(6))
def test_divergence_kernel_matches_row_loop_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        nx, ny = rng.integers(2, 6, size=2)
        M = rng.random((nx, ny))
        M[rng.random((nx, ny)) < 0.3] = 0.0
        M[rng.random((nx, ny)) < 0.1] = 1e-18
        M[M.sum(axis=1) < 0.5, 0] = 1.0
        W = ChannelMatrix(M).matrix
        px = rng.dirichlet(np.ones(nx))
        # Clipped and unclipped rows (the kernel clips nothing itself); the
        # output law of the capacity loop, and other rows, whose zeros give
        # support escapes (+inf).
        for P in (W, _as_clipped(W)):
            for q in [px @ P, *P]:
                loop = np.array([_row_kl_literal(P[x], q) for x in range(nx)])
                assert np.array_equal(_divergences(P, q), loop)


def _channel_params_loop_literal(W: ChannelMatrix):
    """The pair loop channel_params used before the divergence matrix."""
    best, pair = -1.0, (0, 1)
    for x in range(W.num_inputs):
        for xp in range(W.num_inputs):
            if x != xp and kl_divergence(W.row(x), W.row(xp)) > best:
                best, pair = kl_divergence(W.row(x), W.row(xp)), (x, xp)
    return best, pair, kl_divergence(W.row(pair[1]), W.row(pair[0]))


@pytest.mark.parametrize("seed", range(4))
def test_channel_params_and_mutual_information_match_the_loops(seed):
    # The loops summed in another order (and renormalised each row), so B
    # and I agree to rounding, set from float64 eps; the pair exactly.
    rng = np.random.default_rng(100 + seed)
    for k in range(40):
        nx, ny = rng.integers(2, 6, size=2)
        M = rng.random((nx, ny))
        # Zeros in every other channel; they make most divergences +inf.
        M[rng.random((nx, ny)) < 0.3 * (k % 2)] = 0.0
        M[M.sum(axis=1) == 0.0, 0] = 1.0
        W = ChannelMatrix(M)
        px = Pmf(rng.dirichlet(np.ones(nx)) * (np.arange(nx) != nx - 1))
        qy = Pmf(px.probs @ W.matrix)
        I_loop = sum(px.probs[x] * kl_divergence(W.row(x), qy)
                     for x in range(nx) if px.probs[x] > 0)
        assert mutual_information(px, W) == pytest.approx(max(I_loop, 0.0),
                                                          rel=0, abs=1e-14)
        B, pair, B_rev = _channel_params_loop_literal(W)
        if math.isfinite(B) and W.matrix.min() == 0.0:
            with pytest.raises(ValueError, match="lambda"):
                channel_params(W)
            continue
        params = channel_params(W)
        assert (params.x0, params.x0_prime) == pair
        assert params.B == pytest.approx(B, rel=0, abs=1e-14)
        assert params.B_reverse == pytest.approx(B_rev, rel=0, abs=1e-14)


def test_rate_distortion_with_zero_probability_letter_is_finite():
    # Letter 2 has q = 0.  At D = 0 its test-channel row falls back to
    # uniform, with mass where the output law is 0: the rate must skip it.
    Q = Pmf([0.5, 0.5, 0.0])
    d = hamming_distortion(3)
    for D in (0.0, 0.1, 0.25):
        R = rate_distortion(Q, d, D).R
        assert math.isfinite(R)
        assert R == pytest.approx(math.log(2.0) - h2(D), abs=1e-8)


# ----------------------------------------------------------------------
# Word enumeration and distortion geometry
# ----------------------------------------------------------------------

def test_enumerate_words_lexicographic_order():
    words = enumerate_words(2, 3)
    assert words.shape == (8, 3)
    assert tuple(words[0]) == (0, 0, 0)
    assert tuple(words[1]) == (0, 0, 1)
    assert tuple(words[-1]) == (1, 1, 1)


def test_word_index_roundtrip():
    words = enumerate_words(3, 2)
    for k, w in enumerate(words):
        assert word_index(tuple(w), 3) == k


def test_word_index_batch_and_int64_limit():
    words = enumerate_words(3, 4)
    assert word_index(words, 3).tolist() == list(range(81))
    assert type(word_index((2, 1), 3)) is int
    assert word_index((1,) * 63, 2) == 2 ** 63 - 1
    with pytest.raises(ValueError, match="int64"):
        word_index((1,) * 64, 2)


def test_pairwise_distortion_matches_scalar():
    rng = np.random.default_rng(11)
    d = hamming_distortion(3)
    a = rng.integers(0, 3, size=(5, 4))
    b = rng.integers(0, 3, size=(7, 4))
    got = pairwise_distortion(d, a, b)
    for i in range(5):
        for j in range(7):
            assert got[i, j] == pytest.approx(
                distortion(d, a[i], b[j]), abs=1e-15)


# d(a, b) != d(b, a), so a transposed gather reads other entries.  The
# entries are dyadic, so every position sum is exact in float64 and any
# summation order gives the same word distortion.
ASYM3 = DistortionMatrix([[0.0, 1.0, 2.0], [0.5, 0.0, 0.75],
                          [1.5, 0.25, 0.0]])


def test_pairwise_distortion_orientation_with_asymmetric_distortion():
    rng = np.random.default_rng(12)
    a = rng.integers(0, 3, size=(6, 11))
    b = rng.integers(0, 3, size=(9, 11))
    got = pairwise_distortion(ASYM3, a, b)
    assert got.shape == (6, 9)
    for i in range(6):
        for j in range(9):
            assert got[i, j] == distortion(ASYM3, a[i], b[j])
    assert not np.array_equal(got, pairwise_distortion(ASYM3, b, a).T)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_distortion_is_pairwise_distortion_bit_for_bit(q):
    # Decimal entries make the word sum depend on summation order, and
    # N runs past 8, beyond which numpy's mean no longer sums in order.
    # distortion, for one pair, for equal-shaped rows and for broadcast
    # pairs, must still equal the all-pairs kernel exactly.
    rng = np.random.default_rng(100 + q)
    d = DistortionMatrix(rng.integers(0, 100, size=(q, q)) / 10.0)
    for N in range(1, 25):
        a = rng.integers(0, q, size=(40, N))
        b = rng.integers(0, q, size=(30, N))
        want = pairwise_distortion(d, a, b)
        assert np.array_equal(distortion(d, a[:, np.newaxis], b), want)
        assert np.array_equal(distortion(d, a[:30], b), np.diagonal(want))
        assert distortion(d, a[3], b[4]) == want[3, 4]
        assert type(distortion(d, a[3], b[4])) is float


@pytest.mark.parametrize("center", [(0, 0, 0, 0), (2, 1, 0, 2), (1, 2, 2, 1)])
@pytest.mark.parametrize("D", [0.0, 0.25, 0.5, 0.8125])
def test_distortion_ball_asymmetric_matches_brute_force(center, D):
    words = enumerate_words(3, 4)
    want = [tuple(w) for w in words if distortion(ASYM3, center, w) <= D]
    got = [tuple(w) for w in distortion_ball(ASYM3, center, D)]
    assert got == want


def test_distortion_ball_binary_hamming():
    d = hamming_distortion(2)
    ball = distortion_ball(d, (0, 0, 0, 0), 0.25)
    # Average distortion <= 0.25 over 4 letters means at most one flip.
    assert len(ball) == 5
    words = {tuple(w) for w in ball}
    assert (0, 0, 0, 0) in words
    assert all(sum(w) <= 1 for w in words)


def test_distortion_ball_full_at_d_max():
    d = hamming_distortion(2)
    ball = distortion_ball(d, (0, 1), 1.0)
    assert len(ball) == 4

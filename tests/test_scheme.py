"""Unit tests for the two-phase block construction.

Covering-code failure rates are checked against the analytic ball-count
oracle; control thresholds and ML decisions against hand arithmetic.
"""

import itertools
import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from scipy.special import comb

from vlfjscc import (
    ChannelCodebook,
    ChannelMatrix,
    ControlCode,
    DistortionMatrix,
    Pmf,
    RngSpec,
    SchemeConfig,
    SourceCodebook,
    build_channel_codebook,
    build_control_code,
    build_source_code,
    channel_params,
    control_decode,
    derive_gamma,
    distortion,
    enumerate_words,
    hamming_distortion,
    ml_channel_decode,
    pairwise_distortion,
    rate_distortion,
    SystemModel,
    build_codes,
    source_decode,
    source_encode,
)
from vlfjscc import coding_scheme
from vlfjscc.coding_scheme import (
    control_accepts,
    control_decode_batch,
    source_encode_batch,
)
from vlfjscc.numerics import RdPoint
from vlfjscc.probability import sample_pmf_batch, symbol_llr

# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------

def h2(x: float) -> float:
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log(x) - (1.0 - x) * math.log(1.0 - x)


RD_HALF_02 = math.log(2.0) - h2(0.2)  # R(0.2), Bern(0.5), Hamming


def canonical_code(source, d, D, epsilon, N, rng):
    """A source code of the M that SchemeConfig.derive sizes for epsilon,
    ceil(exp(N(R(D) + 2*epsilon)))."""
    point = rate_distortion(source, d, D)
    M = math.ceil(math.exp(N * (point.R + 2.0 * epsilon)))
    return build_source_code(source, d, point, M, N, rng)
BSC01_B = 0.8 * math.log(9.0)


def bsc(p: float) -> ChannelMatrix:
    return ChannelMatrix([[1.0 - p, p], [p, 1.0 - p]])


ASYM = [[0.95, 0.05], [0.15, 0.85]]
ZERO_ENTRY = [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]]


def llr_oracle(W: ChannelMatrix, x0: int, x0_prime: int) -> np.ndarray:
    """Per-output LLR, one output letter at a time with math.log."""
    p = W.matrix[x0]
    q = W.matrix[x0_prime]
    llr = np.empty(W.num_outputs)
    for i in range(W.num_outputs):
        if p[i] == q[i]:
            llr[i] = 0.0
        elif q[i] == 0.0:
            llr[i] = math.inf
        elif p[i] == 0.0:
            llr[i] = -math.inf
        else:
            llr[i] = math.log(p[i] / q[i])
    return llr


def covering_failure_oracle(N: int, M: int, D: float) -> float:
    """Analytic P(one word uncovered) for uniform binary Hamming covering.

    Each i.i.d. uniform reproduction covers a fixed word with probability
    q = |ball| / 2^N, independently, so failure = (1 - q)^M.
    """
    radius = math.floor(D * N + 1e-9)
    ball = sum(comb(N, k, exact=True) for k in range(radius + 1))
    q = ball / 2.0 ** N
    return (1.0 - q) ** M


# ----------------------------------------------------------------------
# Source code
# ----------------------------------------------------------------------

def test_build_source_code_m_formula():
    # derive sizes M once; the source code draws the M it is given.
    source = Pmf([0.5, 0.5])
    d = hamming_distortion(2)
    point = rate_distortion(source, d, 0.2)
    for N, eps in ((8, 0.05), (12, 0.08), (16, 0.1)):
        M = SchemeConfig.derive(N, eps, 0.3, point.R, math.log(2.0)).M
        cb = build_source_code(source, d, point, M, N,
                               np.random.default_rng(0))
        oracle = math.ceil(math.exp(N * (RD_HALF_02 + 2 * eps)))
        assert cb.M == M == oracle
        assert cb.reproductions.shape == (cb.M, N)


def test_build_source_code_rejects_an_empty_code():
    source, d = Pmf([0.5, 0.5]), hamming_distortion(2)
    point = rate_distortion(source, d, 0.2)
    with pytest.raises(ValueError, match="at least one reproduction"):
        build_source_code(source, d, point, 0, 8, np.random.default_rng(0))
    with pytest.raises(ValueError, match="at least one reproduction"):
        SourceCodebook(N=8, M=0, reproductions=np.zeros((0, 8)), D=0.2, d=d)


def test_scheme_config_guard_refuses_huge_m_before_exp():
    # exp(N (R + 2 eps)) overflows a float past an exponent of about 710,
    # here from N = 800 on; the guard refuses first, at every N.
    for N in (64, 800, 3000):
        with pytest.raises(ValueError, match="exceeds guard"):
            SchemeConfig.derive(N, 0.1, 0.3, math.log(2.0), 2.0)


@pytest.mark.parametrize("rows", [[[0.9, 0.1], [0.1, 0.9]], ASYM],
                         ids=["bsc01", "asym"])
@pytest.mark.parametrize("epsilon", [0.05, 0.08])
def test_source_code_size_equals_scheme_message_count(rows, epsilon):
    model = SystemModel.build(Pmf([0.5, 0.5]), ChannelMatrix(rows),
                              hamming_distortion(2), 0.2)
    for N in range(4, 21):
        cfg = model.derive_config(N, epsilon, 0.3)
        codes = build_codes(model, cfg, np.random.default_rng(N))
        assert codes.source.M == cfg.M
        assert codes.source.reproductions.shape == (cfg.M, N)


def test_full_budget_covers_everything_at_index_one():
    source = Pmf([0.5, 0.5])
    d = hamming_distortion(2)
    cb = canonical_code(source, d, 1.0, 0.05, 6, np.random.default_rng(1))
    words = enumerate_words(2, 6)
    for w in words:
        assert source_encode(cb, tuple(w)) == 1


def test_exhaustive_reproductions_leave_no_failures():
    # Hand-built codebook enumerating all words: every v is covered at D=0.
    d = hamming_distortion(2)
    words = enumerate_words(2, 3)
    cb = SourceCodebook(N=3, M=8, reproductions=words, D=0.0, d=d)
    for w in words:
        idx = source_encode(cb, tuple(w))
        assert distortion(d, tuple(w), source_decode(cb, idx)) == 0.0


def test_covering_failure_decays_with_n():
    source = Pmf([0.5, 0.5])
    d = hamming_distortion(2)
    eps, D, samples = 0.05, 0.2, 100_000
    rng = np.random.default_rng(42)
    rates = []
    for N in (8, 12, 16):
        cb = canonical_code(source, d, D, eps, N, rng)
        v = rng.integers(0, 2, size=(samples, N))
        dists = pairwise_distortion(d, v, cb.reproductions)
        uncovered = float((dists.min(axis=1) > D).mean())
        oracle = covering_failure_oracle(N, cb.M, D)
        assert abs(uncovered - oracle) <= 0.1
        rates.append(uncovered)
    assert rates[0] > rates[1] > rates[2]


def test_source_encode_first_cover_and_sink():
    d = hamming_distortion(2)
    reps = np.array([[0, 0, 0, 0], [1, 1, 1, 1], [1, 1, 0, 0]])
    cb = SourceCodebook(N=4, M=3, reproductions=reps, D=0.25, d=d)
    # Two flips from reps 1 and 2, zero from rep 3: only index 3 covers.
    assert source_encode(cb, (1, 1, 0, 0)) == 3
    # Exactly a reproduction word: distortion zero at its own index.
    assert source_encode(cb, (1, 1, 1, 1)) == 2
    assert distortion(d, (1, 1, 1, 1), source_decode(cb, 2)) == 0.0
    # Covered by indices 1 and 3 at once: the smallest index wins.
    assert source_encode(cb, (1, 0, 0, 0)) == 1
    # Uncovered word falls into the sink index 1.
    assert source_encode(cb, (0, 0, 1, 1)) == 1
    assert source_decode(cb, 1) == (0, 0, 0, 0)


@pytest.mark.parametrize("word", [(-1,) * 4, (0, 2, 0, 0),
                                  (0.7, 1.9, 1.2, 1.0)],
                         ids=["negative", "past_the_alphabet", "non_integral"])
def test_source_encode_refuses_letters_outside_the_alphabet(word):
    # Unchecked, -1 would read as the last letter, 2 would index past
    # the distortion table, and 0.7 would be cut to the letter 0.
    cb = SourceCodebook(N=4, M=2, reproductions=np.array([[0] * 4, [1] * 4]),
                        D=0.0, d=hamming_distortion(2))
    with pytest.raises(ValueError, match="alphabet"):
        source_encode(cb, word)


def test_source_decode_range_checks():
    d = hamming_distortion(2)
    cb = SourceCodebook(N=2, M=2, reproductions=np.array([[0, 0], [1, 1]]),
                        D=0.0, d=d)
    with pytest.raises(ValueError):
        source_decode(cb, 0)
    with pytest.raises(ValueError):
        source_decode(cb, 3)


def test_source_roundtrip_within_budget_exhaustive_n8():
    source = Pmf([0.5, 0.5])
    d = hamming_distortion(2)
    cb = canonical_code(source, d, 0.2, 0.08, 8, np.random.default_rng(7))
    words = enumerate_words(2, 8)
    uncovered = 0
    for w in words:
        w = tuple(w)
        idx = source_encode(cb, w)
        dist = distortion(d, w, source_decode(cb, idx))
        if dist > 0.2:
            uncovered += 1
            assert idx == 1
        else:
            assert dist <= 0.2
    # Some words must be uncovered at this N (analytic rate ~0.67).
    assert uncovered > 0


def test_source_encode_batch_matches_scalar():
    source = Pmf([0.5, 0.5])
    d = hamming_distortion(2)
    cb = canonical_code(source, d, 0.2, 0.05, 8, np.random.default_rng(3))
    rng = np.random.default_rng(4)
    batch = rng.integers(0, 2, size=(300, 8))
    got = source_encode_batch(cb, batch)
    for row, idx in zip(batch, got):
        assert idx == source_encode(cb, tuple(row))


# d(a, b) != d(b, a); dyadic entries keep every position sum exact.
ASYM_DISTORTION = {
    2: [[0.0, 1.0], [0.25, 0.0]],
    3: [[0.0, 1.0, 2.0], [0.5, 0.0, 0.75], [1.5, 0.25, 0.0]],
}


@pytest.mark.parametrize("M", [1, 20, 32, 97, 500])
@pytest.mark.parametrize("q", [2, 3])
def test_source_encode_batch_matches_full_table_rule(q, M):
    # M = 1, below the first block, on its boundary, and off the later
    # boundaries (32 + 64 = 96, 32 + 64 + 128 + 256 = 480).
    rng = np.random.default_rng(100 * q + M)
    d = DistortionMatrix(ASYM_DISTORTION[q])
    N = 8
    reps = rng.integers(0, q, size=(M, N))
    v = rng.integers(0, q, size=(400, N))
    table = pairwise_distortion(d, v, reps)
    # D = 0 and attained cell values, so exact ties sit on the budget.
    budgets = [0.0, *np.quantile(table, [0.001, 0.02, 0.3], method="lower")]
    uncovered = 0
    for D in budgets:
        assert (table == D).any() or D == 0.0
        cb = SourceCodebook(N=N, M=M, reproductions=reps, D=float(D), d=d)
        covered = table <= D
        want = np.where(covered.any(axis=1), covered.argmax(axis=1) + 1, 1)
        got = source_encode_batch(cb, v)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        uncovered += int((~covered.any(axis=1)).sum())
        empty = source_encode_batch(cb, v[:0])
        assert empty.shape == (0,) and empty.dtype == np.int64
    assert uncovered > 0


def cover_cells(scanning, reps) -> int:
    """Cells (words x reproductions) of one block."""
    return len(scanning) * len(reps)


def record_cover_blocks(monkeypatch, what) -> list:
    """Record what(scanning rows, reproductions) of every block."""
    records = []
    original = coding_scheme._first_covers

    def recorded(cb, letters, v, scanning, reps, limit, band):
        records.append(what(scanning.copy(), reps))
        return original(cb, letters, v, scanning, reps, limit, band)

    monkeypatch.setattr(coding_scheme, "_first_covers", recorded)
    return records


def test_source_encode_batch_stops_at_the_first_cover(monkeypatch):
    # mc-bsc-n20 setting: almost every word is covered early, so the scan
    # computes a fraction of the n x M table.  The full table fails this.
    source = Pmf([0.5, 0.5])
    d = hamming_distortion(2)
    cb = canonical_code(source, d, 0.2, 0.08, 20, np.random.default_rng(5))
    v = np.random.default_rng(6).integers(0, 2, size=(1024, 20))
    cells = record_cover_blocks(monkeypatch, cover_cells)
    idx = source_encode_batch(cb, v)
    dist = d.matrix[v, cb.reproductions[idx - 1]].mean(axis=1)
    assert (dist <= cb.D).mean() > 0.95
    assert sum(cells) <= len(v) * cb.M // 3


def lee_distortion(q: int) -> DistortionMatrix:
    """The cyclic distance between letters of Z_q."""
    gap = np.abs(np.subtract.outer(np.arange(q), np.arange(q)))
    return DistortionMatrix(np.minimum(gap, q - gap))


# The N = 9 boundary pair of tests/test_simulation.py: with decimal
# entries the word sum depends on the order of the additions, and in
# position order d(v, vhat) is exactly BOUNDARY_RADIUS.
BOUNDARY_D = DistortionMatrix([[0.0, 0.9, 0.1], [0.8, 0.0, 0.3],
                               [1.0, 0.8, 0.0]])
BOUNDARY_V = (0, 1, 0, 0, 1, 1, 0, 1, 2)
BOUNDARY_VHAT = (0, 2, 1, 0, 0, 1, 1, 2, 2)
BOUNDARY_RADIUS = 0.3555555555555555


@pytest.mark.parametrize("N", [1, 9, 20])
@pytest.mark.parametrize("d", [
    hamming_distortion(2), hamming_distortion(4), lee_distortion(4),
    lee_distortion(5), DistortionMatrix(ASYM_DISTORTION[2]),
    DistortionMatrix(ASYM_DISTORTION[3])],
    ids=["hamming2", "hamming4", "lee4", "lee5", "asym2", "asym3"])
def test_dyadic_distortions_are_lattice_exact(d, N):
    assert coding_scheme._lattice_exact(d, N)


def test_decimal_distortion_is_not_lattice_exact():
    assert not coding_scheme._lattice_exact(BOUNDARY_D, 9)
    # Dyadic, but too fine for its sums: 2**-60 next to 1 at N = 4.
    fine = DistortionMatrix([[0.0, 1.0], [2.0 ** -60, 0.0]])
    assert not coding_scheme._lattice_exact(fine, 4)


@pytest.mark.parametrize("N", [1, 3, 9, 20, 1000])
@pytest.mark.parametrize("D", [0.0, 0.1, 0.2, 1 / 3, BOUNDARY_RADIUS, 2.5])
def test_sum_limit_is_the_largest_sum_within_d(D, N):
    limit = coding_scheme._sum_limit(D, N)
    assert limit / N <= D
    assert math.nextafter(limit, math.inf) / N > D


def table_rule(d: DistortionMatrix, v, reps, D: float) -> np.ndarray:
    """First index whose position-order distortion is within D, else 1."""
    covered = pairwise_distortion(d, v, reps) <= D
    return np.where(covered.any(axis=1), covered.argmax(axis=1) + 1, 1)


@pytest.mark.parametrize("N, k", [(22, 15), (23, 13)])
def test_first_cover_keeps_words_at_exactly_d(N, k):
    # D = k / N rounds so that D * N falls one ulp below k, while
    # k / N <= D: a word k letters from a reproduction is covered, and a
    # limit of D * N would miss it.
    D = k / N
    assert D * N < k and coding_scheme._sum_limit(D, N) == k
    rng = np.random.default_rng(N)
    reps = rng.integers(0, 2, size=(50, N))
    v = rng.integers(0, 2, size=(1000, N))
    cb = SourceCodebook(N=N, M=50, reproductions=reps, D=D,
                        d=hamming_distortion(2))
    got = source_encode_batch(cb, v)
    np.testing.assert_array_equal(got, table_rule(cb.d, v, reps, D))
    assert (distortion(cb.d, v, reps[got - 1]) == D).sum() > 10


def test_first_cover_decides_boundary_pairs_in_the_band(monkeypatch):
    # The boundary pair, and copies of it with positions permuted (the
    # same nine terms in another order), each planted at a random slot
    # among random reproductions that lie beyond D of its word.
    # Position-order sums of a permuted pair land on BOUNDARY_RADIUS or
    # one ulp above it.  The product sums in its own order, which BLAS
    # picks by shape (a word alone takes another path than a batch), so
    # only the pairs rescored in the band keep the first-cover rule.
    rng = np.random.default_rng(9)
    perms = np.array([np.arange(9)] + [rng.permutation(9) for _ in range(199)])
    v_planted = np.array(BOUNDARY_V)[perms]
    vhat_planted = np.array(BOUNDARY_VHAT)[perms]
    exact = distortion(BOUNDARY_D, v_planted, vhat_planted) <= BOUNDARY_RADIUS
    assert exact[0] and not exact.all()
    pool = rng.integers(0, 3, size=(1000, 9))

    rescored = []
    original = coding_scheme.distortion

    def recorded(d, a, b):
        rescored.extend(zip(map(tuple, a), map(tuple, b)))
        return original(d, a, b)

    monkeypatch.setattr(coding_scheme, "distortion", recorded)
    product_right = []
    for v, vhat, covered in zip(v_planted, vhat_planted, exact):
        far = pool[distortion(BOUNDARY_D, v, pool) > BOUNDARY_RADIUS + 1e-9]
        slot = int(rng.integers(0, 80))
        reps = np.insert(far[:80], slot, vhat, axis=0)
        cb = SourceCodebook(N=9, M=len(reps), reproductions=reps,
                            D=BOUNDARY_RADIUS, d=BOUNDARY_D)
        want = slot + 1 if covered else 1
        assert source_encode(cb, v) == want
        words = np.vstack([v, rng.integers(0, 3, size=(20, 9)), v])
        got = source_encode_batch(cb, words)
        np.testing.assert_array_equal(
            got, table_rule(BOUNDARY_D, words, reps, BOUNDARY_RADIUS))
        assert got[0] == got[-1] == want
        with monkeypatch.context() as m:  # the product alone, no band
            m.setattr(coding_scheme, "_lattice_exact", lambda d, n: True)
            product_right.append(source_encode(cb, v) == want)
    assert not all(product_right)
    assert (BOUNDARY_V, BOUNDARY_VHAT) in rescored


def test_first_cover_matches_the_table_on_the_acceptance_7_codebook():
    model = SystemModel.build(Pmf([0.5, 0.5]), bsc(0.1), hamming_distortion(2),
                              0.2)
    cfg = model.derive_config(20, 0.08, 0.3, master_seed=42)
    codes = build_codes(model, cfg,
                        RngSpec(42).child("N", 20).generator("source-code"))
    cb = codes.source
    assert cb.M == 1159
    v = sample_pmf_batch(model.P_V, (4096, 20), np.random.default_rng(20))
    got = source_encode_batch(cb, v)
    want = np.concatenate([table_rule(cb.d, v[lo:lo + 1024], cb.reproductions,
                                      cb.D) for lo in range(0, 4096, 1024)])
    np.testing.assert_array_equal(got, want)
    # Words at distance exactly D are covered, and some are uncovered.
    at_d = distortion(cb.d, v, cb.reproductions[got - 1]) == cb.D
    assert at_d.any() and (got == 1).any()


def test_uncovered_scan_stays_within_the_cell_budget(monkeypatch):
    # D = 0 and every reproduction the complement of every word: nothing
    # covers, so each word meets all M reproductions.  Blocks double from
    # FIRST_COVER_BLOCK until (words + N*|V|) * block would pass
    # COVER_BLOCK_CELLS, then stay there.
    n, N, M = 2048, 20, 2 ** 15
    budget = coding_scheme.COVER_BLOCK_CELLS
    cap = budget // (n + 2 * N)
    cb = SourceCodebook(N=N, M=M, reproductions=np.ones((M, N), np.int8),
                        D=0.0, d=hamming_distortion(2))
    v = np.zeros((n, N), dtype=np.int8)
    cells = record_cover_blocks(monkeypatch, cover_cells)
    tracemalloc.start()
    try:
        got = source_encode_batch(cb, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (got == 1).all()
    widths = [c // n for c in cells]
    assert sum(widths) == M
    assert widths[:6] == [32, 64, 128, 256, 512, 1024]
    assert set(widths[6:-1]) == {cap}
    assert max(cells) + 2 * N * cap <= budget
    # The budget at 8 bytes a cell holds the float64 product and its
    # columns; the verdict adds 1 byte a product cell, and the one-hot
    # words (n * N * |V| float64) are held twice.  Doubling to the last
    # block, 16384 wide, would take 268 MB for the product alone.
    assert peak < 9 * budget + 2 * (n * N * 2 * 8)


def test_capped_blocks_keep_the_first_cover_bound(monkeypatch):
    # A small budget caps the blocks at a few dozen reproductions, and
    # the cap widens as covered words leave.  A word first covered at
    # index k still meets fewer than 2k + 32 reproductions.
    monkeypatch.setattr(coding_scheme, "COVER_BLOCK_CELLS", 2 ** 14)
    n, N, M = 256, 20, 4096
    v = (np.arange(n)[:, np.newaxis] >> np.arange(N)) & 1
    rng = np.random.default_rng(18)
    planted = rng.choice(n, size=64, replace=False)
    at = rng.choice(M, size=64, replace=False)
    at[:2] = 0, 32  # indices 1 and 33, first in their blocks
    reps = np.ones((M, N), dtype=np.int64)
    reps[at] = v[planted]
    cb = SourceCodebook(N=N, M=M, reproductions=reps, D=0.0,
                        d=hamming_distortion(2))
    blocks = record_cover_blocks(monkeypatch,
                                 lambda scanning, r: (scanning, len(r)))
    got = source_encode_batch(cb, v)
    want = np.ones(n, dtype=np.int64)
    want[planted] = at + 1
    np.testing.assert_array_equal(got, want)
    met = np.zeros(n, dtype=np.int64)
    for scanning, width in blocks:
        assert (len(scanning) + 2 * N) * width <= 2 ** 14
        met[scanning] += width
    assert (met[planted] < 2 * (at + 1) + 32).all()
    assert (np.delete(met, planted) == M).all()


# ----------------------------------------------------------------------
# Channel codebook and ML decoding
# ----------------------------------------------------------------------

def test_point_mass_caid_gives_constant_codebook():
    cb = build_channel_codebook(Pmf([0.0, 1.0]), 5, 3,
                                np.random.default_rng(0))
    assert np.all(cb.codewords == 1)


def test_codebook_seeded_reproducibility():
    a = build_channel_codebook(Pmf([0.5, 0.5]), 6, 4, np.random.default_rng(9))
    b = build_channel_codebook(Pmf([0.5, 0.5]), 6, 4, np.random.default_rng(9))
    assert np.array_equal(a.codewords, b.codewords)


@pytest.mark.parametrize("probs", [[0.5, 0.5], [0.1] * 10, [0.2, 0.0, 0.8],
                                   [1 / 3] * 3])
def test_codebooks_draw_through_the_shared_letter_sampler(probs):
    # Same letters, and the generator left in the same state, as
    # sample_pmf_batch on a generator with the same seed.
    pmf = Pmf(probs)
    rng, ref = np.random.default_rng(21), np.random.default_rng(21)
    cb = build_channel_codebook(pmf, 7, 50, rng)
    assert np.array_equal(cb.codewords, sample_pmf_batch(pmf, (50, 7), ref))
    assert rng.bit_generator.state == ref.bit_generator.state

    q = len(probs)
    point = RdPoint(D=0.5, R=0.01, test_channel=np.tile(pmf.probs, (q, 1)),
                    lagrange_slope=-1.0)
    M = math.ceil(math.exp(9 * (point.R + 2.0 * 0.1)))  # 7
    src = build_source_code(Pmf([1.0] * q), hamming_distortion(q), point, M,
                            9, rng)
    want = sample_pmf_batch(point.output_marginal(Pmf([1.0] * q)),
                            (src.M, 9), ref)
    assert np.array_equal(src.reproductions, want)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_codebook_symbol_frequencies_multinomial():
    caid = Pmf([0.3, 0.7])
    cb = build_channel_codebook(caid, 1000, 100, np.random.default_rng(11))
    freq = float((cb.codewords == 0).mean())
    sigma = math.sqrt(0.3 * 0.7 / cb.codewords.size)
    assert abs(freq - 0.3) <= 3 * sigma


def test_ml_decode_noiseless_permutation_channels_exact():
    codewords = enumerate_words(2, 3)  # 8 distinct words
    cb = ChannelCodebook(M=8, length=3, codewords=codewords)
    identity = ChannelMatrix([[1.0, 0.0], [0.0, 1.0]])
    swap = ChannelMatrix([[0.0, 1.0], [1.0, 0.0]])
    for j in range(8):
        y_id = codewords[j]
        assert ml_channel_decode(cb, y_id, identity) == j + 1
        y_swap = 1 - codewords[j]
        assert ml_channel_decode(cb, y_swap, swap) == j + 1


def test_ml_decode_single_message():
    cb = ChannelCodebook(M=1, length=4, codewords=np.zeros((1, 4), dtype=int))
    assert ml_channel_decode(cb, (1, 1, 0, 1), bsc(0.3)) == 1


def test_ml_decode_bsc_hand_comparison():
    # y matches codeword 1 everywhere and differs from codeword 2 in two
    # places: likelihood 0.9^3 vs 0.9*0.1^2, so message 1 wins.
    cb = ChannelCodebook(M=2, length=3,
                         codewords=np.array([[0, 1, 0], [1, 1, 1]]))
    assert ml_channel_decode(cb, (0, 1, 0), bsc(0.1)) == 1


def test_ml_decode_tie_goes_to_smallest_index():
    cb = ChannelCodebook(M=3, length=2,
                         codewords=np.array([[0, 1], [1, 0], [0, 1]]))
    # Codewords 1 and 3 identical: equal likelihood, index 1 returned.
    assert ml_channel_decode(cb, (0, 1), bsc(0.2)) == 1


def test_ml_decode_exact_ties_go_to_lowest_index_at_scale():
    # On a BSC the likelihood depends only on the mismatch count, so the
    # ML message is the lowest index among the rows with fewest mismatches.
    # With 1159 x 19 words many rows tie; a score summed in floating point
    # in a row-dependent order would break some of those ties elsewhere.
    rng = np.random.default_rng(0)
    M, n = 1159, 19
    words = rng.integers(0, 2, (M, n))
    sent = words[rng.integers(0, M, 64)]
    outputs = sent ^ (rng.random(sent.shape) < 0.1)
    cb = ChannelCodebook(M=M, length=n, codewords=words)
    for y in outputs:
        mismatches = (words != y).sum(axis=1)
        want = int(np.flatnonzero(mismatches == mismatches.min())[0]) + 1
        assert ml_channel_decode(cb, y, bsc(0.1)) == want


def test_ml_decode_length_mismatch():
    cb = ChannelCodebook(M=1, length=3, codewords=np.zeros((1, 3), dtype=int))
    with pytest.raises(ValueError):
        ml_channel_decode(cb, (0, 1), bsc(0.1))


# ----------------------------------------------------------------------
# Control code
# ----------------------------------------------------------------------

def test_symbol_llr_bsc_and_special_cases():
    llr = symbol_llr(bsc(0.1), 0, 1)
    assert llr[0] == pytest.approx(math.log(9.0), abs=1e-12)
    assert llr[1] == pytest.approx(-math.log(9.0), abs=1e-12)
    W = ChannelMatrix(ZERO_ENTRY)
    llr = symbol_llr(W, 0, 1)
    assert math.isinf(llr[0]) and llr[0] > 0
    assert llr[1] == 0.0
    assert math.isinf(llr[2]) and llr[2] < 0


@pytest.mark.parametrize("rows", [[[0.9, 0.1], [0.1, 0.9]], ASYM, ZERO_ENTRY],
                         ids=["bsc01", "asym", "zero-entry"])
def test_stored_control_llr_is_symbol_llr_bit_for_bit(rows):
    W = ChannelMatrix(rows)
    params = channel_params(W)
    ctrl = build_control_code(params, 4, 0.3)
    want = llr_oracle(W, params.x0, params.x0_prime).tobytes()
    assert symbol_llr(W, params.x0, params.x0_prime).tobytes() == want
    assert params.llr.tobytes() == want
    assert ctrl.llr.tobytes() == want
    for table in (params.llr, ctrl.llr):
        with pytest.raises(ValueError):
            table[0] = 1.0


def test_build_control_code_threshold_formula():
    params = channel_params(bsc(0.1))
    for m, delta in ((1, 0.3), (50, 0.3), (20, 1.0)):
        ctrl = build_control_code(params, m, delta)
        assert ctrl.length == m
        assert ctrl.llr_threshold == pytest.approx(m * (BSC01_B - delta),
                                                   abs=1e-9)
        assert np.all(ctrl.x_c == params.x0)
        assert np.all(ctrl.x_e == params.x0_prime)


def test_control_threshold_sits_between_the_llr_means():
    # -m*B_reverse < threshold < m*B for every valid delta_ctrl.
    rng = np.random.default_rng(6)
    for _ in range(20):
        Wm = rng.dirichlet(np.ones(3) * 2.0, size=3)
        Wm = np.maximum(Wm, 1e-3)
        Wm /= Wm.sum(axis=1, keepdims=True)
        params = channel_params(ChannelMatrix(Wm))
        m = int(rng.integers(1, 30))
        delta = float(rng.uniform(1e-6, params.B + params.B_reverse - 1e-6))
        ctrl = build_control_code(params, m, delta)
        assert -m * params.B_reverse < ctrl.llr_threshold < m * params.B


def test_build_control_code_rejects_degenerate_inputs():
    params = channel_params(bsc(0.1))
    with pytest.raises(ValueError):
        build_control_code(params, 0, 0.3)
    with pytest.raises(ValueError):
        build_control_code(params, 4, 0.0)
    with pytest.raises(ValueError):
        build_control_code(params, 4, params.B + params.B_reverse)
    flat = channel_params(ChannelMatrix([[0.4, 0.6], [0.4, 0.6]]))
    with pytest.raises(ValueError, match="control phase"):
        build_control_code(flat, 4, 0.3)


def test_build_control_code_infinite_b_uses_sign_rule():
    params = channel_params(ChannelMatrix([[1.0, 0.0], [0.0, 1.0]]))
    ctrl = build_control_code(params, 3, 0.5)
    assert ctrl.llr_threshold == 0.0
    with pytest.raises(ValueError):
        build_control_code(params, 3, 0.0)


def test_control_decode_clean_c_block():
    params = channel_params(bsc(0.1))
    ctrl = build_control_code(params, 5, 0.3)
    y = np.full(5, params.x0)  # uncorrupted repetition of x_c's output
    assert control_decode(ctrl, y) == "c"


def test_control_decode_hand_threshold_cases():
    # m=2, threshold = 2(B - 0.3) = 2.9156; sums are ln9*(zeros - ones).
    params = channel_params(bsc(0.1))
    ctrl = build_control_code(params, 2, 0.3)
    assert control_decode(ctrl, (0, 0)) == "c"  # +2 ln 9 = 4.394
    assert control_decode(ctrl, (0, 1)) == "e"  # 0 < threshold
    assert control_decode(ctrl, (1, 1)) == "e"


def test_control_decode_zero_llr_symbols_are_ignored():
    # Rows agree on output 0, so those symbols must not move the sum.
    W = ChannelMatrix([[0.5, 0.4, 0.1], [0.5, 0.1, 0.4]])
    params = channel_params(W)
    ctrl = build_control_code(params, 3, 0.3)
    x0, x0p = int(ctrl.x_c[0]), int(ctrl.x_e[0])
    llr = symbol_llr(W, x0, x0p)
    assert llr[0] == 0.0
    with_zeros = control_decode(ctrl, (0, 0, 1))
    # Hand sum: only the last symbol contributes.
    expect = "c" if llr[1] >= ctrl.llr_threshold else "e"
    assert with_zeros == expect


def test_control_decode_support_exclusion_forces_e():
    # Output 2 is impossible under x0: one such symbol decides e outright.
    W = ChannelMatrix(ZERO_ENTRY)
    ctrl = ControlCode(length=3, x_c=np.zeros(3, dtype=int),
                       x_e=np.ones(3, dtype=int), llr_threshold=0.0,
                       llr=symbol_llr(W, 0, 1))
    assert control_decode(ctrl, (1, 1, 2)) == "e"
    # And output 0 is impossible under x0prime: positive proof of c.
    assert control_decode(ctrl, (0, 1, 1)) == "c"


def test_control_decode_minus_infinite_threshold_always_c():
    W = bsc(0.2)
    ctrl = ControlCode(length=2, x_c=np.zeros(2, dtype=int),
                       x_e=np.ones(2, dtype=int), llr_threshold=-math.inf,
                       llr=symbol_llr(W, 0, 1))
    for y in ((0, 0), (0, 1), (1, 1)):
        assert control_decode(ctrl, y) == "c"


def test_control_decode_batch_matches_scalar():
    params = channel_params(bsc(0.1))
    ctrl = build_control_code(params, 4, 0.5)
    rng = np.random.default_rng(13)
    ys = rng.integers(0, 2, size=(200, 4))
    got = control_decode_batch(ctrl, ys)
    for y, flag in zip(ys, got):
        assert ("c" if flag else "e") == control_decode(ctrl, y)


def test_control_decode_batch_matches_scalar_with_infinite_llrs():
    W = ChannelMatrix(ZERO_ENTRY)
    ctrl = ControlCode(length=3, x_c=np.zeros(3, dtype=int),
                       x_e=np.ones(3, dtype=int), llr_threshold=0.0,
                       llr=symbol_llr(W, 0, 1))
    rng = np.random.default_rng(14)
    ys = rng.integers(0, 3, size=(200, 3))
    got = control_decode_batch(ctrl, ys)
    for y, flag in zip(ys, got):
        assert ("c" if flag else "e") == control_decode(ctrl, y)


# A 3 x 3 channel whose inputs 0 and 1 give the LLR table (+inf, ln 4/3,
# -inf): one output letter each proves c and e outright.
ZERO_ENTRY_3X3 = [[0.6, 0.4, 0.0], [0.0, 0.3, 0.7], [0.2, 0.3, 0.5]]


def exact_control_decision(llr, threshold, word):
    """c/e from an exact LLR sum, or None within 1e-9 of the threshold."""
    terms = [llr[y] for y in word]
    if -math.inf in terms:
        return False
    if math.inf in terms:
        return True
    total = math.fsum(t for t in terms if math.isfinite(t))
    if abs(total - threshold) <= 1e-9:
        return None
    return total >= threshold


@pytest.mark.parametrize("rows", [[[0.9, 0.1], [0.1, 0.9]], ASYM,
                                  ZERO_ENTRY_3X3],
                         ids=["bsc", "asym", "zero_entry_3x3"])
def test_control_decision_is_one_rule_on_the_output_type(rows):
    # Every output word of Y^m: the word decision, the decision on its
    # type and the scalar decision agree, and match the exact LLR sum
    # wherever that sum is clear of the threshold.
    W = ChannelMatrix(rows)
    params = channel_params(W)
    llr = params.llr
    finite = llr[np.isfinite(llr)]
    checked = 0
    for m in range(1, 7):
        words = np.array(list(itertools.product(range(W.num_outputs),
                                                repeat=m)))
        types = np.stack([(words == b).sum(axis=1)
                          for b in range(W.num_outputs)], axis=1)
        thresholds = [float(t) * m for t in
                      np.linspace(finite.min() - 0.5,
                                  finite.max() + 0.5, 6)[1:-1]]
        if math.isfinite(params.B):
            thresholds.append(build_control_code(params, m, 0.3).llr_threshold)
        for threshold in thresholds:
            ctrl = ControlCode(length=m, x_c=np.full(m, params.x0),
                               x_e=np.full(m, params.x0_prime),
                               llr_threshold=threshold, llr=llr)
            by_word = control_decode_batch(ctrl, words)
            by_type = control_accepts(ctrl, types)
            np.testing.assert_array_equal(by_word, by_type)
            for word, flag in zip(words, by_word):
                assert control_decode(ctrl, word) == ("c" if flag else "e")
                exact = exact_control_decision(llr, threshold, word)
                if exact is not None:
                    assert flag == exact, (m, threshold, word)
                    checked += 1
            assert by_word.any() and not by_word.all()
    assert checked > 0


def test_control_decision_accepts_a_sum_on_the_threshold():
    # With the LLR table (1.5, -1.5), one letter of each sums to exactly
    # 0, which reaches a threshold of 0: the block is accepted.
    ctrl = ControlCode(length=2, x_c=np.zeros(2, dtype=int),
                       x_e=np.ones(2, dtype=int), llr_threshold=0.0,
                       llr=np.array([1.5, -1.5]))
    assert control_accepts(ctrl, [[1, 1], [2, 0], [0, 2]]).tolist() == \
        [True, True, False]
    assert control_decode(ctrl, (0, 1)) == control_decode(ctrl, (1, 0)) == "c"


def test_mean_threshold_crossover_near_half():
    # delta_ctrl at the top of its range puts the threshold on the e-side
    # LLR mean, so P(hear c | sent e) should sit near 1/2.
    params = channel_params(bsc(0.1))
    delta = params.B + params.B_reverse - 1e-9
    m = 100
    ctrl = build_control_code(params, m, delta)
    rng = np.random.default_rng(15)
    flips = rng.random((20_000, m)) < 0.1
    y = np.where(flips, 0, 1)  # x_e = all ones through BSC(0.1)
    p_ec = float(control_decode_batch(ctrl, y).mean())
    assert p_ec >= 0.4


# ----------------------------------------------------------------------
# gamma and SchemeConfig
# ----------------------------------------------------------------------

def test_derive_gamma_hand_arithmetic():
    # Oracle: (0.192745 + 3*0.01) / 0.368064 = 0.605180 (hand inputs).
    oracle = (0.192745 + 0.03) / 0.368064
    got = derive_gamma(0.192745, 0.01, 0.368064)
    assert got == pytest.approx(oracle, abs=1e-15)
    assert got == pytest.approx(0.605180, abs=1e-6)
    # Rate condition holds at the canonical split.
    assert (0.192745 + 0.02) / got < 0.368064


def test_derive_gamma_rejects_trivial_regime():
    with pytest.raises(ValueError, match="canonical phase split"):
        derive_gamma(0.3, 0.03, 0.368064)
    with pytest.raises(ValueError):
        derive_gamma(0.1, 0.0, 0.3)
    with pytest.raises(ValueError):
        derive_gamma(0.1, 0.01, 0.0)


def test_derive_gamma_small_rate_small_gamma():
    got = derive_gamma(0.0, 1e-4, math.log(2.0))
    assert 0.0 < got < 0.001


def test_scheme_config_canonical_split():
    C = math.log(2.0)  # generous capacity so the canonical rule applies
    cfg = SchemeConfig.derive(16, 0.05, 0.3, RD_HALF_02, C, master_seed=5)
    gamma = derive_gamma(RD_HALF_02, 0.05, C)
    assert cfg.gamma == pytest.approx(gamma, abs=1e-15)
    assert cfg.msg_len == math.floor(gamma * 16 + 1e-9)
    assert cfg.msg_len + cfg.ctrl_len == 16
    assert cfg.msg_len >= 1 and cfg.ctrl_len >= 1
    assert cfg.M == math.ceil(math.exp(16 * (RD_HALF_02 + 0.1)))
    assert (RD_HALF_02 + 0.1) / cfg.gamma < C
    assert cfg.master_seed == 5


def test_scheme_config_midpoint_fallback():
    # BSC(0.1) at eps=0.08: R+3eps >= C but R+2eps < C, so gamma falls
    # back to the midpoint of ((R+2eps)/C, 1).
    C = 0.3680642071684971
    cfg = SchemeConfig.derive(16, 0.08, 0.3, RD_HALF_02, C)
    oracle = 0.5 * ((RD_HALF_02 + 0.16) / C + 1.0)
    assert cfg.gamma == pytest.approx(oracle, abs=1e-12)
    assert cfg.msg_len == 15 and cfg.ctrl_len == 1
    assert (RD_HALF_02 + 0.16) / cfg.gamma < C


def test_scheme_config_rejects_when_message_rate_cannot_clear_capacity():
    with pytest.raises(ValueError, match=r"R\(D\) \+ 2\*epsilon >= C"):
        SchemeConfig.derive(16, 0.2, 0.3, RD_HALF_02, 0.368064)


@pytest.mark.parametrize("epsilon, C", [(0.0, 0.368064), (-0.01, 0.368064),
                                        (0.05, 0.0)],
                         ids=["zero-eps", "negative-eps", "zero-capacity"])
def test_scheme_config_does_not_fall_back_on_invalid_inputs(epsilon, C):
    # Only the R(D) + 3*eps >= C failure may take the midpoint fallback.
    with pytest.raises(ValueError, match="must be positive"):
        SchemeConfig.derive(16, epsilon, 0.3, RD_HALF_02, C)


def test_scheme_config_boundary_failures():
    C = math.log(2.0)
    # Tiny gamma*N: message phase would round to zero symbols.
    with pytest.raises(ValueError, match="message symbol"):
        SchemeConfig.derive(2, 1e-4, 0.3, 0.0, C)
    # R + 2*eps a hair under C pushes the fallback gamma so close to 1
    # that the whole block goes to the message phase.
    eps = 1e-9
    R = C - 1e-10 - 2 * eps
    with pytest.raises(ValueError, match="control"):
        SchemeConfig.derive(1, eps, 0.3, R, C)


def test_scheme_config_is_exactly_the_block():
    cfg = SchemeConfig(gamma=0.5, delta_ctrl=0.3, M=37, msg_len=6,
                       ctrl_len=2, master_seed=0)
    assert [f.name for f in fields(SchemeConfig)] == [
        "gamma", "delta_ctrl", "M", "msg_len", "ctrl_len", "master_seed"]
    assert cfg.N == 8


@pytest.mark.parametrize("changes, message", [
    ({"msg_len": 0}, "message symbol"),
    ({"ctrl_len": 0}, "control"),
    ({"M": 0}, "below 1"),
    ({"M": coding_scheme.MAX_MESSAGES + 1}, "exceeds guard"),
], ids=["msg_len-0", "ctrl_len-0", "M-0", "M-past-guard"])
def test_scheme_config_refuses_blocks_that_cannot_run(changes, message):
    block = dict(gamma=0.5, delta_ctrl=0.3, M=4, msg_len=3, ctrl_len=2,
                 master_seed=0)
    SchemeConfig(**block)
    with pytest.raises(ValueError, match=message):
        SchemeConfig(**{**block, **changes})


def test_scheme_config_rate_condition_holds_across_family():
    C = math.log(2.0)
    for N in (8, 12, 16, 24):
        for eps in (0.02, 0.05, 0.1):
            cfg = SchemeConfig.derive(N, eps, 0.3, RD_HALF_02, C)
            assert (RD_HALF_02 + 2 * eps) / cfg.gamma < C
            assert cfg.msg_len + cfg.ctrl_len == cfg.N == N


def test_scheme_config_message_guard():
    with pytest.raises(ValueError, match="guard"):
        SchemeConfig.derive(200, 0.05, 0.3, RD_HALF_02, math.log(2.0))

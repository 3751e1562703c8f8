"""Unit tests for posterior tracking and distortion-ball MAP decoding.

The sequential posterior is cross-checked against a direct product-form
oracle written here; ball-mass decisions are cross-checked against
explicit enumeration.
"""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from vlfjscc import (
    ChannelMatrix,
    DistortionMatrix,
    EncoderMap,
    Pmf,
    Posterior,
    certify_map_optimality,
    distortion,
    distortion_map_decode,
    enumerate_words,
    hamming_distortion,
    min_tail_mass,
    pairwise_distortion,
    posterior_trajectory,
    posterior_update,
    sequential_posterior,
    stopping_threshold_time,
    word_index,
)
from vlfjscc import decoding


def bsc(p: float) -> ChannelMatrix:
    return ChannelMatrix([[1.0 - p, p], [p, 1.0 - p]])


NOISELESS = ChannelMatrix([[1.0, 0.0], [0.0, 1.0]])


def product_form_posterior(P_V, enc, yn, W):
    """Direct evaluation of P(v | y^n) as prior times likelihood product.

    Written independently of posterior_update: one pass per word over the
    full observation, no incremental renormalization.
    """
    words = enumerate_words(len(P_V), enc.word_length)
    joint = []
    for w in words:
        p = 1.0
        for letter in w:
            p *= P_V.probs[letter]
        for step, y in enumerate(yn):
            x = enc(step, tuple(w), tuple(yn[:step]))
            p *= W.matrix[x, y]
        joint.append(p)
    joint = np.asarray(joint)
    return joint / joint.sum()


# ----------------------------------------------------------------------
# Posterior container
# ----------------------------------------------------------------------

def test_posterior_from_prior_is_product_measure():
    P = Pmf([0.3, 0.7])
    post = Posterior.from_prior(P, 3)
    words = enumerate_words(2, 3)
    for k, w in enumerate(words):
        oracle = np.prod([P.probs[v] for v in w])
        assert post.weights[k] == pytest.approx(oracle, abs=1e-15)
    assert post.prob((1, 0, 1)) == pytest.approx(0.7 * 0.3 * 0.7, abs=1e-15)


def test_posterior_rejects_bad_weights():
    with pytest.raises(ValueError):
        Posterior(2, 2, [0.5, 0.5, 0.5])  # wrong length
    with pytest.raises(ValueError):
        Posterior(2, 1, [0.7, 0.7])  # not normalized


def test_posterior_weights_are_read_only():
    post = Posterior(2, 1, [0.5, 0.5])
    with pytest.raises(ValueError):
        post.weights[0] = 1.0


# ----------------------------------------------------------------------
# EncoderMap
# ----------------------------------------------------------------------

def test_letter_cycle_wraps_past_word_end():
    enc = EncoderMap.letter_cycle(2, 3)
    word = (1, 0, 1)
    assert [enc(t, word, ()) for t in range(6)] == [1, 0, 1, 1, 0, 1]


def test_encoder_rejects_wrong_word_length():
    enc = EncoderMap.letter_cycle(2, 3)
    with pytest.raises(ValueError):
        enc(0, (0, 1), ())


def test_encoder_rejects_out_of_alphabet_symbol():
    enc = EncoderMap(lambda t, w, h: 5, num_inputs=2, word_length=1)
    with pytest.raises(ValueError):
        enc(0, (0,), ())


def test_random_table_is_deterministic_and_history_aware():
    enc1 = EncoderMap.random_table(2, 2, 3, np.random.default_rng(5))
    enc2 = EncoderMap.random_table(2, 2, 3, np.random.default_rng(5))
    probes = [(t, (a, b), h) for t in range(4) for a in (0, 1)
              for b in (0, 1) for h in ((), (1,), (0, 1), (1, 1))]
    assert all(enc1(*p) == enc2(*p) for p in probes)
    # Some word must react to history (probability of all-constant tables
    # across 4 history classes is negligible at this seed).
    reacts = any(
        enc1(t, w, (0,)) != enc1(t, w, (1,))
        for t in range(4) for w in ((0, 0), (0, 1), (1, 0), (1, 1)))
    assert reacts


# One history per class of sum(history) % 4, plus a longer one per class.
HISTORIES = ((), (1,), (0, 2), (3,), (2, 2, 1, 3), (1, 1, 1, 1, 1),
             (2, 0, 0, 2, 2), (1, 2, 1, 3))


@pytest.mark.parametrize("base,length", [(2, 1), (2, 3), (3, 2), (4, 2)])
@pytest.mark.parametrize("seed", [0, 11])
def test_encoder_rules_match_literal_oracle(base, length, seed):
    """letter_cycle sends w[step % N]; random_table reads
    table[step % 8, index of w, sum(h) % 4] from a table redrawn here from
    a same-seeded generator, with the same draws."""
    num_inputs = 3
    rng = np.random.default_rng(seed)
    table_enc = EncoderMap.random_table(base, length, num_inputs, rng)
    oracle_rng = np.random.default_rng(seed)
    table = oracle_rng.integers(0, num_inputs,
                                size=(8, base ** length, 4))
    assert rng.random() == oracle_rng.random()
    cycle_enc = EncoderMap.letter_cycle(base, length)
    words = list(itertools.product(range(base), repeat=length))
    batch = np.array(words)
    for step in range(10):
        for h in HISTORIES:
            want_cycle = [w[step % length] for w in words]
            want_table = [int(table[step % 8, k, sum(h) % 4])
                          for k in range(len(words))]
            assert [cycle_enc(step, w, h) for w in words] == want_cycle
            assert [table_enc(step, w, h) for w in words] == want_table
            assert cycle_enc.inputs_for_words(step, batch, h).tolist() \
                == want_cycle
            assert table_enc.inputs_for_words(step, batch, h).tolist() \
                == want_table


def test_encoder_batch_rejects_out_of_alphabet_and_bad_length():
    enc = EncoderMap.letter_cycle(2, 2)
    with pytest.raises(ValueError, match="alphabet"):
        enc.inputs_for_words(0, enumerate_words(3, 2), ())
    const = EncoderMap(lambda t, w, h: np.full(len(w), 5), num_inputs=2,
                       word_length=1)
    with pytest.raises(ValueError, match="alphabet"):
        const.inputs_for_words(0, enumerate_words(2, 1), ())
    with pytest.raises(ValueError, match="word length"):
        enc.inputs_for_words(0, enumerate_words(2, 3), ())


# ----------------------------------------------------------------------
# posterior_update
# ----------------------------------------------------------------------

def test_update_identical_rows_changes_nothing():
    W = ChannelMatrix([[0.4, 0.6], [0.4, 0.6]])
    prior = Posterior.from_prior(Pmf([0.3, 0.7]), 1)
    post = posterior_update(prior, EncoderMap.letter_cycle(2, 1), 0, (), 1, W)
    assert np.allclose(post.weights, prior.weights, atol=1e-15)


def test_update_noiseless_observation_collapses():
    prior = Posterior.from_prior(Pmf([0.5, 0.5]), 1)
    post = posterior_update(prior, EncoderMap.letter_cycle(2, 1), 0, (), 0,
                            NOISELESS)
    assert np.allclose(post.weights, [1.0, 0.0], atol=1e-15)


def test_update_bsc_one_step_hand_value():
    # Bayes by hand: 0.5*0.9 / (0.5*0.9 + 0.5*0.1) = 0.9.
    prior = Posterior.from_prior(Pmf([0.5, 0.5]), 1)
    post = posterior_update(prior, EncoderMap.letter_cycle(2, 1), 0, (), 0,
                            bsc(0.1))
    assert np.allclose(post.weights, [0.9, 0.1], atol=1e-12)


def test_update_zero_evidence_is_an_error():
    prior = Posterior(2, 1, [1.0, 0.0])
    with pytest.raises(ValueError, match="zero probability"):
        posterior_update(prior, EncoderMap.letter_cycle(2, 1), 0, (), 1,
                         NOISELESS)


# ----------------------------------------------------------------------
# sequential_posterior / posterior_trajectory
# ----------------------------------------------------------------------

def test_sequential_posterior_empty_observation_is_prior():
    P = Pmf([0.2, 0.8])
    post = sequential_posterior(P, EncoderMap.letter_cycle(2, 2), (), bsc(0.1))
    assert np.allclose(post.weights, Posterior.from_prior(P, 2).weights)


def test_sequential_posterior_noiseless_identifies_word():
    P = Pmf([0.5, 0.5])
    post = sequential_posterior(P, EncoderMap.letter_cycle(2, 2), (1, 0),
                                NOISELESS)
    assert post.prob((1, 0)) == pytest.approx(1.0, abs=1e-15)


def test_sequential_posterior_matches_product_form_on_random_instances():
    rng = np.random.default_rng(77)
    for _ in range(25):
        base = int(rng.integers(2, 4))
        length = int(rng.integers(1, 4))
        n_in = int(rng.integers(base, base + 2))
        n_out = int(rng.integers(2, 4))
        W = ChannelMatrix(rng.dirichlet(np.ones(n_out), size=n_in))
        P = Pmf(rng.dirichlet(np.ones(base)))
        enc = EncoderMap.random_table(base, length, n_in, rng)
        steps = int(rng.integers(0, 5))
        yn = tuple(int(v) for v in rng.integers(0, n_out, size=steps))
        got = sequential_posterior(P, enc, yn, W)
        oracle = product_form_posterior(P, enc, yn, W)
        assert np.abs(got.weights - oracle).max() <= 1e-12


def test_trajectory_prefixes_and_endpoint():
    rng = np.random.default_rng(3)
    W = bsc(0.2)
    P = Pmf([0.4, 0.6])
    enc = EncoderMap.letter_cycle(2, 2)
    yn = (1, 0, 1)
    traj = posterior_trajectory(P, enc, yn, W)
    assert len(traj) == 4
    assert np.allclose(traj[0].weights, Posterior.from_prior(P, 2).weights)
    assert np.allclose(traj[-1].weights,
                       sequential_posterior(P, enc, yn, W).weights)
    for k in range(1, 4):
        assert np.allclose(traj[k].weights,
                           sequential_posterior(P, enc, yn[:k], W).weights)


# ----------------------------------------------------------------------
# min_tail_mass / distortion_map_decode
# ----------------------------------------------------------------------

def test_min_tail_mass_zero_at_full_budget():
    d = hamming_distortion(2)
    post = Posterior(2, 2, [0.1, 0.2, 0.3, 0.4])
    value, _ = min_tail_mass(post, d, 1.0)
    assert value == 0.0


def test_min_tail_mass_map_tail_at_zero_budget():
    d = hamming_distortion(2)
    post = Posterior(2, 1, [0.6, 0.4])
    value, word = min_tail_mass(post, d, 0.0)
    assert value == pytest.approx(0.4, abs=1e-15)
    assert word == (0,)


def test_min_tail_mass_three_letter_enumeration():
    d = hamming_distortion(3)
    post = Posterior(3, 1, [0.5, 0.3, 0.2])
    # Enumeration oracle at D=0: tail(v) = 1 - post(v); min is 0.5 at v=0.
    value, word = min_tail_mass(post, d, 0.0)
    assert value == pytest.approx(0.5, abs=1e-15)
    assert word == (0,)


def test_distortion_map_decode_is_map_at_zero_budget():
    d = hamming_distortion(2)
    post = Posterior(2, 2, [0.1, 0.45, 0.25, 0.2])
    assert distortion_map_decode(post, d, 0.0) == (0, 1)


def test_distortion_map_decode_tie_breaks_lexicographic():
    d = hamming_distortion(2)
    post = Posterior(2, 1, [0.5, 0.5])
    assert distortion_map_decode(post, d, 0.0) == (0,)


def test_distortion_map_decode_half_budget_enumeration():
    # Balls at D=0.5 over two letters contain the word and its one-flip
    # neighbors.  Enumerated masses: ball(0,0)=0.65, ball(0,1)=1.0,
    # ball(1,0)=0.75, ball(1,1)=0.60 for the posterior below.
    d = hamming_distortion(2)
    post = Posterior(2, 2, [0.4, 0.25, 0.0, 0.35])
    words = enumerate_words(2, 2)
    masses = []
    for v in words:
        mass = sum(float(post.weights[k])
                   for k, w in enumerate(words)
                   if distortion(d, v, w) <= 0.5)
        masses.append(mass)
    best = tuple(words[int(np.argmax(masses))])
    assert best == (0, 1)
    assert distortion_map_decode(post, d, 0.5) == best


def test_decode_ball_mass_complements_min_tail():
    # 1 - (ball mass of the decoded word) equals the min tail value.
    rng = np.random.default_rng(123)
    d = hamming_distortion(2)
    for _ in range(50):
        w = rng.dirichlet(np.ones(8))
        post = Posterior(2, 3, w)
        for D in (0.0, 1.0 / 3.0, 2.0 / 3.0):
            value, argmin_word = min_tail_mass(post, d, D)
            decoded = distortion_map_decode(post, d, D)
            assert decoded == argmin_word
            ball_mass = sum(
                float(post.weights[k])
                for k, u in enumerate(enumerate_words(2, 3))
                if distortion(d, decoded, u) <= D)
            assert value == pytest.approx(1.0 - ball_mass, abs=1e-12)


def test_map_decode_matches_argmax_on_random_posteriors():
    rng = np.random.default_rng(9)
    d = hamming_distortion(3)
    words = enumerate_words(3, 2)
    for _ in range(25):
        w = rng.dirichlet(np.ones(9))
        post = Posterior(3, 2, w)
        got = distortion_map_decode(post, d, 0.0)
        assert got == tuple(words[int(np.argmax(w))])


# ----------------------------------------------------------------------
# Ball-mass argmax against brute force
# ----------------------------------------------------------------------

def circulant(f) -> DistortionMatrix:
    """d[a, b] = f((b - a) mod q)."""
    q = len(f)
    return DistortionMatrix([[f[(b - a) % q] for b in range(q)]
                             for a in range(q)])


# Translation-invariant and asymmetric, f(1) != f(q - 1): a ball mass
# computed as a convolution instead of a correlation ranks centres
# wrongly.  Dyadic entries keep every distortion exact.
CIRCULANT3 = circulant([0.0, 1.0, 0.25])
CIRCULANT4 = circulant([0.0, 0.5, 1.0, 1.75])
# Lee distortion on Z_4: the cyclic distance between letters.
LEE4 = circulant([0.0, 1.0, 2.0, 1.0])
# Not translation-invariant: d[0, 1] != d[1, 0].
SKEWED2 = DistortionMatrix([[0.0, 1.0], [2.0, 0.0]])
SKEWED3 = DistortionMatrix([[0.0, 0.5, 1.0], [0.25, 0.0, 2.0],
                            [1.5, 0.75, 0.0]])
DISTORTIONS = {"hamming2": hamming_distortion(2),
               "hamming3": hamming_distortion(3), "circulant3": CIRCULANT3,
               "hamming4": hamming_distortion(4), "lee4": LEE4,
               "circulant4": CIRCULANT4, "skewed2": SKEWED2,
               "skewed3": SKEWED3}


@functools.lru_cache(maxsize=None)
def brute_distortions(name: str, length: int) -> np.ndarray:
    """d(centre, word) for every pair, one distortion() call per pair."""
    d = DISTORTIONS[name]
    words = enumerate_words(d.alphabet_size, length)
    return np.array([[distortion(d, c, w) for w in words] for c in words])


def budgets(name: str, length: int) -> list[float]:
    """0, an attained middle cell value, and d_max."""
    cells = np.unique(brute_distortions(name, length))
    return [0.0, float(cells[len(cells) // 2]), DISTORTIONS[name].d_max]


def check_against_brute_force(post, name, D):
    """min_tail_mass and distortion_map_decode against enumerated masses.

    The value must match to rounding and the word must carry a largest
    ball; when the best ball beats every other by more than rounding, the
    word is that centre.
    """
    words = enumerate_words(post.base, post.length)
    masses = (brute_distortions(name, post.length) <= D) @ post.weights
    d = DISTORTIONS[name]
    value, word = min_tail_mass(post, d, D)
    assert distortion_map_decode(post, d, D) == word
    assert value == pytest.approx(max(1.0 - masses.max(), 0.0), abs=1e-12)
    assert masses[word_index(word, post.base)] >= masses.max() - 1e-12
    ranked = np.sort(masses)
    if len(masses) == 1 or ranked[-1] - ranked[-2] > 1e-9:
        assert word == tuple(int(v) for v in words[int(np.argmax(masses))])


def dirichlet_posteriors(base: int, length: int, seed: int):
    rng = np.random.default_rng(seed)
    for alpha in (1.0, 0.2):
        yield Posterior(base, length,
                        rng.dirichlet(np.full(base ** length, alpha)))


@pytest.mark.parametrize("length", range(1, 7))
@pytest.mark.parametrize("name", ["hamming2", "hamming3"])
def test_ball_decisions_match_brute_force_hamming(name, length):
    base = DISTORTIONS[name].alphabet_size
    for post in dirichlet_posteriors(base, length, 100 * base + length):
        for D in budgets(name, length):
            check_against_brute_force(post, name, D)


@pytest.mark.parametrize("name,length", [
    ("circulant3", 2), ("circulant3", 4), ("circulant4", 3),
    ("skewed2", 5), ("skewed3", 3)])
def test_ball_decisions_match_brute_force_asymmetric(name, length):
    base = DISTORTIONS[name].alphabet_size
    for seed in range(4):
        for post in dirichlet_posteriors(base, length, seed):
            for D in budgets(name, length):
                check_against_brute_force(post, name, D)


@pytest.mark.parametrize("name", ["hamming2", "circulant4", "skewed2"])
def test_flat_posterior_decodes_to_the_all_zero_word(name):
    d = DISTORTIONS[name]
    base = d.alphabet_size
    length = 3 if base == 4 else 5
    post = Posterior(base, length, np.full(base ** length,
                                           float(base) ** -length))
    for D in budgets(name, length):
        assert distortion_map_decode(post, d, D) == (0,) * length


def test_exact_ties_go_to_the_lowest_index():
    """Posteriors symmetric under swapping the first two letters, with
    dyadic weights, so swapped centres tie exactly under Hamming
    distortion; FFT rounding alone would sometimes favour the higher
    index of a tied pair."""
    words = enumerate_words(3, 3)
    swap = word_index(words[:, [1, 0, 2]], 3)
    fixed = word_index((2, 2, 1), 3)
    ties = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 64, size=27).astype(float)
        counts += counts[swap]
        counts[fixed] += 2.0 ** 12 - counts.sum()
        if counts[fixed] <= 0:
            continue
        post = Posterior(3, 3, counts / 2.0 ** 12)
        for D in (0.0, 1.0 / 3.0, 2.0 / 3.0):
            masses = (brute_distortions("hamming3", 3) <= D) @ post.weights
            ties += int(np.sum(masses == masses.max()) > 1)
            word = distortion_map_decode(post, hamming_distortion(3), D)
            assert word_index(word, 3) == int(np.argmax(masses))
    assert ties >= 4


@pytest.mark.parametrize("length", range(1, 7))
@pytest.mark.parametrize("base", [2, 3, 4])
def test_group_dft_matches_fftn(base, length):
    """The per-axis transform and its inverse against numpy.fft."""
    shape = (base,) * length
    for x in dirichlet_posteriors(base, length, 10 * base + length):
        x = x.weights
        f = decoding._group_dft(x, base, length)
        assert np.abs(f - np.fft.fftn(x.reshape(shape)).ravel()).max() <= 1e-12
        back = decoding._group_dft(f, base, length, inverse=True)
        assert np.abs(back - np.fft.ifftn(f.reshape(shape)).ravel()).max() \
            <= 1e-12
        assert np.abs(back - x).max() <= 1e-12


@pytest.mark.parametrize("base,length", [
    (2, 1), (2, 6), (2, 7), (2, 13), (3, 3), (3, 4), (3, 7), (4, 3), (4, 4),
    (4, 7)])
def test_group_dft_transforms_a_stack_row_by_row(base, length):
    """A (T, q^N) stack, real and complex, against the transform of each
    row alone and numpy.fft over the word axes, with the inverse round
    trip.  The lengths cross the number of axes one pass covers."""
    rng = np.random.default_rng(base * 100 + length)
    shape = (base,) * length
    axes = tuple(range(1, length + 1))
    real = rng.random((5, base ** length))
    for x in (real, real + 1j * rng.random(real.shape)):
        f = decoding._group_dft(x, base, length)
        assert f.shape == x.shape
        rows = np.array([decoding._group_dft(row, base, length) for row in x])
        assert np.abs(f - rows).max() <= 1e-12
        want = np.fft.fftn(x.reshape((5,) + shape), axes=axes).reshape(5, -1)
        assert np.abs(f - want).max() <= 1e-12 * base ** length
        back = decoding._group_dft(f, base, length, inverse=True)
        assert np.abs(back - x).max() <= 1e-12


def test_ball_cache_keys_hold_the_budget_and_the_entries():
    """One posterior, alternating two budgets and two invariant
    distortions of the same alphabet: a cached ball spectrum keyed
    without D or without the distortion's entries would rank centres by
    another ball.  The four best centres differ, so such a stale entry
    changes a decision."""
    post = next(dirichlet_posteriors(4, 3, 0))
    settings = [(name, D) for D in (1.0 / 3.0, 2.0 / 3.0)
                for name in ("hamming4", "lee4")]
    best = {int(np.argmax((brute_distortions(name, 3) <= D) @ post.weights))
            for name, D in settings}
    assert len(best) == len(settings)
    decoding._ball_spectrum.cache_clear()
    for _ in range(2):
        for name, D in settings:
            check_against_brute_force(post, name, D)


def test_word_table_is_shared_and_read_only(monkeypatch):
    """Updates, certification and the decoder read one cached table; the
    public enumerate_words still returns a fresh, writable array."""
    calls = []

    def counting(base, length):
        calls.append((base, length))
        return enumerate_words(base, length)

    monkeypatch.setattr(decoding, "enumerate_words", counting)
    decoding._word_table.cache_clear()
    enc = EncoderMap.letter_cycle(2, 3)
    for _ in range(2):
        traj = posterior_trajectory(Pmf([0.7, 0.3]), enc, [0, 1, 1, 0],
                                    bsc(0.1))
        stopping_threshold_time(traj, hamming_distortion(2), 1 / 3, 0.0)
        certify_map_optimality(Pmf([0.7, 0.3]), enc, bsc(0.1),
                               hamming_distortion(2), 1 / 3, 2)
    assert calls == [(2, 3)]
    table = decoding._word_table(2, 3)
    with pytest.raises(ValueError):
        table[0, 0] = 1
    fresh = enumerate_words(2, 3)
    fresh[0, 0] = 1
    assert table[0, 0] == 0 and enumerate_words(2, 3)[0, 0] == 0


def count_cells(monkeypatch) -> list:
    """Record the cell count of every pairwise_distortion call of decoding."""
    sizes = []

    def counting(d, words_a, words_b):
        block = pairwise_distortion(d, words_a, words_b)
        sizes.append(block.size)
        return block

    monkeypatch.setattr(decoding, "pairwise_distortion", counting)
    return sizes


def test_workload_posterior_scores_a_few_rows(monkeypatch):
    """Letter-cycle trajectory at N = 10 over BSC(0.1), prior (0.7, 0.3):
    every decision matches a popcount oracle over all 2^N centres, while
    the decoder computes at most 4 x 2^N distortion cells per call."""
    length, D = 10, 0.2
    rng = np.random.default_rng(4)
    v = (rng.random(length) < 0.3).astype(int)
    yn = [int(v[t % length] ^ (rng.random() < 0.1))
          for t in range(2 * length)]
    traj = posterior_trajectory(Pmf([0.7, 0.3]),
                                EncoderMap.letter_cycle(2, length), yn,
                                bsc(0.1))
    idx = np.arange(2 ** length)
    inside = np.bitwise_count(idx[:, None] ^ idx[None, :]) <= D * length
    sizes = count_cells(monkeypatch)
    for post in traj:
        sizes.clear()
        value, word = min_tail_mass(post, hamming_distortion(2), D)
        masses = inside @ post.weights
        assert value == pytest.approx(1.0 - masses.max(), abs=1e-12)
        assert word_index(word, 2) == int(np.argmax(masses))
        assert sum(sizes) <= 4 * 2 ** length


@pytest.mark.parametrize("chunk_cells", [100, 1000])
def test_scoring_blocks_stay_within_the_chunk(monkeypatch, chunk_cells):
    """Every row of a non-invariant distortion is scored, then the rows
    within BALL_MASS_TOL of the largest mass are scored again, in blocks
    of at most max(1, SCORE_CHUNK_CELLS // |V|^N) rows.  The brute-force
    check calls min_tail_mass and distortion_map_decode, two passes."""
    length = 8
    monkeypatch.setattr(decoding, "SCORE_CHUNK_CELLS", chunk_cells)
    sizes = count_cells(monkeypatch)
    for post in dirichlet_posteriors(2, length, 8):
        for D in budgets("skewed2", length):
            masses = (brute_distortions("skewed2", length) <= D) @ post.weights
            kept = int(np.sum(masses >= masses.max() - decoding.BALL_MASS_TOL))
            sizes.clear()
            check_against_brute_force(post, "skewed2", D)
            assert sum(sizes) == 2 * (4 ** length + kept * 2 ** length)
            assert max(sizes) <= max(chunk_cells, 2 ** length)


@pytest.mark.parametrize("d,why", [
    (SKEWED2, "not translation-invariant"),
    (hamming_distortion(2), "near flat")], ids=["skewed2", "flat-hamming2"])
def test_scoring_past_the_cell_guard_fails_fast(monkeypatch, d, why):
    """Just past MAX_SCORE_CELLS the call raises before scoring a block."""
    length = 1
    while 4 ** length <= decoding.MAX_SCORE_CELLS:
        length += 1
    post = Posterior(2, length, np.full(2 ** length, 0.5 ** length))
    sizes = count_cells(monkeypatch)
    with pytest.raises(ValueError, match=why) as err:
        min_tail_mass(post, d, 0.2)
    assert f"{2 ** length} source words" in str(err.value)
    assert sum(sizes) <= 2 ** length


def test_min_tail_mass_at_n16_matches_product_oracle():
    """After 2N letter-cycle outputs the posterior is a product measure.
    Under Hamming distortion the best centre is then the per-letter MAP
    word and its tail is a Poisson-binomial upper tail, computed here by a
    DP over positions.  The full table would be 2^32 cells."""
    length, D, p = 16, 0.25, 0.1
    prior = np.array([0.7, 0.3])
    rng = np.random.default_rng(16)
    v = (rng.random(length) < 0.3).astype(int)
    yn = [int(v[t % length] ^ (rng.random() < p))
          for t in range(2 * length)]
    post = sequential_posterior(Pmf(prior), EncoderMap.letter_cycle(2, length),
                                yn, bsc(p))
    lik = np.array([[1 - p, p], [p, 1 - p]])
    marg = prior * lik[:, yn[:length]].T * lik[:, yn[length:]].T
    marg /= marg.sum(axis=1, keepdims=True)
    assert np.abs(marg[:, 1] - 0.5).min() > 0.05
    map_word = tuple(int(k) for k in marg.argmax(axis=1))
    miss = marg.min(axis=1)
    law = np.zeros(length + 1)
    law[0] = 1.0
    for q in miss:
        law[1:] = law[1:] * (1 - q) + law[:-1] * q
        law[0] *= 1 - q
    tail = float(law[int(D * length) + 1:].sum())
    value, word = min_tail_mass(post, hamming_distortion(2), D)
    assert word == map_word
    assert value == pytest.approx(tail, abs=1e-12)


def popcount_ball_masses(weights: np.ndarray, length: int,
                         radius: int) -> np.ndarray:
    """Mass of the Hamming ball of the given radius around every binary
    centre, by popcount over all (centre, word) pairs.

    Words split into a high and a low half, so the 4^N pairs are counted
    as (high centre, high word) x (low centre, low word, low distance):
    mass(c) = sum over u_hi of G[u_hi, c_lo, radius - |c_hi ^ u_hi|], where
    G holds the mass of row u_hi within each low distance of c_lo.
    """
    n_hi = 2 ** (length // 2)
    n_lo = 2 ** (length - length // 2)
    lo_bits = length - length // 2
    post = weights.reshape(n_hi, n_lo)
    dist_hi = np.bitwise_count(np.arange(n_hi)[:, None] ^ np.arange(n_hi))
    dist_lo = np.bitwise_count(np.arange(n_lo)[:, None] ^ np.arange(n_lo))
    within = (dist_lo[:, :, None] <= np.arange(lo_bits + 1)).astype(float)
    G = np.einsum("hu,cuj->hcj", post, within)
    budget = radius - dist_hi.astype(int)
    gathered = G[np.arange(n_hi), :, np.clip(budget, 0, lo_bits)]
    return ((budget >= 0)[:, :, None] * gathered).sum(axis=1).ravel()


def test_stopping_rule_on_the_workload_trajectory_scores_no_cells(
        monkeypatch):
    """The benchmark's trajectory (N = 10, D = 0.2, threshold 1e-6): the
    stop time equals the popcount oracle's and, with the ball spectrum
    cached, no pairwise_distortion cell is computed."""
    length, D = 10, 0.2
    rng = np.random.default_rng(4)
    v = (rng.random(length) < 0.3).astype(int)
    yn = [int(v[t % length] ^ (rng.random() < 0.1))
          for t in range(2 * length)]
    traj = posterior_trajectory(Pmf([0.7, 0.3]),
                                EncoderMap.letter_cycle(2, length), yn,
                                bsc(0.1))
    d = hamming_distortion(2)
    tails = [1.0 - popcount_ball_masses(post.weights, length, 2).max()
             for post in traj]
    min_tail_mass(traj[0], d, D)  # caches the ball spectrum
    sizes = count_cells(monkeypatch)
    for threshold in (1e-6, 1e-3, 0.2):
        sizes.clear()
        want = next((n for n, t in enumerate(tails) if t <= threshold), None)
        assert stopping_threshold_time(traj, d, D, threshold) == want
        if threshold == 1e-6:
            assert sizes == []


def test_stopping_rule_decides_near_flat_posteriors_past_the_cell_guard(
        monkeypatch):
    """Uniform prior at binary N = 14, where min_tail_mass refuses the
    near-flat early posteriors: the rule returns the popcount oracle's
    stop time for several thresholds and scores no cell doing so."""
    length, D, radius = 14, 0.25, 3
    assert 4 ** length > decoding.MAX_SCORE_CELLS
    rng = np.random.default_rng(14)
    v = rng.integers(0, 2, size=length)
    yn = [int(v[t % length] ^ (rng.random() < 0.1))
          for t in range(2 * length)]
    traj = posterior_trajectory(Pmf([0.5, 0.5]),
                                EncoderMap.letter_cycle(2, length), yn,
                                bsc(0.1))
    d = hamming_distortion(2)
    with pytest.raises(ValueError, match="near flat"):
        min_tail_mass(traj[0], d, D)
    tails = [1.0 - popcount_ball_masses(post.weights, length, radius).max()
             for post in traj]
    assert tails[-1] == pytest.approx(min_tail_mass(traj[-1], d, D)[0],
                                      abs=1e-12)
    sizes = count_cells(monkeypatch)
    stops = set()
    for threshold in (0.5, 0.1, 0.02, 1e-3):
        assert min(abs(t - threshold) for t in tails) > 1e-6
        want = next((n for n, t in enumerate(tails) if t <= threshold), None)
        assert stopping_threshold_time(traj, d, D, threshold) == want
        stops.add(want)
    assert sizes == []
    assert len(stops) == 4 and min(s for s in stops if s is not None) > 0


# ----------------------------------------------------------------------
# certify_map_optimality
# ----------------------------------------------------------------------

def test_certify_noiseless_zero_violation_and_zero_excess():
    report = certify_map_optimality(
        Pmf([0.5, 0.5]), EncoderMap.letter_cycle(2, 2), NOISELESS,
        hamming_distortion(2), 0.0, 2)
    assert report.max_violation == 0.0
    assert report.excess_probability == 0.0
    assert report.outputs_checked == 4


def test_certify_bsc02_single_letter():
    report = certify_map_optimality(
        Pmf([0.5, 0.5]), EncoderMap.letter_cycle(2, 1), bsc(0.2),
        hamming_distortion(2), 0.0, 2)
    assert report.max_violation <= 1e-12


def test_certify_two_letter_half_budget():
    report = certify_map_optimality(
        Pmf([0.5, 0.5]), EncoderMap.letter_cycle(2, 2), bsc(0.1),
        hamming_distortion(2), 0.5, 3)
    assert report.max_violation <= 1e-12


def test_certify_detects_corrupted_decoder():
    def corrupted(post, d, D):
        # Always answer the all-zero word, ignoring the posterior.
        return tuple([0] * post.length)

    report = certify_map_optimality(
        Pmf([0.5, 0.5]), EncoderMap.letter_cycle(2, 1), bsc(0.2),
        hamming_distortion(2), 0.0, 2, decoder=corrupted)
    assert report.max_violation > 1e-12
    assert report.worst_output is not None


def test_certify_size_guard():
    with pytest.raises(ValueError, match="guard"):
        certify_map_optimality(
            Pmf([0.5] * 2), EncoderMap.letter_cycle(2, 12),
            ChannelMatrix(np.full((2, 4), 0.25)),
            hamming_distortion(2), 0.0, 7)


def per_output_certification(P_V, enc, W, d, D, n, decoder):
    """certify_map_optimality as one loop over output words: each joint is
    rebuilt from the prior with n encoder calls, in step order."""
    base, length = len(P_V), enc.word_length
    words = enumerate_words(base, length)
    prior = Posterior.from_prior(P_V, length).weights
    outside = np.array([distortion(d, c, words) > D for c in words], float)
    max_violation, worst, excess_total, skipped = 0.0, None, 0.0, 0
    for yn in itertools.product(range(W.num_outputs), repeat=n):
        joint = prior.copy()
        for step in range(n):
            x = enc.inputs_for_words(step, words, yn[:step])
            joint *= W.matrix[x, yn[step]]
        evidence = float(joint.sum())
        if evidence <= 0.0:
            skipped += 1
            continue
        post = joint / evidence
        tails = outside @ post
        decided = decoder(Posterior(base, length, post), d, D)
        dec_tail = float(tails[word_index(decided, base)])
        violation = dec_tail - float(tails.min())
        if violation > max_violation:
            max_violation, worst = violation, yn
        excess_total += evidence * dec_tail
    return (max_violation, worst, excess_total, W.num_outputs ** n, skipped)


def anti_map(post, d, D):
    """The centre whose ball holds the least posterior mass."""
    words = enumerate_words(post.base, post.length)
    masses = [sum(w for u, w in zip(words, post.weights)
                  if distortion(d, c, u) <= D) for c in words]
    return tuple(int(v) for v in words[int(np.argmin(masses))])


@pytest.mark.parametrize("W,length,n,zero_outputs", [
    (bsc(0.1), 4, 8, False),
    (ChannelMatrix([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3]]), 3, 5, False),
    (ChannelMatrix([[0.7, 0.3, 0.0], [0.0, 0.4, 0.6]]), 2, 5, True)],
    ids=["bsc-n8", "three-outputs", "zero-entries"])
@pytest.mark.parametrize("decoder", [distortion_map_decode, anti_map],
                         ids=["map", "anti-map"])
def test_certification_walks_output_prefixes(W, length, n, zero_outputs,
                                             decoder):
    """One encoder call per output prefix shorter than n, (|Y|^n - 1) /
    (|Y| - 1) in all (255 at |Y| = 2, n = 8), and a report equal, bit for
    bit, to the per-output loop's.  With zero channel entries some output
    words have probability zero and are skipped."""
    rng = np.random.default_rng(100 * length + n)
    P_V = Pmf(rng.dirichlet(np.ones(2)))
    enc = EncoderMap.random_table(2, length, 2, rng)
    d, D = hamming_distortion(2), 0.25
    histories = []
    batch = enc.inputs_for_words

    def counting(step, words, history):
        histories.append(tuple(history))
        return batch(step, words, history)

    want = per_output_certification(P_V, enc, W, d, D, n, decoder)
    enc.inputs_for_words = counting
    rep = certify_map_optimality(P_V, enc, W, d, D, n, decoder=decoder)
    K = W.num_outputs
    assert len(histories) == (K ** n - 1) // (K - 1)
    assert len(set(histories)) == len(histories)
    got = (rep.max_violation, rep.worst_output, rep.excess_probability,
           rep.outputs_checked, rep.zero_probability_outputs)
    assert repr(got) == repr(want)
    assert (rep.zero_probability_outputs > 0) == zero_outputs
    assert (rep.max_violation > 1e-12) == (decoder is anti_map)


# ----------------------------------------------------------------------
# stopping_threshold_time
# ----------------------------------------------------------------------

def test_stopping_time_immediate_at_threshold_one():
    P = Pmf([0.5, 0.5])
    traj = posterior_trajectory(P, EncoderMap.letter_cycle(2, 2), (0, 1),
                                bsc(0.1))
    assert stopping_threshold_time(traj, hamming_distortion(2), 0.0, 1.0) == 0


def test_stopping_time_noiseless_collapse_at_word_length():
    P = Pmf([0.5, 0.5])
    enc = EncoderMap.letter_cycle(2, 3)
    traj = posterior_trajectory(P, enc, (1, 0, 1), NOISELESS)
    assert stopping_threshold_time(traj, hamming_distortion(2), 0.0, 0.0) == 3


def test_stopping_time_none_when_never_reached():
    P = Pmf([0.5, 0.5])
    traj = posterior_trajectory(P, EncoderMap.letter_cycle(2, 2), (0,),
                                bsc(0.3))
    got = stopping_threshold_time(traj, hamming_distortion(2), 0.0, 1e-9)
    assert got is None


def test_stopping_time_monotone_in_threshold_random_trajectories():
    rng = np.random.default_rng(2025)
    d2 = hamming_distortion(2)
    for _ in range(50):
        p = float(rng.uniform(0.05, 0.45))
        W = bsc(p)
        P = Pmf(rng.dirichlet(np.ones(2)))
        enc = EncoderMap.random_table(2, 2, 2, rng)
        yn = tuple(int(v) for v in rng.integers(0, 2, size=6))
        traj = posterior_trajectory(P, enc, yn, W)
        # Direct scan oracle: recompute first-crossing times by hand.
        values = [min_tail_mass(post, d2, 0.0)[0] for post in traj]
        for lo, hi in ((0.05, 0.2), (0.1, 0.5), (0.3, 0.9)):
            t_hi = stopping_threshold_time(traj, d2, 0.0, hi)
            t_lo = stopping_threshold_time(traj, d2, 0.0, lo)
            oracle_hi = next((n for n, v in enumerate(values) if v <= hi),
                             None)
            assert t_hi == oracle_hi
            if t_lo is not None:
                assert t_hi is not None and t_hi <= t_lo


def random_trajectory(base: int, length: int, steps: int,
                      rng: np.random.Generator) -> list:
    """Posteriors of a random_table encoder over a random base x 3 channel."""
    W = ChannelMatrix(rng.dirichlet(np.ones(3), size=base))
    P = Pmf(rng.dirichlet(np.ones(base)))
    enc = EncoderMap.random_table(base, length, base, rng)
    yn = tuple(int(y) for y in rng.integers(0, 3, size=steps))
    return posterior_trajectory(P, enc, yn, W)


@pytest.mark.parametrize("cap", [None, 3], ids=["doubling", "capped-at-3"])
@pytest.mark.parametrize("name,length", [
    ("hamming2", 5), ("hamming3", 3), ("hamming4", 3), ("lee4", 3),
    ("skewed2", 5)])
def test_stop_times_equal_the_per_posterior_scan(monkeypatch, name, length,
                                                 cap):
    """Thresholds at each posterior's exact tail and its float neighbours
    put posteriors inside the tolerance band, where min_tail_mass decides.
    Stacks hold 1, 2, 4, ... posteriors up to the memory cap, so a stop
    transforms fewer than twice the posteriors it decides; with the cap at
    3 the rule returns from blocks past it.  A distortion that is not
    translation-invariant is stacked the same way."""
    d = DISTORTIONS[name]
    base = d.alphabet_size
    if cap is not None:
        monkeypatch.setattr(decoding, "SCORE_CHUNK_CELLS",
                            cap * decoding.TRANSFORM_COPIES * base ** length)
    scan = decoding.min_tail_mass
    stacked = decoding._ball_masses
    exact_calls, blocks = [], []

    def counting(post, dd, DD):
        exact_calls.append(post)
        return scan(post, dd, DD)

    def recording(weights, *args):
        if weights.ndim == 2:
            blocks.append(len(weights))
        return stacked(weights, *args)

    monkeypatch.setattr(decoding, "min_tail_mass", counting)
    monkeypatch.setattr(decoding, "_ball_masses", recording)
    rng = np.random.default_rng(base * 10 + length)
    stops = set()
    for _ in range(3):
        traj = random_trajectory(base, length, 9, rng)
        for D in budgets(name, length):
            values = [scan(post, d, D)[0] for post in traj]
            thresholds = {0.0, 1.0}
            for v in values:
                thresholds |= {v, np.nextafter(v, -1.0), np.nextafter(v, 2.0)}
            for threshold in sorted(thresholds):
                want = next((n for n, v in enumerate(values)
                             if v <= threshold), None)
                blocks.clear()
                assert stopping_threshold_time(traj, d, D, threshold) == want
                stops.add(want)
                decided = len(traj) if want is None else want + 1
                step, covered = 1, 0
                for size in blocks:
                    assert size == min(step, len(traj) - covered)
                    covered += size
                    step = 2 * step if cap is None else min(2 * step, cap)
                assert covered - blocks[-1] < decided <= covered
                assert covered < 2 * decided
    assert exact_calls
    if cap is not None:
        assert max(s for s in stops if s is not None) >= 2 * cap


def test_skewed_stacks_score_every_cell_once_per_stack(monkeypatch):
    """SKEWED2 is not translation-invariant, so each stack of the stopping
    rule scores all 4^N (centre, word) cells once, whatever its size; a
    posterior inside the tolerance band adds min_tail_mass, 4^N cells
    plus 2^N per centre within BALL_MASS_TOL of its best.  Scanning the
    posteriors one at a time would score 4^N cells per posterior.  The
    letter-cycle trajectory at N = 8 has 17 strictly falling tails;
    thresholds sit at each exact tail, between tails and below the
    last."""
    length, D = 8, 0.25
    n_words = 2 ** length
    rng = np.random.default_rng(8)
    v = (rng.random(length) < 0.3).astype(int)
    yn = [int(v[t % length] ^ (rng.random() < 0.1))
          for t in range(2 * length)]
    traj = posterior_trajectory(Pmf([0.7, 0.3]),
                                EncoderMap.letter_cycle(2, length), yn,
                                bsc(0.1))
    masses = [(brute_distortions("skewed2", length) <= D) @ post.weights
              for post in traj]
    tails = [min_tail_mass(post, SKEWED2, D)[0] for post in traj]
    assert all(a > b for a, b in zip(tails, tails[1:])) and tails[-1] > 0
    between = [math.sqrt(a * b) for a, b in zip(tails, tails[1:])]
    sizes = count_cells(monkeypatch)
    banded = 0
    for threshold in tails + between + [0.0]:
        want = next((n for n, t in enumerate(tails) if t <= threshold), None)
        decided = len(traj) if want is None else want + 1
        cells = decided.bit_length() * n_words ** 2
        for m in masses[:decided]:
            if abs(m.max() - (1.0 - threshold)) <= decoding.BALL_MASS_TOL:
                kept = int(np.sum(m >= m.max() - decoding.BALL_MASS_TOL))
                cells += n_words ** 2 + kept * n_words
                banded += 1
        sizes.clear()
        assert stopping_threshold_time(traj, SKEWED2, D, threshold) == want
        assert sum(sizes) == cells
        assert max(sizes) <= max(decoding.SCORE_CHUNK_CELLS, n_words)
        if want is None:
            assert cells == 5 * n_words ** 2 < len(traj) * n_words ** 2
    assert banded == len(tails)


def test_stopping_rule_refuses_mixed_word_spaces():
    """The posteriors are stacked, so they must share one (base, length);
    the refusal comes before any posterior is decided."""
    P = Pmf([0.5, 0.5])
    short = posterior_trajectory(P, EncoderMap.letter_cycle(2, 2), (0, 1),
                                 bsc(0.1))
    long = posterior_trajectory(P, EncoderMap.letter_cycle(2, 3), (0,),
                                bsc(0.1))
    ternary = [Posterior.from_prior(Pmf([0.2, 0.3, 0.5]), 2)]
    for traj in (short + long, short + ternary):
        with pytest.raises(ValueError, match=r"share one \(base, length\)"):
            stopping_threshold_time(traj, hamming_distortion(2), 0.0, 1.0)
    assert stopping_threshold_time([], hamming_distortion(2), 0.0, 1.0) is None


# ----------------------------------------------------------------------
# One-step contraction property
# ----------------------------------------------------------------------

def test_posterior_contraction_random_instances():
    # posterior(v) >= lam * prior(v) after any single update, where lam is
    # the smallest channel entry (full-support channels).
    rng = np.random.default_rng(20240817)
    for _ in range(300):
        base = int(rng.integers(2, 4))
        length = int(rng.integers(1, 3))
        n_in = int(rng.integers(base, base + 2))
        n_out = int(rng.integers(2, 4))
        Wm = rng.dirichlet(np.ones(n_out) * 3.0, size=n_in)
        Wm = np.maximum(Wm, 1e-4)
        Wm /= Wm.sum(axis=1, keepdims=True)
        W = ChannelMatrix(Wm)
        lam = float(W.matrix.min())
        P = Pmf(rng.dirichlet(np.ones(base)))
        enc = EncoderMap.random_table(base, length, n_in, rng)
        steps = int(rng.integers(0, 3))
        history = tuple(int(v) for v in rng.integers(0, n_out, size=steps))
        prior = Posterior.from_prior(P, length)
        for s, y in enumerate(history):
            prior = posterior_update(prior, enc, s, history[:s], y, W)
        y = int(rng.integers(0, n_out))
        post = posterior_update(prior, enc, steps, history, y, W)
        assert np.all(post.weights >= lam * prior.weights - 1e-12)


def test_min_tail_mass_scores_against_the_word_table_as_given():
    # A peaked q = 4, N = 10 posterior keeps one centre, which is scored
    # exactly against the 2**20-word int8 table: an intp copy of that
    # table alone is 80 MiB, and the call peaked at 144 MiB with it.  The
    # first call fills the read-only caches (word table, ball spectrum).
    post = Posterior.from_prior(Pmf([0.97, 0.01, 0.01, 0.01]), 10)
    d = hamming_distortion(4)
    first = min_tail_mass(post, d, 0.2)
    tracemalloc.start()
    try:
        again = min_tail_mass(post, d, 0.2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert again == first and first[1] == (0,) * 10
    assert peak < 100 * 2 ** 20

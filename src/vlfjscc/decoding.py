"""Posterior tracking over source words and distortion-ball MAP decoding.

The decoder side of the converse machinery: exact sequential posteriors
P(v | y^n) for causal encoders with feedback, the decision rule that
maximizes posterior mass of the distortion ball around a candidate word,
brute-force certification that no other rule beats it, and threshold
stopping times on posterior trajectories.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .probability import (
    ChannelMatrix,
    DistortionMatrix,
    Pmf,
    distortion,
    enumerate_words,
    pairwise_distortion,
    word_index,
)

# Dense posterior size guard (weights vector length |V| ** N).
MAX_POSTERIOR_WORDS = 2 ** 22
# Certification instance guard (|V|**N * |Y|**n).
MAX_CERTIFY_CELLS = 2 ** 22
# Ball-mass scoring guard: candidate centres scored exactly times |V|**N.
MAX_SCORE_CELLS = 2 ** 26
# Cells of one scored block (centres times |V|**N), 32 MiB as float64.
SCORE_CHUNK_CELLS = 2 ** 22
# A stacked group transform holds its block's weights and four arrays of the
# transform's dtype at once: 9 float64 copies of the block when complex, 5
# when real (base 2).  Stacks are sized by the larger count.
TRANSFORM_COPIES = 9
# Transform ball masses within this of the largest are scored exactly.  It
# sits far above the transform rounding (below 1e-13 at N = 10) and far
# below any real gap between distinct ball masses.
BALL_MASS_TOL = 1e-9
# EncoderMap.random_table repeats every TABLE_STEP_PERIOD steps.
TABLE_STEP_PERIOD = 8
TABLE_HISTORY_CLASSES = 4
# Entries kept by each of the word-table and ball-spectrum caches.  A
# binary word table at N = 22, the posterior guard, is 92 MB.
CACHE_ENTRIES = 4


@functools.lru_cache(maxsize=CACHE_ENTRIES)
def _word_table(base: int, length: int) -> np.ndarray:
    """enumerate_words(base, length), shared and read-only."""
    words = enumerate_words(base, length)
    words.flags.writeable = False
    return words


@dataclass(frozen=True, eq=False)
class Posterior:
    """Distribution over all length-N source words, stored densely.

    weights[k] is the probability of the word whose lexicographic rank is
    k (see enumerate_words for the ordering).
    """

    base: int
    length: int
    weights: np.ndarray

    def __init__(self, base: int, length: int, weights) -> None:
        size = base ** length
        if size > MAX_POSTERIOR_WORDS:
            raise ValueError("posterior support exceeds the dense-storage guard")
        arr = np.asarray(weights, dtype=np.float64)
        if arr.shape != (size,):
            raise ValueError("weight vector does not match |V|**N")
        if abs(float(arr.sum()) - 1.0) > 1e-9:
            raise ValueError("posterior weights must sum to 1")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "weights", arr)

    @classmethod
    def from_prior(cls, P_V: Pmf, length: int) -> "Posterior":
        """Product measure P_V^N in lexicographic order."""
        w = np.ones(1)
        for _ in range(length):
            w = np.kron(w, P_V.probs)
        return cls(len(P_V), length, w)

    def prob(self, word) -> float:
        return float(self.weights[word_index(word, self.base)])


class EncoderMap:
    """Causal encoding rule: (step, source words, output history) -> inputs.

    One deterministic batch rule ``fn(step, words, history)`` maps an (n, N)
    array of words of one fixed length N to their n inputs; it must be total
    over every history it is queried with.  Steps count from 0 and
    ``history`` is the tuple of outputs seen so far.
    """

    def __init__(self, fn, num_inputs: int, word_length: int):
        self._fn = fn
        self.num_inputs = int(num_inputs)
        self.word_length = int(word_length)

    def __call__(self, step: int, word, history) -> int:
        """Channel input for one word: the rule on a batch of one."""
        return int(self.inputs_for_words(step, [word], history)[0])

    def inputs_for_words(self, step: int, words: np.ndarray, history) -> np.ndarray:
        """Channel input for every row of an (n, N) word array at one step."""
        words = np.asarray(words)
        if words.ndim != 2 or words.shape[1] != self.word_length:
            raise ValueError("word length does not match this encoder")
        x = np.asarray(self._fn(step, words, tuple(history)), dtype=np.int64)
        if np.any((x < 0) | (x >= self.num_inputs)):
            raise ValueError("encoder produced an input outside the alphabet")
        return x

    @classmethod
    def letter_cycle(cls, num_inputs: int, word_length: int) -> "EncoderMap":
        """Send the word's letters in order, cycling past the end."""
        def fn(step, words, history):
            return words[:, step % word_length]
        return cls(fn, num_inputs, word_length)

    @classmethod
    def random_table(cls, base: int, word_length: int, num_inputs: int,
                     rng: np.random.Generator) -> "EncoderMap":
        """Seeded pseudo-random causal encoder.

        History enters through the sum of past outputs modulo
        TABLE_HISTORY_CLASSES, so the rule is history-dependent yet stays
        total on arbitrarily long histories.
        """
        table = rng.integers(
            0, num_inputs, size=(TABLE_STEP_PERIOD, base ** word_length,
                                 TABLE_HISTORY_CLASSES))

        def fn(step, words, history):
            return table[step % TABLE_STEP_PERIOD, word_index(words, base),
                         sum(history) % TABLE_HISTORY_CLASSES]
        return cls(fn, num_inputs, word_length)


def posterior_update(prior: Posterior, enc: EncoderMap, step: int, history,
                     y: int, W: ChannelMatrix) -> Posterior:
    """One Bayes step: reweight by W(y | enc(step, v, history))."""
    words = _word_table(prior.base, prior.length)
    x = enc.inputs_for_words(step, words, history)
    lik = W.matrix[x, int(y)]
    w = prior.weights * lik
    total = float(w.sum())
    if total <= 0.0:
        raise ValueError("observed output has zero probability under every word")
    return Posterior(prior.base, prior.length, w / total)


def _posteriors(P_V: Pmf, enc: EncoderMap, yn, W: ChannelMatrix):
    """Yield the prior, then the posterior after each output of yn."""
    post = Posterior.from_prior(P_V, enc.word_length)
    yield post
    history: list[int] = []
    for step, y in enumerate(yn):
        post = posterior_update(post, enc, step, history, int(y), W)
        history.append(int(y))
        yield post


def sequential_posterior(P_V: Pmf, enc: EncoderMap, yn,
                         W: ChannelMatrix) -> Posterior:
    """Posterior after observing the full output word yn (may be empty)."""
    for post in _posteriors(P_V, enc, yn, W):
        pass
    return post


def posterior_trajectory(P_V: Pmf, enc: EncoderMap, yn,
                         W: ChannelMatrix) -> list[Posterior]:
    """Posterior after each prefix of yn; entry 0 is the prior."""
    return list(_posteriors(P_V, enc, yn, W))


@functools.lru_cache(maxsize=4 * CACHE_ENTRIES)
def _dft_power(base: int, axes: int, inverse: bool) -> np.ndarray:
    """Kronecker power, over ``axes`` axes, of the base x base group DFT.

    Entry (a, b), for a and b in word order over Z_base^axes, is
    w^(a . b mod base) with w = exp(-2 pi i / base), the sign of np.fft;
    w = -1 makes it the real Walsh-Hadamard matrix for base 2.  The
    inverse takes conj(w) and the scale base^-axes.  The matrix is
    symmetric and read-only.
    """
    digits = np.indices((base,) * axes).reshape(axes, -1)
    phase = digits.T @ digits % base
    if base == 2:
        roots = np.array([1.0, -1.0])
    else:
        roots = np.exp(-2j * np.pi * np.arange(base) / base)
    if inverse:
        roots = np.conj(roots) / base ** axes
    power = roots[phase]
    power.flags.writeable = False
    return power


def _group_dft(x: np.ndarray, base: int, length: int,
               inverse: bool = False) -> np.ndarray:
    """DFT over the group Z_base^length of a stack of vectors in word order.

    ``x`` has shape (..., base**length); every vector of the stack is
    transformed, with the sign and scale of np.fft.  A pass applies the
    Kronecker power of the DFT matrix over the trailing k axes of
    ``x.reshape(..., (base,) * length)`` as one matmul and moves those axes
    first, so after passes covering ``length`` axes every axis is
    transformed and back in place.  k is the most axes whose power has at
    most 64 rows (6 for base 2, 3 for bases 3 and 4), at least 1.
    """
    lead = x.shape[:-1]
    per_pass = 1
    while base ** (per_pass + 1) <= 64:
        per_pass += 1
    x = x.reshape(-1, base ** length)
    for done in range(0, length, per_pass):
        axes = min(per_pass, length - done)
        rows = base ** axes
        y = x.reshape(-1, rows) @ _dft_power(base, axes, inverse)
        x = y.reshape(len(x), -1, rows).transpose(0, 2, 1)
    return x.reshape(lead + (base ** length,))


@functools.lru_cache(maxsize=CACHE_ENTRIES)
def _ball_spectrum(base: int, length: int, entries: tuple, D: float):
    """conj of the group DFT of the ball-at-zero indicator, or None.

    None unless d(a, b) depends only on (b - a) mod |V|, as Hamming and
    Lee do: other ball masses are no correlation over the group.
    """
    d = DistortionMatrix(entries)
    q = d.alphabet_size
    a = np.arange(q)[:, None]
    if (d.matrix[a, (a + np.arange(q)) % q] != d.matrix[0]).any():
        return None
    words = _word_table(base, length)
    ball = (pairwise_distortion(d, words[:1], words)[0] <= D).astype(float)
    # conj: the centre is the first argument of d, so a ball mass is a
    # correlation, mass(c) = sum_u post(c + u) ball(u).
    spectrum = np.conj(_group_dft(ball, base, length))
    spectrum.flags.writeable = False
    return spectrum


def _scored_masses(weights: np.ndarray, base: int, length: int,
                   d: DistortionMatrix, D: float, rows=None) -> np.ndarray:
    """Exact ball masses of a (..., base**length) stack around ``rows``.

    mass[..., k] is ``(pairwise_distortion(d, c, words) <= D) @ weights``
    for centre c = rows[k] (every centre when None), in blocks of at most
    SCORE_CHUNK_CELLS cells; a stacked posterior scores as it would alone,
    bit for bit.  Past MAX_SCORE_CELLS cells it refuses before scoring.
    """
    words = _word_table(base, length)
    n_words = len(words)
    if rows is None:
        rows = np.arange(n_words)
        why = ("the distortion is not translation-invariant, so every "
               "centre is scored")
    else:
        why = (f"the posterior is near flat, as a uniform prior is, so "
               f"{len(rows)} centres lie within {BALL_MASS_TOL:g} of the "
               "best ball mass")
    if len(rows) * n_words > MAX_SCORE_CELLS:
        raise ValueError(
            f"ball masses over {n_words} source words: {why}; "
            f"{len(rows)} x {n_words} cells exceed the scoring guard of "
            f"{MAX_SCORE_CELLS}")
    masses = np.empty(weights.shape[:-1] + (len(rows),))
    step = max(1, SCORE_CHUNK_CELLS // n_words)
    for lo in range(0, len(rows), step):
        inside = pairwise_distortion(d, words[rows[lo:lo + step]], words) <= D
        masses[..., lo:lo + step] = (inside @ weights[..., None])[..., 0]
    return masses


def _ball_masses(weights: np.ndarray, base: int, length: int,
                 d: DistortionMatrix, D: float) -> np.ndarray:
    """Every distortion-D ball mass of each posterior of a stack.

    ``weights`` is a (..., base**length) stack of posteriors; mass[..., c]
    is the posterior mass of the ball around centre c.  For a
    translation-invariant distortion every ball mass is one
    cross-correlation over Z_q^N of the posterior with the ball-at-zero
    indicator, so one forward and one inverse _group_dft of the whole
    stack give them all to rounding.  Any other distortion scores every
    centre exactly with _scored_masses.
    """
    spectrum = _ball_spectrum(base, length,
                              tuple(map(tuple, d.matrix.tolist())), float(D))
    if spectrum is None:
        return _scored_masses(weights, base, length, d, D)
    f_post = _group_dft(weights, base, length) * spectrum
    return _group_dft(f_post, base, length, inverse=True).real


def _best_ball(post: Posterior, d: DistortionMatrix, D: float) -> tuple:
    """Largest distortion-D ball mass and its center; lexicographic ties.

    The answer is the lowest-index centre of largest exact score (see
    _scored_masses).  _ball_masses gives every ball mass; centres more
    than BALL_MASS_TOL below the largest cannot win, and the rest are
    scored exactly.  For a translation-invariant distortion the masses
    come from two group DFTs, each ceil(N / k) matmul passes of q^(N+k)
    multiply-adds (q^k <= 64), and a call costs that plus |V|^N
    distortion cells per kept centre; for any other distortion the
    masses cost |V|^{2N} cells first.  A near-flat posterior, such as a
    uniform prior, keeps most centres and so still costs |V|^{2N} cells;
    past MAX_SCORE_CELLS either pass is refused.  This refusal concerns
    the argmax word (min_tail_mass, distortion_map_decode);
    stopping_threshold_time decides such posteriors from the masses
    alone.

    What does not depend on the posterior is cached, up to CACHE_ENTRIES
    entries each: the read-only word table per (q, N), and per (q, N,
    distortion entries, D) the conjugated spectrum of the ball-at-zero
    indicator, or None for a distortion that is not
    translation-invariant.
    """
    masses = _ball_masses(post.weights, post.base, post.length, d, D)
    rows = np.flatnonzero(masses >= masses.max() - BALL_MASS_TOL)
    exact = _scored_masses(post.weights, post.base, post.length, d, D, rows)
    k = int(np.argmax(exact))
    word = np.unravel_index(int(rows[k]), (post.base,) * post.length)
    return float(exact[k]), tuple(int(v) for v in word)


def min_tail_mass(post: Posterior, d: DistortionMatrix,
                  D: float) -> tuple[float, tuple]:
    """Smallest achievable conditional excess mass and its candidate word.

    Exact minimum over all candidates of the posterior mass outside the
    distortion-D ball; lexicographic tie-break.  _best_ball finds every
    ball mass, by a group DFT over Z_q^N for Hamming, Lee and any other
    translation-invariant distortion and by exact scoring for any other,
    and rescores exactly only the centres that can win.  A near-flat
    posterior keeps most centres and is refused past MAX_SCORE_CELLS, as
    is every centre of a distortion that is not translation-invariant
    (see _best_ball).  To test many posteriors against a threshold,
    stopping_threshold_time is cheaper.
    """
    mass, word = _best_ball(post, d, D)
    return max(1.0 - mass, 0.0), word


def distortion_map_decode(post: Posterior, d: DistortionMatrix,
                          D: float) -> tuple:
    """Word whose distortion-D ball carries the largest posterior mass.

    Ties break to the lexicographically smallest word.  At D=0 with a
    zero-diagonal distortion this is plain MAP decoding.  Every ball mass
    is found first and the centres that can win are scored exactly; see
    _best_ball.
    """
    return _best_ball(post, d, D)[1]


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of exhaustive decoder-optimality certification."""

    max_violation: float
    worst_output: tuple | None
    excess_probability: float
    outputs_checked: int
    zero_probability_outputs: int


def certify_map_optimality(P_V: Pmf, enc: EncoderMap, W: ChannelMatrix,
                           d: DistortionMatrix, D: float, n: int,
                           decoder=None) -> CertificationReport:
    """Check the decoder against every alternative decision, all outputs.

    For each output word y^n the conditional excess probability of the
    decoder's decision is compared with the best over all candidate
    decisions, recomputed here by direct enumeration (independent of the
    decoder's own ball-mass machinery).  Also accumulates the overall
    excess probability of the decoded word under the true output law.
    The joints are built level by level over output prefixes, one
    encoder call per prefix shorter than n, and all |Y|^n are held at once
    (at most MAX_CERTIFY_CELLS floats).
    """
    base = len(P_V)
    length = enc.word_length
    n_words = base ** length
    if n_words * (W.num_outputs ** n) > MAX_CERTIFY_CELLS:
        raise ValueError("instance exceeds the certification size guard")
    if decoder is None:
        decoder = distortion_map_decode

    words = _word_table(base, length)
    prefixes, joints = [()], Posterior.from_prior(P_V, length).weights[None]
    for step in range(n):
        x = np.array([enc.inputs_for_words(step, words, h) for h in prefixes])
        joints = joints[:, None, :] * W.matrix[x].transpose(0, 2, 1)
        joints = joints.reshape(-1, n_words)
        prefixes = [h + (y,) for h in prefixes for y in range(W.num_outputs)]
    # outside[c, v] = 1 where d(c, v) > D: the word-distortion rule itself,
    # not the decoder's kernels, one centre at a time to bound memory.
    outside = np.array([distortion(d, c, words) > D for c in words], float)

    max_violation = 0.0
    worst = None
    excess_total = 0.0
    skipped = 0
    for yn, joint in zip(prefixes, joints):
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
            max_violation = violation
            worst = yn
        excess_total += evidence * dec_tail
    return CertificationReport(max_violation=max_violation, worst_output=worst,
                               excess_probability=excess_total,
                               outputs_checked=W.num_outputs ** n,
                               zero_probability_outputs=skipped)


def stopping_threshold_time(trajectory, d: DistortionMatrix, D: float,
                            threshold: float):
    """First index n with min_tail_mass(trajectory[n]) <= threshold, else None.

    The posteriors must share one (base, length), else ValueError.  They
    are decided in stacks of 1, 2, 4, ... posteriors, capped at
    SCORE_CHUNK_CELLS // (TRANSFORM_COPIES q^N) so a stack's working set
    stays within one scored block: _ball_masses gives every ball mass of
    a stack, and a stop at index n has taken fewer than 2n + 2 of them.
    A posterior whose largest mass lies more than BALL_MASS_TOL below
    1 - threshold cannot stop and one more than BALL_MASS_TOL above it
    stops; only one inside that band goes through min_tail_mass.  A stack
    costs two group DFTs for a translation-invariant distortion, so
    near-flat posteriors, such as a uniform prior at binary N >= 14, are
    refused only inside the band; for any other distortion it costs
    q^{2N} distortion cells, whatever its size.
    """
    posts = list(trajectory)
    if not posts:
        return None
    base, length = posts[0].base, posts[0].length
    spaces = sorted({(post.base, post.length) for post in posts})
    if len(spaces) > 1:
        raise ValueError(
            "the stopping rule stacks the weights of a trajectory's "
            "posteriors, so they must share one (base, length); this "
            f"trajectory holds {spaces}")
    target = 1.0 - threshold
    cap = max(1, SCORE_CHUNK_CELLS // (TRANSFORM_COPIES * base ** length))
    lo, step = 0, 1
    while lo < len(posts):
        block = posts[lo:lo + step]
        bests = _ball_masses(np.stack([post.weights for post in block]),
                             base, length, d, D).max(axis=1)
        for n, (post, best) in enumerate(zip(block, bests), lo):
            if best < target - BALL_MASS_TOL:
                continue
            if (best > target + BALL_MASS_TOL
                    or min_tail_mass(post, d, D)[0] <= threshold):
                return n
        lo += len(block)
        step = min(2 * step, cap)
    return None

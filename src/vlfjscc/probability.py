"""Finite-alphabet probability primitives and distortion geometry.

Distributions, channel matrices, information measures (all in nats), the
channel parameter triple (B, lambda, C), letter sampling, word
distortion, distortion balls over word alphabets, and the score laws of
output types, a batch at a time (``score_laws``).

One rule each: a letter inverts the CDF (last entry exactly 1) at one
uniform, as ``Generator.choice(p=)`` does; a word distortion sums the
per-letter distortions in position order, then divides by N, so every
excess decision d(v, vhat) > D comes out the same wherever it is made.

Conventions used throughout: natural logarithms, 0 * log 0 = 0, and
alpha / 0 = +inf for alpha >= 0.  Every relative entropy, and every
measure built from one, goes through one row-wise kernel that clips
nothing itself.  The weights of a ``Pmf`` or ``ChannelMatrix`` handed in
from outside are clipped below ``ZERO_CLIP`` to exact zeros first, so
support decisions are deterministic; laws derived inside a solver, such
as the output law of the capacity iteration, are used unclipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Entries below this are considered exact zeros for support purposes.
ZERO_CLIP = 1e-15

# Hard ceiling for explicit word enumeration (|V| ** N).
MAX_BALL_WORDS = 2 ** 24

# Cells of a vectorized chunk's widest arrays: the trials x |Y| counts of
# a draw of control-block types, or the padded pair sums or law entries of
# a chunk of score laws, about eight arrays of them (4 MiB).  Wider
# score-law chunks raise the peak memory of many-output channels.
CHUNK_CELLS = 1 << 16


def _as_clipped(probs: np.ndarray) -> np.ndarray:
    out = probs.copy()
    out[out < ZERO_CLIP] = 0.0
    return out


def _divergences(P: np.ndarray, Q: np.ndarray | float) -> np.ndarray:
    """D(P || Q) in nats along the last axis, with rows broadcast.

    0 * log(0 / q) = 0, and p > 0 against q = 0 gives +inf.  Nothing is
    clipped here; callers clip weights that come from outside.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(P > 0, P * np.log(P / Q), 0.0)
    return terms.sum(axis=-1)


@dataclass(frozen=True, eq=False)
class Pmf:
    """Probability mass function over {0, ..., k-1}.

    Input weights are normalized once; construction fails on negative
    entries or an all-zero vector.
    """

    probs: np.ndarray

    def __init__(self, probs) -> None:
        arr = np.asarray(probs, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("pmf needs a non-empty 1-d weight vector")
        if np.any(arr < 0):
            raise ValueError("pmf weights must be nonnegative")
        total = float(arr.sum())
        if not math.isfinite(total) or total <= 0:
            raise ValueError("pmf weights must have a positive finite sum")
        arr = arr / total
        if abs(float(arr.sum()) - 1.0) > 1e-12:
            raise ValueError("pmf normalization failed")
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)
        object.__setattr__(self, "_cdf", np.cumsum(arr))  # for sampling

    def __len__(self) -> int:
        return int(self.probs.size)

    @property
    def alphabet_size(self) -> int:
        return len(self)


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """Row-stochastic transition matrix W(y|x), one row per input."""

    matrix: np.ndarray

    def __init__(self, rows) -> None:
        arr = np.asarray(rows, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("channel needs a non-empty 2-d matrix")
        rows_norm = [Pmf(r).probs for r in arr]
        arr = np.vstack(rows_norm)
        arr.flags.writeable = False
        object.__setattr__(self, "matrix", arr)
        object.__setattr__(self, "_cdf", np.cumsum(arr, axis=-1))

    @property
    def num_inputs(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def num_outputs(self) -> int:
        return int(self.matrix.shape[1])

    def row(self, x: int) -> Pmf:
        return Pmf(self.matrix[x])


@dataclass(frozen=True, eq=False)
class DistortionMatrix:
    """Single-letter distortion d(v, vhat) >= 0 with finite entries."""

    matrix: np.ndarray

    def __init__(self, entries) -> None:
        arr = np.asarray(entries, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
            raise ValueError("distortion needs a square matrix")
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise ValueError("distortion entries must be finite and nonnegative")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "matrix", arr)

    @property
    def alphabet_size(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def d_max(self) -> float:
        return float(self.matrix.max())


def hamming_distortion(alphabet_size: int) -> DistortionMatrix:
    """0/1 distortion: 0 on the diagonal, 1 off it."""
    return DistortionMatrix(1.0 - np.eye(alphabet_size))


@dataclass(frozen=True, eq=False)
class ChannelParams:
    """Derived channel quantities, all in nats.

    B: largest relative entropy between two transition rows (may be +inf).
    lam: smallest transition probability (support-clipped).
    C: channel capacity, with caid the maximizing input distribution.
    (x0, x0_prime): lexicographically first ordered input pair achieving B.
    B_reverse: relative entropy of the pair in the opposite direction.
    llr: read-only per-output LLR of the pair, for the control decoder.
    """

    B: float
    lam: float
    C: float
    caid: Pmf
    x0: int
    x0_prime: int
    B_reverse: float
    llr: np.ndarray


def entropy(p: Pmf) -> float:
    """Shannon entropy in nats: minus the divergence from the counting measure."""
    return float(-_divergences(_as_clipped(p.probs), 1.0))


def binary_entropy(x: float) -> float:
    """Entropy of a Bernoulli(x), in nats.  Raises outside [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy argument {x!r} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * math.log(x) - (1.0 - x) * math.log(1.0 - x))


def kl_divergence(p: Pmf, q: Pmf) -> float:
    """Relative entropy D(p || q) in nats; +inf on support escape."""
    if len(p) != len(q):
        raise ValueError("kl_divergence needs matching alphabets")
    return float(_divergences(_as_clipped(p.probs), _as_clipped(q.probs)))


def mutual_information(px: Pmf, W: ChannelMatrix) -> float:
    """I(X; Y) for input distribution px over channel W, in nats."""
    if len(px) != W.num_inputs:
        raise ValueError("input pmf does not match channel input alphabet")
    active = px.probs > 0
    qy = Pmf(px.probs @ W.matrix)
    div = _divergences(_as_clipped(W.matrix[active]), _as_clipped(qy.probs))
    return max(float(px.probs[active] @ div), 0.0)


def symbol_llr(W: ChannelMatrix, x0: int, x0_prime: int) -> np.ndarray:
    """Per-output LLR ln(W(y|x0)/W(y|x0prime)); equal entries give 0."""
    return np.array([0.0 if p == q else math.inf if q == 0.0
                     else -math.inf if p == 0.0 else math.log(p / q)
                     for p, q in zip(W.matrix[x0], W.matrix[x0_prime])])


def _inverse_cdf(cum: np.ndarray, rows, u: np.ndarray) -> np.ndarray:
    """Letter per uniform u: CDF entries (last set to 1) at or below u."""
    letters = np.zeros(u.shape, dtype=np.int64)
    for k in range(cum.shape[-1] - 1):  # the last entry, 1, exceeds every u
        letters += cum[..., k][rows] <= u
    return letters


def sample_pmf_batch(p: Pmf, shape, rng: np.random.Generator) -> np.ndarray:
    """Letters i.i.d. from p, as int8, one uniform of rng each."""
    return _inverse_cdf(p._cdf, ..., rng.random(shape)).astype(np.int8)


def sample_channel_batch(W: ChannelMatrix, x: np.ndarray,
                         rng: np.random.Generator) -> np.ndarray:
    """Independent channel uses for an array of inputs (any shape)."""
    return _inverse_cdf(W._cdf, x, rng.random(x.shape))


def sample_channel(W: ChannelMatrix, x: int, rng: np.random.Generator) -> int:
    """One channel use: output ~ W(.|x)."""
    return int(sample_channel_batch(W, np.array([int(x)]), rng)[0])


def channel_params(W: ChannelMatrix) -> ChannelParams:
    """Compute the (B, lambda, C) triple plus the B-achieving input pair.

    Raises if the channel has dead output columns or a degenerate output
    alphabet while B is finite (lambda must land in (0, 1/2] then).
    """
    from .numerics import capacity  # local import to avoid a cycle

    clipped = _as_clipped(W.matrix)
    lam = float(clipped.min())

    # div[x, x'] = D(W_x || W_x'); the first off-diagonal argmax in row-major
    # order is the lexicographically first pair.  One input: B = 0, (0, 0).
    div = _divergences(clipped[:, None, :], clipped[None, :, :])
    if W.num_inputs >= 2:
        np.fill_diagonal(div, -math.inf)
    pair = tuple(int(i) for i in np.unravel_index(np.argmax(div), div.shape))
    B, B_rev = float(div[pair]), float(div[pair[::-1]])

    C, caid = capacity(W)

    if math.isfinite(B) and not (0.0 < lam <= 0.5):
        raise ValueError(
            "channel has finite B but lambda outside (0, 1/2]; "
            "drop dead output columns or degenerate outputs first"
        )
    if B < C - 1e-6:
        raise ValueError("internal inconsistency: B < C beyond solver tolerance")
    llr = symbol_llr(W, *pair)
    llr.flags.writeable = False
    return ChannelParams(B=B, lam=lam, C=C, caid=caid, x0=pair[0],
                         x0_prime=pair[1], B_reverse=B_rev, llr=llr)


def distortion(d: DistortionMatrix, v, vhat):
    """Word distortion: per-letter distortions summed in position order, / N.

    One word each gives a float; word arrays (positions last) broadcast
    and give an array.  ``cumsum`` sums in order, as
    ``pairwise_distortion`` does.  Letters must lie in 0..|V|-1: they are
    not checked, as the engines call this per block on words they drew.
    """
    a, b = np.asarray(v), np.asarray(vhat)
    n = a.shape[-1] if a.ndim else 0
    if n == 0 or b.shape[-1:] != (n,):
        raise ValueError("words must be non-empty and of equal length")
    total = d.matrix[a, b].cumsum(axis=-1)[..., -1] / n
    return float(total) if total.ndim == 0 else total


def enumerate_words(base: int, length: int) -> np.ndarray:
    """All words of the given length, lexicographic, shape (base**length, length).

    The first letter is the most significant digit, so row index k encodes
    the word with digits of k in base ``base``.
    """
    count = base ** length
    if count > MAX_BALL_WORDS:
        raise ValueError(f"word space {base}**{length} exceeds enumeration guard")
    idx = np.arange(count)
    cols = []
    for pos in range(length - 1, -1, -1):
        cols.append((idx // (base ** pos)) % base)
    return np.stack(cols, axis=1).astype(np.int8)


def word_index(word, base: int):
    """Lexicographic rank of a word, or of each row of an (n, N) array."""
    letters = np.asarray(word)
    if base ** letters.shape[-1] > 2 ** 63:
        raise ValueError("word ranks beyond int64")
    out = np.zeros(letters.shape[:-1], dtype=np.int64)
    for pos in range(letters.shape[-1]):
        out = out * base + letters[..., pos]
    return int(out) if out.ndim == 0 else out


def pairwise_distortion(d: DistortionMatrix, words_a: np.ndarray,
                        words_b: np.ndarray) -> np.ndarray:
    """Matrix of per-letter distortions between two word lists.

    Entry (i, j) is ``distortion(d, a_i, b_j)``, bit for bit: the same
    sum in position order.  Per position the (|V|, len(b)) table
    d[:, b[:, pos]] is gathered once and its rows are taken at a[:, pos].
    Letters must lie in 0..|V|-1, unchecked, as for ``distortion``.  The
    word table b is read as given: a copy of a q**N table as intp would
    cost 8 bytes per letter.
    """
    a = np.asarray(words_a, dtype=np.intp)
    b = np.asarray(words_b)
    n = a.shape[1]
    out = np.zeros((a.shape[0], b.shape[0]))
    for pos in range(n):
        out += d.matrix[:, b[:, pos]][a[:, pos]]
    return out / n


def distortion_ball(d: DistortionMatrix, v, D: float) -> np.ndarray:
    """All words within average distortion D of v, in lexicographic order."""
    if D < 0:
        raise ValueError("distortion radius must be nonnegative")
    words = enumerate_words(d.alphabet_size, np.size(v))
    dist = pairwise_distortion(d, np.asarray(v)[np.newaxis], words)[0]
    return words[dist <= D]


# ----------------------------------------------------------------------
# Score laws of output types
# ----------------------------------------------------------------------

def _merge(left, right):
    """Row-wise law of the sum of two independent finite-support scores.

    Each operand is (values, probs, start, length): its row r is the slice
    start[r]:start[r] + length[r] of the flat values and probs.  Row r's
    sums are laid out in ravel order (left index major), stably sorted,
    and equal sums merged by one ``bincount``, so each merged mass adds
    its terms in ravel order, as ``np.unique`` and ``bincount`` do for one
    row.  With tie-exact terms equal sums are bit-equal; -inf absorbs.
    The result's rows are compact.
    """
    lv, lp, ls, ln = left
    rv, rp, rs, rn = right
    n = (ln * rn)[:, np.newaxis]
    k = np.arange(n.max())
    # Past its own sums a row repeats its last one with no mass: an exact
    # 0 added to that sum's bin, after its terms.
    i, j = np.divmod(np.minimum(k, n - 1), rn[:, np.newaxis])
    i += ls[:, np.newaxis]
    j += rs[:, np.newaxis]
    sums = lv[i] + rv[j]
    order = np.argsort(sums, axis=1, kind="stable")
    order += len(k) * np.arange(len(n))[:, np.newaxis]
    sums = sums.ravel()[order]
    terms = np.where(k < n, lp[i] * rp[j], 0.0).ravel()[order]
    new = np.ones(sums.shape, dtype=bool)
    new[:, 1:] = sums[:, 1:] != sums[:, :-1]
    length = new.sum(axis=1)
    return (sums[new], np.bincount(np.cumsum(new) - 1, weights=terms.ravel()),
            np.cumsum(length) - length, length)


def _powers(scores: np.ndarray, probs: np.ndarray, n: int):
    """P_b[m] for every letter b and m <= n, as one merge operand store.

    Letter b's single-position score takes scores[x, b] with probability
    probs[x], entries as given (a value may repeat); P_b[0] is 0 and
    P_b[m] = _merge(P_b[m - 1], letter b), with the raw letter, not P_b[1].
    Returns (values, probs, start, length), start and length (|Y|, n + 1),
    the operand ``score_laws`` folds.

    The merge's exact case, without a sort: a letter whose entries take at
    most two finite values u_lo <= u_hi.  With tie-exact terms P_b[m - 1]
    holds the sums (m - 1 - k) u_lo + k u_hi, k < m, so term (k', x) lands
    in bin k' + [scores[x, b] = u_hi > u_lo], and in ravel order bin k
    adds first the u_hi entries of k' = k - 1, then the u_lo entries of
    k' = k, each in entry order.  The loop adds one term per entry to
    every bin in that order: high entries first, then low ones.  Other
    letters (a third value, or -inf) take ``_merge``, one call per m for
    all of them.
    """
    n_out = scores.shape[1]
    low, high = scores.min(axis=0), scores.max(axis=0)
    is_high = (scores == high) & (high > low)
    two = np.isfinite(low) & (is_high | (scores == low)).all(axis=0)
    exact, other = np.flatnonzero(two), np.flatnonzero(~two)
    start = np.empty((n_out, n + 1), dtype=np.int64)
    length = np.empty((n_out, n + 1), dtype=np.int64)
    m = np.arange(n + 1)
    # table[m, e, k + 1] is P_b[m] at k high entries, b = exact[e]; the
    # zero column 0 lets a high entry read P_b[m - 1] at k - 1.  Each
    # letter's entries go high first, then low, each in entry order.
    order = np.argsort(~is_high[:, exact], axis=0, kind="stable")
    high_x = np.take_along_axis(is_high[:, exact], order, axis=0)[..., None]
    weight = probs[order][..., None]
    size = len(exact)
    table = np.zeros((n + 1, size, n + 2))
    table[0, :, 1] = 1.0
    for k in range(1, n + 1):
        prev = table[k - 1]
        terms = np.where(high_x, prev[:, :-1], prev[:, 1:]) * weight
        row = table[k, :, 1:]
        row[...] = terms[0]
        for term in terms[1:]:
            row += term
    values = (m * high[exact, np.newaxis]
              + (m[:, np.newaxis, np.newaxis] - m) * low[exact, np.newaxis])
    values[0] = 0.0
    start[exact] = (m * size + np.arange(size)[:, np.newaxis]) * (n + 1)
    length[exact] = np.where((high > low)[exact, np.newaxis], m + 1, 1)
    parts = [(values.ravel(), table[:, :, 1:].ravel())]
    if len(other):
        n_in = scores.shape[0]
        letter = (scores[:, other].T.ravel(), np.tile(probs, len(other)),
                  n_in * np.arange(len(other)), np.full(len(other), n_in))
        law = (np.zeros(len(other)), np.ones(len(other)),
               np.arange(len(other)), np.ones(len(other), dtype=np.int64))
        offset = values.size
        for k in range(n + 1):
            if k:
                law = _merge(law, letter)
            parts.append(law[:2])
            start[other, k] = offset + law[2]
            length[other, k] = law[3]
            offset += len(law[0])
    values, probs = (np.concatenate(part) for part in zip(*parts))
    return values, probs, start, length


def score_laws(powers: tuple, counts: np.ndarray):
    """The law of a type's score for every output type, all in one pass.

    Against output letter b, one position scores scores[x, b] with
    probability probs[x]; an output type's score sums counts[t, b]
    independent positions per letter b.  powers is ``_powers(scores,
    probs, n)`` for some n >= counts.max(), built once and folded by
    every call.  Scores must be tie-exact (every sum of up to
    max(counts.sum(axis=1)) of them an exact float64, as
    ``coding_scheme._tie_exact_log`` makes them), so equal sums are
    bit-equal; -inf (a zero channel entry) absorbs.  There are at least
    two output letters (``channel_params`` refuses a channel with one),
    so every fold ends in a ``_merge``, whose rows are compact.

    Returns flat (values, probs, start): row t's law is the slice
    start[t]:start[t + 1], values ascending.  Row t is, bit for bit, the
    per-type fold P_0[c_0] * P_1[c_1] * ... of the powers, each * a
    ``_merge``, so a type's law does not depend on the batch that builds
    it.  The folds go in chunks of rows that hold at most CHUNK_CELLS
    pair sums each merge (one row at least).
    """
    counts = np.asarray(counts, dtype=np.int64)
    values, masses, start, length = powers
    # A row's merges hold at most the product of its powers' lengths.
    bound = np.prod(length[np.arange(counts.shape[1]), counts], axis=1,
                    dtype=float)
    step = max(1, int(CHUNK_CELLS // bound.max()))
    parts = []
    for lo in range(0, len(counts), step):
        rows = counts[lo:lo + step]
        laws = (values, masses, start[0, rows[:, 0]], length[0, rows[:, 0]])
        for b in range(1, counts.shape[1]):
            laws = _merge(laws, (values, masses, start[b, rows[:, b]],
                                 length[b, rows[:, b]]))
        lv, lp, _, ln = laws
        parts.append((lv, lp, ln))
    lv, lp, ln = (np.concatenate(part) for part in zip(*parts))
    return lv, lp, np.concatenate([[0], np.cumsum(ln)])

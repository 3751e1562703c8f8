"""Finite-alphabet probability primitives and distortion geometry.

Distributions, channel matrices, information measures (all in nats), the
channel parameter triple (B, lambda, C), letter sampling, word
distortion, and distortion balls over word alphabets.

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

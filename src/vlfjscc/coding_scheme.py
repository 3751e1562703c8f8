"""Construction of the two-phase coding block.

One transmission block of N channel uses splits into a message phase of
``msg_len`` symbols and a control phase of ``ctrl_len`` symbols.  The
pieces built here: a random-covering source code of M words (at rate
R(D) + 2*eps on the canonical path, ``SchemeConfig.derive``), an i.i.d.
capacity-achieving channel codebook with ML decoding for the message
phase, a two-word repetition code with a log-likelihood-ratio
threshold test for the control phase, and the phase-split fraction gamma
that makes the message rate land strictly below capacity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import RdPoint
from .probability import (
    ChannelMatrix,
    ChannelParams,
    DistortionMatrix,
    Pmf,
    distortion,
    sample_pmf_batch,
)

# Source index guard: M may not exceed this (memory predictability).
MAX_MESSAGES = 2 ** 20

# Reproductions in the first block of the first-cover scan.  Each later
# block at most doubles, so a word first covered at index k meets fewer
# than 2k + 32 reproductions.
FIRST_COVER_BLOCK = 32
# Cells of one scan block: (scanning words + N*|V| column rows) times the
# block's reproductions, 32 MiB as float64.  A block stops doubling there.
COVER_BLOCK_CELLS = 2 ** 22


@dataclass(frozen=True, eq=False)
class SourceCodebook:
    """Random-covering source code with a failure sink at index 1.

    Indices run over {1..M}.  Words not covered by any reproduction map
    to index 1, so index 1 doubles as the covering-failure sink.  The
    codebook carries its distortion measure so encoding is self-contained.
    """

    N: int
    M: int
    reproductions: np.ndarray
    D: float
    d: DistortionMatrix

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("a source code needs at least one reproduction")
        reps = np.asarray(self.reproductions)
        if reps.shape != (self.M, self.N):
            raise ValueError("reproduction table must be M x N")
        reps = reps.copy()
        reps.flags.writeable = False
        object.__setattr__(self, "reproductions", reps)


def _message_count(N: int, R_D: float, epsilon: float) -> int:
    """M = ceil(exp(N(R(D)+2*eps))); an exponent past ln(MAX_MESSAGES + 1)
    is refused before exp, which overflows near N(R(D)+2*eps) = 710."""
    exponent = N * (R_D + 2.0 * epsilon)
    if exponent > math.log(MAX_MESSAGES + 1):
        raise ValueError(f"message count exp({exponent:.6g}) exceeds guard "
                         f"{MAX_MESSAGES}")
    return math.ceil(math.exp(exponent))


def build_source_code(P_V: Pmf, d: DistortionMatrix, point: RdPoint, M: int,
                      N: int, rng: np.random.Generator) -> SourceCodebook:
    """Draw M reproductions of N letters, every letter i.i.d.

    Letters follow the output marginal of the test channel of ``point``
    (R(D) of P_V at D = point.D), under which random covering succeeds
    at any rate above R(D).
    """
    marginal = point.output_marginal(P_V)
    reps = sample_pmf_batch(marginal, (M, N), rng)
    return SourceCodebook(N=N, M=M, reproductions=reps, D=point.D, d=d)


def _source_word(cb: SourceCodebook, v) -> np.ndarray:
    """v as a word the codebook can encode: N letters of its alphabet."""
    v = np.asarray(v)
    if v.shape != (cb.N,):
        raise ValueError("source word length does not match the codebook")
    if not ((v == np.round(v)) & (v >= 0) & (v < cb.d.alphabet_size)).all():
        raise ValueError("source word has letters outside the source alphabet")
    return v.astype(np.int64)


def source_encode(cb: SourceCodebook, v) -> int:
    """Smallest index whose reproduction is within D of v, else 1."""
    return int(source_encode_batch(cb, _source_word(cb, v)[np.newaxis])[0])


def source_decode(cb: SourceCodebook, index: int) -> tuple:
    """Reproduction word for a 1-based index."""
    if not 1 <= index <= cb.M:
        raise ValueError(f"index {index} outside 1..{cb.M}")
    return tuple(int(v) for v in cb.reproductions[index - 1])


def _lattice_exponent(length: int, top: float) -> int:
    """k = 52 - ceil(log2(length * top)).

    A sum of up to ``length`` multiples of 2**-k, each at most ``top`` in
    magnitude, is a multiple of 2**-k of magnitude at most 2**(52-k): an
    exact float64, whatever the order of the additions.
    """
    return 52 - math.ceil(math.log2(length * top))


def _lattice_exact(d: DistortionMatrix, length: int) -> bool:
    """Whether every entry of d is a multiple of 2**-k, k from
    ``_lattice_exponent(length, d_max)``, so word sums are exact."""
    if d.d_max == 0.0:
        return True
    scaled = np.ldexp(d.matrix, _lattice_exponent(length, d.d_max))
    return bool(np.array_equal(scaled, np.round(scaled)))


def _sum_limit(D: float, N: int) -> float:
    """The largest float64 s with s / N <= D, division in float64.

    Division rounds monotonically, so a word sum s has s / N <= D, the
    ``distortion`` rule, exactly when s <= this limit.
    """
    s = D * N
    while s / N > D:
        s = math.nextafter(s, -math.inf)
    while math.nextafter(s, math.inf) / N <= D:
        s = math.nextafter(s, math.inf)
    return s


def _first_covers(cb: SourceCodebook, letters: np.ndarray, v: np.ndarray,
                  scanning: np.ndarray, reps: np.ndarray, limit: float,
                  band: float) -> np.ndarray:
    """Offset of the first reproduction of a block within D of each word.

    -1 where none is.  The words are the rows ``scanning`` of ``v``, also
    given one-hot as ``letters``: letter a at position i is a 1 in
    column i*|V| + a.  The reproductions' column i*|V| + a holds
    d(a, r_i), so one matrix product gives every word sum, and a word is
    covered where its sum is at most ``limit`` (``_sum_limit``).  Sums
    within ``band`` of the limit are decided by ``distortion``.
    """
    columns = cb.d.matrix.T.take(reps, axis=0).reshape(len(reps), -1)
    sums = letters @ columns.T
    covered = sums <= limit
    if band:
        rows, cols = np.nonzero(np.abs(sums - limit) < band)
        covered[rows, cols] = distortion(
            cb.d, v[scanning[rows]], reps[cols]) <= cb.D
    first = covered.argmax(axis=1)
    return np.where(covered[np.arange(len(first)), first], first, -1)


def source_encode_batch(cb: SourceCodebook, v_batch: np.ndarray) -> np.ndarray:
    """First-cover encoding of a batch of source words.

    The reproductions are scanned in blocks of FIRST_COVER_BLOCK, then
    twice as many per block while (scanning words + N*|V|) times the
    block stays within COVER_BLOCK_CELLS.  A word leaves the scan at the
    first block holding a reproduction within D of it, and takes the
    smallest such index; only words no reproduction covers meet all M,
    and they take the sink index 1.

    Each block is decided by one matrix product (``_first_covers``), and
    the verdict is that of ``distortion(d, v, r) <= D``, bit for bit.
    When every entry of d is a multiple of 2**-k (``_lattice_exact``),
    every partial sum is exact in any order, so the product's sums are
    the position-order sums.  Otherwise the two orders differ by at most
    about N**2 * d_max * 2**-52, and sums within twice that of the limit
    are rescored.
    """
    v = np.asarray(v_batch, dtype=np.intp)
    q = cb.d.alphabet_size
    limit = _sum_limit(cb.D, cb.N)
    band = (0.0 if _lattice_exact(cb.d, cb.N)
            else cb.N ** 2 * cb.d.d_max * 2.0 ** -51)
    idx = np.ones(len(v), dtype=np.int64)
    scanning = np.arange(len(v))
    letters = np.eye(q).take(v, axis=0).reshape(len(v), cb.N * q)
    lo, size = 0, FIRST_COVER_BLOCK
    while scanning.size and lo < cb.M:
        width = COVER_BLOCK_CELLS // (scanning.size + cb.N * q)
        size = min(size, max(1, width))
        reps = cb.reproductions[lo:lo + size]
        first = _first_covers(cb, letters, v, scanning, reps, limit, band)
        hit = first >= 0
        idx[scanning[hit]] = first[hit] + lo + 1
        scanning, letters = scanning[~hit], letters[~hit]
        lo += len(reps)
        size *= 2
    return idx


@dataclass(frozen=True, eq=False)
class ChannelCodebook:
    """Random channel code: M codewords of fixed length."""

    M: int
    length: int
    codewords: np.ndarray

    def __post_init__(self):
        cw = np.asarray(self.codewords)
        if cw.shape != (self.M, self.length):
            raise ValueError("codeword table must be M x length")
        cw = cw.copy()
        cw.flags.writeable = False
        object.__setattr__(self, "codewords", cw)


def build_channel_codebook(caid: Pmf, length: int, M: int,
                           rng: np.random.Generator) -> ChannelCodebook:
    """Every symbol i.i.d. from the capacity-achieving input distribution."""
    if M < 1:
        raise ValueError("need at least one message")
    cw = sample_pmf_batch(caid, (M, length), rng)
    return ChannelCodebook(M=M, length=length, codewords=cw)


def _tie_exact_log(W: ChannelMatrix, length: int) -> np.ndarray:
    """log W with every finite entry rounded to a multiple of 2**-k.

    k = _lattice_exponent(length, max|finite log W|), so every partial
    sum of up to ``length`` entries is an exact float64: a score does not
    depend on summation order, and equal multisets of terms give
    bit-equal scores.  A noiseless channel (all finite entries 0) needs
    no rounding.
    """
    with np.errstate(divide="ignore"):
        logw = np.log(W.matrix)
    finite = np.isfinite(logw)
    top = float(np.abs(logw[finite]).max())
    if top > 0.0:
        k = _lattice_exponent(length, top)
        logw[finite] = np.ldexp(np.round(np.ldexp(logw[finite], k)), -k)
    return logw


def ml_channel_decode(cb: ChannelCodebook, y, W: ChannelMatrix) -> int:
    """Maximum-likelihood message (1-based); ties go to the smallest index.

    Scores are summed in slabs of codewords to bound memory; with
    tie-exact scores, ``argmax`` within a slab and the strict ``>``
    across slabs send every exact tie to the smallest index.
    """
    y = np.asarray(y, dtype=np.int64)
    if y.shape != (cb.length,):
        raise ValueError("output word length does not match the codebook")
    logw = _tie_exact_log(W, cb.length)
    best, decoded = -np.inf, 1
    slab = max(1, (1 << 22) // max(1, cb.length))
    for lo in range(0, cb.M, slab):
        scores = logw[cb.codewords[lo:lo + slab], y].sum(axis=1)
        k = int(scores.argmax())
        if scores[k] > best:
            best, decoded = scores[k], lo + k + 1
    return decoded


@dataclass(frozen=True, eq=False)
class ControlCode:
    """Two repetition codewords, their per-output LLR table and a threshold.

    x_c repeats the divergence-maximizing input x0, x_e its partner
    x0prime, and llr[y] = ln(W(y|x0)/W(y|x0prime)) for the channel the
    code was built for.  The decoder accepts (decides c) when the summed
    LLR reaches llr_threshold; ``control_accepts`` states the rule.
    """

    length: int
    x_c: np.ndarray
    x_e: np.ndarray
    llr_threshold: float
    llr: np.ndarray
    # Derived from llr once, for control_accepts: the output letters as a
    # (|Y|, 1, 1) column, the letters of finite LLR, and those of +inf
    # and -inf LLR.
    _letters: np.ndarray = field(init=False, repr=False)
    _finite: np.ndarray = field(init=False, repr=False)
    _pos: np.ndarray = field(init=False, repr=False)
    _neg: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("x_c", "x_e", "llr"):
            arr = np.array(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        llr = self.llr
        object.__setattr__(self, "_letters",
                           np.arange(len(llr))[:, np.newaxis, np.newaxis])
        object.__setattr__(self, "_finite", np.flatnonzero(np.isfinite(llr)))
        object.__setattr__(self, "_pos", np.flatnonzero(np.isposinf(llr)))
        object.__setattr__(self, "_neg", np.flatnonzero(np.isneginf(llr)))


def build_control_code(params: ChannelParams, m: int,
                       delta_ctrl: float) -> ControlCode:
    """Repetition control code of length m with threshold m*(B - delta_ctrl).

    The threshold sits delta_ctrl below the LLR mean under c and above
    the mean under e whenever delta_ctrl < B + B_reverse, so both
    crossover exponents stay positive.  With B infinite the supports of
    the two rows separate and the sign of the LLR sum already decides,
    so the threshold degenerates to 0.
    """
    if m < 1:
        raise ValueError("control phase needs at least one symbol")
    if params.B <= 0.0:
        raise ValueError(
            "chosen control inputs are indistinguishable (B = 0): "
            "the control phase cannot signal")
    if math.isfinite(params.B):
        if not 0.0 < delta_ctrl < params.B + params.B_reverse:
            raise ValueError(
                "delta_ctrl must lie strictly between 0 and B + B_reverse")
        threshold = m * (params.B - delta_ctrl)
    else:
        if delta_ctrl <= 0.0:
            raise ValueError("delta_ctrl must be positive")
        threshold = 0.0
    x_c = np.full(m, params.x0, dtype=np.int64)
    x_e = np.full(m, params.x0_prime, dtype=np.int64)
    return ControlCode(length=m, x_c=x_c, x_e=x_e, llr_threshold=threshold,
                       llr=params.llr)


def control_decode(ctrl: ControlCode, y) -> str:
    """Threshold test on the control block: returns 'c' or 'e'."""
    y = np.asarray(y, dtype=np.int64)
    if y.shape != (ctrl.length,):
        raise ValueError("control block length mismatch")
    return "c" if control_decode_batch(ctrl, y[np.newaxis])[0] else "e"


def control_decode_batch(ctrl: ControlCode, y_batch: np.ndarray) -> np.ndarray:
    """Vectorized threshold test; True where the decision is c.

    A block is decided on its output type: its letters are counted and
    the counts go to ``control_accepts``.
    """
    counts = (ctrl._letters == y_batch).sum(axis=-1)
    return control_accepts(ctrl, counts.T)


def control_accepts(ctrl: ControlCode, counts) -> np.ndarray:
    """The control decision from output types; True where it is c.

    ``counts`` is (n, |Y|): how often each output letter occurs in each
    of n blocks.  A block is accepted when sum_b counts_b * llr_b over
    the letters of finite LLR, added in letter order, reaches
    llr_threshold.  A letter of LLR -inf (impossible under x0) rejects
    outright; otherwise a letter of LLR +inf (impossible under x0prime)
    accepts.  A repetition block's decision depends on its output only
    through this type, so blocks may be drawn as types.
    """
    counts = np.asarray(counts)
    score = np.zeros(len(counts))
    for b in ctrl._finite:
        score += counts[:, b] * ctrl.llr[b]
    is_c = score >= ctrl.llr_threshold
    if ctrl._pos.size:
        is_c |= counts[:, ctrl._pos].any(axis=1)
    if ctrl._neg.size:
        is_c &= ~counts[:, ctrl._neg].any(axis=1)
    return is_c


def derive_gamma(R_D: float, epsilon: float, C: float) -> float:
    """Canonical phase split gamma = (R(D) + 3*eps) / C."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if C <= 0:
        raise ValueError("capacity must be positive")
    if R_D + 3.0 * epsilon >= C:
        raise ValueError(
            "R(D) + 3*epsilon >= C: the canonical phase split is unavailable")
    return (R_D + 3.0 * epsilon) / C


@dataclass(frozen=True)
class SchemeConfig:
    """One runnable block: M source messages, then ``msg_len`` message
    symbols and ``ctrl_len`` control symbols, N = msg_len + ctrl_len.

    Every instance can run: both phases hold a symbol and M lies in
    1..MAX_MESSAGES.  ``derive`` is the canonical block of the paper's
    scheme; a block built directly may take any M in that range.
    """

    gamma: float
    delta_ctrl: float
    M: int
    msg_len: int
    ctrl_len: int
    master_seed: int

    def __post_init__(self):
        if self.msg_len < 1:
            raise ValueError("the message phase needs at least one message "
                             f"symbol (msg_len = {self.msg_len})")
        if self.ctrl_len < 1:
            raise ValueError("no room left for the control phase "
                             f"(ctrl_len = {self.ctrl_len})")
        if self.M < 1:
            raise ValueError(f"message count {self.M} is below 1")
        if self.M > MAX_MESSAGES:
            raise ValueError(
                f"message count {self.M} exceeds guard {MAX_MESSAGES}")

    @property
    def N(self) -> int:
        return self.msg_len + self.ctrl_len

    @classmethod
    def derive(cls, N: int, epsilon: float, delta_ctrl: float, R_D: float,
               C: float, master_seed: int = 0) -> "SchemeConfig":
        """The canonical block of length N: gamma, the phase lengths and
        M = ceil(exp(N(R(D)+2*eps))).

        Uses the canonical split when R(D) + 3*eps < C.  Otherwise, as
        long as the message rate can still clear capacity with margin
        (R(D) + 2*eps < C), gamma falls back to the midpoint of the
        feasible interval ((R(D)+2*eps)/C, 1).
        """
        try:
            gamma = derive_gamma(R_D, epsilon, C)
        except ValueError:
            if epsilon <= 0 or C <= 0:
                raise
            if R_D + 2.0 * epsilon >= C:
                raise ValueError(
                    "R(D) + 2*epsilon >= C: the source code rate cannot "
                    "clear capacity in any phase split") from None
            gamma = 0.5 * ((R_D + 2.0 * epsilon) / C + 1.0)
        if not (R_D + 2.0 * epsilon) / gamma < C:
            raise ValueError("message-phase rate does not clear capacity")
        msg_len = int(math.floor(gamma * N + 1e-9))
        return cls(gamma=gamma, delta_ctrl=delta_ctrl,
                   M=_message_count(N, R_D, epsilon), msg_len=msg_len,
                   ctrl_len=N - msg_len, master_seed=master_seed)

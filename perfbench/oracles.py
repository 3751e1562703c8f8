"""Independent reference values for the benchmark's output checks.

Everything here is derived from first principles with ``math`` and
``numpy`` only; nothing is imported from ``vlfjscc``, so a fault in the
package cannot also hide in its own reference.  All quantities are in
nats.  The channels the workloads use are binary-input, binary-output
with full support, and the distortion is Hamming on a binary source, so
the closed forms below cover every check.
"""

from __future__ import annotations

import math

import numpy as np

Z_CHECK = 5.0  # two-sided level of every statistical check (about 6e-7)


def h(x: float) -> float:
    """Binary entropy in nats."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log(x) - (1.0 - x) * math.log(1.0 - x)


def kl(a, b) -> float:
    """Relative entropy D(a || b) of two finite distributions."""
    out = 0.0
    for pa, pb in zip(a, b):
        if pa > 0.0:
            if pb == 0.0:
                return math.inf
            out += pa * math.log(pa / pb)
    return out


def binary_channel(W) -> dict:
    """B, its input pair, lambda and capacity of a full-support 2x2 channel.

    Capacity uses the square-channel closed form C = ln sum_y exp(-(W^-1 h)_y),
    where h_x is the entropy of row x; the implied input law is checked to
    be a distribution, which holds for every binary channel with B > 0.
    """
    W = np.asarray(W, dtype=float)
    if W.shape != (2, 2) or np.any(W <= 0.0):
        raise ValueError("oracle covers full-support binary channels only")
    pairs = [(0, 1), (1, 0)]
    divs = [kl(W[x], W[xp]) for x, xp in pairs]
    k = 0 if divs[0] >= divs[1] else 1
    x0, x0p = pairs[k]
    rows_h = np.array([h(float(W[x, 1])) for x in range(2)])
    c = np.linalg.solve(W, rows_h)
    C = math.log(float(np.exp(-c).sum()))
    q = np.exp(-C - c)
    caid = np.linalg.solve(W.T, q)
    if np.any(caid < -1e-12):
        raise ValueError("closed-form capacity input law is not a distribution")
    return {"B": divs[k], "B_reverse": divs[1 - k], "x0": x0, "x0_prime": x0p,
            "lam": float(W.min()), "C": C}


def rate_distortion_hamming(q: float, D: float) -> float:
    """R(D) = h(q) - h(D) for a Bernoulli(q) source, 0 past min(q, 1-q)."""
    if D >= min(q, 1.0 - q):
        return 0.0
    return h(q) - h(D)


def marton_hamming(q: float, R: float, D: float) -> float:
    """inf KL(Q || q) over Bernoulli sources Q with R(Q, D) > R.

    Above the zero-rate edge R(Q, D) = h(Q) - h(D), so the feasible set is
    {Q : h(Q) > R + h(D)}, an interval around 1/2; the minimiser is its
    edge on q's side, found by bisection of h on [min(q, 1-q), 1/2].
    """
    if rate_distortion_hamming(q, D) > R:
        return 0.0
    target = R + h(D)
    if target >= math.log(2.0):
        return math.inf
    lo, hi = min(q, 1.0 - q), 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if h(mid) < target:
            lo = mid
        else:
            hi = mid
    edge = hi if q <= 0.5 else 1.0 - hi
    return kl((edge, 1.0 - edge), (q, 1.0 - q))


def e_star(B: float, C: float, R_D: float) -> float:
    """Reliability ceiling max{0, B (1 - R(D)/C)}."""
    return max(0.0, B * (1.0 - R_D / C))


def converse(lam: float, B: float, C: float, R_D: float, N: int,
             pd_target: float) -> tuple[float, float]:
    """(delta_N, Etau_lower) with the threshold choice lam*delta_N = 1/(-ln Pd)."""
    neg_log_pd = -math.log(pd_target)
    lam_delta = 1.0 / neg_log_pd
    delta_N = lam_delta / lam
    etau = ((1.0 - delta_N) * N * R_D / C + neg_log_pd / B
            + (math.log(min(lam_delta, 1.0 - delta_N)) - 2.0) / B)
    return delta_N, etau


def control_accept(W, x0: int, x0p: int, m: int,
                   threshold: float) -> tuple[float, float]:
    """Exact (P(c | c sent), P(c | e sent)) of the length-m repetition code.

    The LLR sum depends on the output word only through k, the number of
    outputs equal to 1, so both probabilities are binomial sums over k.
    A type whose LLR sum lies within rounding of the threshold would make
    the decision depend on summation order; it is refused.
    """
    W = np.asarray(W, dtype=float)
    llr = [math.log(W[x0, y] / W[x0p, y]) for y in range(2)]
    accept = []
    for k in range(m + 1):
        s = k * llr[1] + (m - k) * llr[0]
        if abs(s - threshold) <= 1e-9 * max(1.0, abs(threshold)):
            raise ValueError(f"LLR type k={k} sits on the threshold")
        accept.append(s >= threshold)
    out = []
    for x in (x0, x0p):
        p1 = float(W[x, 1])
        logs = [math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1)
                + k * math.log(p1) + (m - k) * math.log(1.0 - p1)
                for k in range(m + 1) if accept[k]]
        if not logs:
            out.append(0.0)
            continue
        top = max(logs)
        out.append(math.exp(top) * sum(math.exp(v - top) for v in logs))
    return out[0], out[1]


def letter_cycle_posterior(pv, W, N: int, yn) -> np.ndarray:
    """P(v | y^n) for the encoder that sends letter t mod N at step t.

    Each position is observed only through its own outputs, so the
    posterior is the Kronecker product of N independent letter posteriors
    (first letter most significant, as in lexicographic word order).
    """
    W = np.asarray(W, dtype=float)
    letters = [np.asarray(pv, dtype=float).copy() for _ in range(N)]
    for t, y in enumerate(yn):
        letters[t % N] = letters[t % N] * W[:, int(y)]
    out = np.ones(1)
    for lp in letters:
        out = np.kron(out, lp / lp.sum())
    return out


def hamming_ball_mask(N: int, D: float) -> np.ndarray:
    """mask[u, w] = popcount(u ^ w) / N <= D over all 2^N x 2^N word pairs."""
    idx = np.arange(1 << N, dtype=np.int64)
    pop = np.zeros(1 << N, dtype=np.int64)
    for bit in range(N):
        pop += (idx >> bit) & 1
    radius = max(k for k in range(N + 1) if k / N <= D) if D >= 0 else -1
    return pop[idx[:, None] ^ idx[None, :]] <= radius


def min_tail(weights: np.ndarray, mask: np.ndarray) -> tuple[float, int]:
    """Smallest posterior mass outside a ball and the first word attaining it."""
    masses = mask.astype(float) @ weights
    k = int(np.argmax(masses))
    return max(1.0 - float(masses[k]), 0.0), k


def ml_lowest_index_bsc(codewords: np.ndarray, y) -> int:
    """1-based ML message of a binary code on a BSC with crossover below 1/2.

    The likelihood falls with the mismatch count, so ML picks the fewest
    mismatches; exact ties go to the lowest index.
    """
    mismatches = (np.asarray(codewords) != np.asarray(y)).sum(axis=1)
    return int(np.flatnonzero(mismatches == mismatches.min())[0]) + 1


def word_bits(k: int, N: int) -> tuple:
    """Letters of word index k, first letter most significant."""
    return tuple((k >> (N - 1 - i)) & 1 for i in range(N))


def wilson(k: int, n: int, z: float = Z_CHECK) -> tuple[float, float]:
    """Wilson score interval for k successes in n trials."""
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def two_sample_z(mean_a: float, var_a: float, n_a: int,
                 mean_b: float, var_b: float, n_b: int) -> float:
    """|z| of a difference in means from two independent samples."""
    se = math.sqrt(var_a / n_a + var_b / n_b)
    if se == 0.0:
        return 0.0 if mean_a == mean_b else math.inf
    return abs(mean_a - mean_b) / se

"""Numerical solvers for capacity, rate-distortion, and exponents.

Capacity comes from the classic alternating (multiplicative-update) scheme
with a duality-gap certificate.  Rate-distortion uses the Lagrangian form
with bisection on the slope.  On top of those sit the covering exponent
(smallest divergence to a source whose rate-distortion value exceeds a
rate budget), the random-coding exponent, the reliability ceiling
max{0, B (1 - R(D)/C)}, and the expected-delay converse calculator.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .probability import (
    ChannelMatrix,
    DistortionMatrix,
    Pmf,
    _as_clipped,
    _divergences,
    channel_params,
)


# Iteration caps of capacity and of one Blahut solve, the certified rate
# gap of rate_distortion, and the resolution of the Marton simplex grid.
CAPACITY_MAX_ITER = 100_000
BLAHUT_MAX_ITER = 20_000
RD_TOL = 1e-9
MARTON_GRID = 200


class SolverConvergenceError(RuntimeError):
    """Raised when an iterative solver hits its iteration cap.

    Carries the best iterate so callers can inspect how close it got.
    """

    def __init__(self, message: str, best_value: float, best_point=None):
        super().__init__(message)
        self.best_value = best_value
        self.best_point = best_point


@dataclass(frozen=True, eq=False)
class RdPoint:
    """One point of a rate-distortion function, in nats.

    test_channel rows are P(vhat | v) for the returned operating point;
    lagrange_slope is the (nonpositive) slope of the curve there.
    """

    D: float
    R: float
    test_channel: np.ndarray
    lagrange_slope: float

    def output_marginal(self, source: Pmf) -> Pmf:
        return Pmf(source.probs @ self.test_channel)


@dataclass(frozen=True)
class ConverseBound:
    """Expected-delay lower bound and exponent ceiling for one target."""

    N: int
    Pd_target: float
    delta_N: float
    Etau_lower: float
    exponent_upper: float


def capacity(W: ChannelMatrix, tol: float = 1e-9) -> tuple[float, Pmf]:
    """Channel capacity in nats with a duality-gap stopping certificate.

    Returns (C, caid).  The certificate max_x D(W(.|x) || q) - I <= tol
    guarantees the returned value sits within tol of the true capacity.
    """
    P = _as_clipped(W.matrix)
    nx = W.num_inputs
    px = np.full(nx, 1.0 / nx)
    best_val, best_px = 0.0, px.copy()
    for _ in range(CAPACITY_MAX_ITER):
        # The derived output law stays unclipped: a clipped q would give
        # every row with mass on a tiny q entry div = inf, then inf - inf.
        div = _divergences(P, px @ P)
        I = float(px @ div)
        gap = float(div.max() - I)
        if I > best_val:
            best_val, best_px = I, px.copy()
        if gap <= tol:
            return max(I, 0.0), Pmf(px)
        px = px * np.exp(div - div.max())
        px = px / px.sum()
    raise SolverConvergenceError(
        f"capacity solver failed to certify gap <= {tol} in "
        f"{CAPACITY_MAX_ITER} iterations",
        best_val, Pmf(best_px))


# Floor added to a warm-start output law.  A letter started at r ~ 1e-13
# moves by less than the inner stopping tolerance and freezes there; from
# 1e-6 its first step clears the tolerance unless its update factor is
# within 1e-7 of 1.
_WARM_FLOOR = 1e-6


def _alternating_min(q: np.ndarray, kernel: np.ndarray, tol: float,
                     r0: np.ndarray | None = None):
    """Blahut-style alternating minimization of I(q, P) over P ~ r * kernel.

    Alternates P[v, :] proportional to r * kernel[v, :] with r = q @ P,
    from r0 (default uniform), until r moves by at most tol; only letters
    with q > 0 enter the loop.  A row of the returned channel with zero
    mass (possible only for a letter with q = 0 under a 0/1 kernel) is
    uniform.  Returns (test_channel, rate).
    """
    active = q > 0
    q_act, k_act = q[active], kernel[active]
    nv = kernel.shape[1]
    r = np.full(nv, 1.0 / nv) if r0 is None else r0
    for _ in range(BLAHUT_MAX_ITER):
        A = r[None, :] * k_act
        r_new = q_act @ (A / A.sum(axis=1, keepdims=True))
        if np.abs(r_new - r).max() <= tol:
            r = r_new
            break
        r = r_new
    A = r[None, :] * kernel
    scale = A.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore"):
        P = np.where(scale > 0.0, A / scale, 1.0 / nv)
    # Rows with q = 0 stay out: their divergence may be +inf, and 0 * inf = nan.
    rate = float(q_act @ _divergences(P[active], q @ P))
    return P, max(rate, 0.0)


def _rd_inner(q: np.ndarray, dmat: np.ndarray, beta: float,
              warm: np.ndarray | None = None):
    """Minimizer of I + beta * E[d]: (test_channel, distortion, rate).

    With ``warm``, a test channel from a nearby slope, the loop starts
    from its output law floored by _WARM_FLOOR instead of uniform.
    """
    r0 = None
    if warm is not None:
        r0 = q @ warm + _WARM_FLOOR
        r0 /= r0.sum()
    expo = np.exp(-beta * (dmat - dmat.min(axis=1, keepdims=True)))
    P, rate = _alternating_min(q, expo, tol=1e-13, r0=r0)
    return P, float((q[:, None] * P * dmat).sum()), rate


def rate_distortion(Q: Pmf, d: DistortionMatrix, D: float) -> RdPoint:
    """R(Q, D) in nats via Lagrangian bisection on the slope.

    The returned test channel is feasible (E[d] <= D + RD_TOL); the rate
    is bracketed between a feasible upper value and the best dual lower
    value to within RD_TOL.
    """
    if len(Q) != d.alphabet_size:
        raise ValueError("source pmf does not match distortion alphabet")
    if D < 0:
        raise ValueError("distortion budget must be nonnegative")
    q = Q.probs
    dmat = d.matrix

    zero_rate_D = float((q @ dmat).min())
    if D >= zero_rate_D:
        vhat = int(np.argmin(q @ dmat))
        P = np.zeros_like(dmat)
        P[:, vhat] = 1.0
        return RdPoint(D=D, R=0.0, test_channel=P, lagrange_slope=0.0)

    d_min = float((q * dmat.min(axis=1)).sum())
    if D < d_min - 1e-15:
        raise ValueError(f"distortion budget {D} below the minimum achievable {d_min}")

    if D <= 0.0 or D < d_min + 1e-15:
        # Minimum achievable distortion: minimize I over channels supported
        # on the per-letter distortion minimizers (for a zero-diagonal
        # measure and D = 0 this is the lossless limit).
        mask = dmat <= dmat.min(axis=1, keepdims=True) + 1e-15
        P, rate = _alternating_min(q, mask.astype(np.float64), tol=1e-14)
        return RdPoint(D=D, R=rate, test_channel=P, lagrange_slope=-math.inf)

    # Bracket the slope: distortion at beta decreases toward d_min.  Every
    # inner solve after the first is warm-started from the previous one.
    beta_lo = 0.0
    beta_hi = 1.0
    P_hi = None
    for _ in range(200):
        P_hi, dist_hi, rate_hi = _rd_inner(q, dmat, beta_hi, P_hi)
        if dist_hi <= D:
            break
        beta_lo = beta_hi
        beta_hi *= 2.0
    else:
        raise SolverConvergenceError("rate-distortion slope bracket failed", 0.0)

    best_lower = rate_hi + beta_hi * (dist_hi - D)
    upper, P_up, beta_up = rate_hi, P_hi, beta_hi
    P_m = P_hi
    for _ in range(300):
        if upper - best_lower <= RD_TOL:
            break
        beta_mid = 0.5 * (beta_lo + beta_hi)
        P_m, dist_m, rate_m = _rd_inner(q, dmat, beta_mid, P_m)
        best_lower = max(best_lower, rate_m + beta_mid * (dist_m - D))
        if dist_m <= D:
            beta_hi = beta_mid
            if rate_m < upper:
                upper, P_up, beta_up = rate_m, P_m, beta_mid
        else:
            beta_lo = beta_mid
    R = 0.5 * (upper + best_lower) if upper - best_lower <= RD_TOL else upper
    return RdPoint(D=D, R=max(R, 0.0), test_channel=P_up, lagrange_slope=-beta_up)


def rd_curve(Q: Pmf, d: DistortionMatrix, D_grid) -> list[RdPoint]:
    """Rate-distortion points over a sorted grid of budgets."""
    grid = list(D_grid)
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("distortion grid must be sorted ascending")
    return [rate_distortion(Q, d, float(D)) for D in grid]


def _simplex_grid(dim: int, resolution: int):
    """Yield pmfs with entries k/resolution summing to 1 (dim entries)."""
    for combo in itertools.combinations_with_replacement(range(dim), resolution):
        counts = np.bincount(np.fromiter(combo, dtype=np.int64, count=resolution),
                             minlength=dim)
        yield counts / resolution


def marton_exponent(P_V: Pmf, R: float, D: float,
                    d: DistortionMatrix | None = None) -> float:
    """Covering exponent: inf D(Q || P_V) over sources Q with R(Q, D) > R.

    Scan of the simplex grid of step 1/MARTON_GRID (the strict constraint
    relaxed to R(Q, D) >= R + 1e-9), then local refinement around the
    grid minimizer.  Returns +inf when the constraint set is empty.  The
    distortion measure defaults to Hamming on the source alphabet.
    """
    if R < 0:
        raise ValueError("rate must be nonnegative")
    if d is None:
        from .probability import hamming_distortion
        d = hamming_distortion(len(P_V))
    nv = len(P_V)
    slack = 1e-9

    def rd_value(qv: np.ndarray) -> float:
        try:
            return rate_distortion(Pmf(qv), d, D).R
        except ValueError:
            return -math.inf

    # Quick exits.
    if rd_value(P_V.probs) >= R + slack:
        return 0.0
    if R >= math.log(nv) - 1e-12:
        return math.inf

    if MARTON_GRID ** (nv - 1) > 2_000_000:
        raise ValueError(f"simplex grid too large for |V| = {nv}")

    def scan(points) -> tuple[float, np.ndarray | None, float, np.ndarray | None]:
        best_val, best_q = math.inf, None
        best_rate, best_rate_q = -math.inf, None
        for qv in points:
            rate = rd_value(qv)
            if rate > best_rate:
                best_rate, best_rate_q = rate, qv.copy()
            if rate >= R + slack:
                val = max(float(_divergences(qv, P_V.probs)), 0.0)
                if val < best_val:
                    best_val, best_q = val, qv.copy()
        return best_val, best_q, best_rate, best_rate_q

    coarse = _simplex_grid(nv, MARTON_GRID)
    best_val, best_q, best_rate, best_rate_q = scan(coarse)

    center = best_q if best_q is not None else best_rate_q
    if center is None:
        return math.inf

    # Local refinement: shrink a window around the incumbent.
    width = 1.0 / MARTON_GRID
    sub = 12
    for _ in range(4):
        pts = []
        free = nv - 1
        axes = [np.linspace(max(center[i] - width, 0.0),
                            min(center[i] + width, 1.0), 2 * sub + 1)
                for i in range(free)]
        for combo in itertools.product(*axes):
            last = 1.0 - sum(combo)
            if last < -1e-12:
                continue
            qv = np.array(list(combo) + [max(last, 0.0)])
            qv = qv / qv.sum()
            pts.append(qv)
        val, qq, rate, rate_q = scan(pts)
        if val < best_val:
            best_val, best_q = val, qq
        if best_q is None and rate_q is not None:
            center = rate_q
        elif best_q is not None:
            center = best_q
        width /= sub
    return best_val


def random_coding_exponent(W: ChannelMatrix, rate: float) -> float:
    """Random-coding error exponent at the capacity-achieving input.

    max over rho in [0, 1] of E0(rho) - rho * rate, clipped at zero.
    """
    if rate < 0:
        raise ValueError("rate must be nonnegative")
    _, caid = capacity(W)
    p = caid.probs
    P = W.matrix

    def e0(rho: float) -> float:
        s = 1.0 / (1.0 + rho)
        inner = (p[:, None] * np.power(P, s)).sum(axis=0)
        return -math.log(float(np.power(inner, 1.0 + rho).sum()))

    def f(rho: float) -> float:
        return e0(rho) - rho * rate

    grid = np.linspace(0.0, 1.0, 65)
    vals = [f(r) for r in grid]
    k = int(np.argmax(vals))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    # Golden-section refinement on the bracket.
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    e = a + invphi * (b - a)
    fc, fe = f(c), f(e)
    for _ in range(80):
        if fc >= fe:
            b, e, fe = e, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, e, fe
            e = a + invphi * (b - a)
            fe = f(e)
    best = max(vals[k], fc, fe)
    return max(best, 0.0)


def reliability_from_parts(B: float, C: float, R_D: float) -> float:
    """max{0, B (1 - R/C)} with the alpha/0 = inf and 0 * inf = 0 rules."""
    if C <= 0.0:
        # R/C = +inf for every R >= 0, so the bracket is -inf: ceiling 0.
        return 0.0
    ratio = R_D / C
    if math.isinf(B):
        if ratio < 1.0:
            return math.inf
        return 0.0
    return max(0.0, B * (1.0 - ratio))


def reliability_function(P_V: Pmf, W: ChannelMatrix, d: DistortionMatrix,
                         D: float) -> float:
    """Excess-distortion exponent ceiling max{0, B (1 - R(D)/C)} in nats.

    Degenerate regimes emit a warning: zero capacity with positive R(D)
    (communication impossible), and infinite B with R(D) < C (outside the
    finite-divergence hypothesis).
    """
    params = channel_params(W)
    rd = rate_distortion(P_V, d, D)
    if params.C <= 0.0 and rd.R > 0.0:
        warnings.warn("zero-capacity channel with positive R(D): "
                      "communication impossible, ceiling is 0", RuntimeWarning)
    value = reliability_from_parts(params.B, params.C, rd.R)
    if math.isinf(value):
        warnings.warn("infinite divergence B with R(D) < C: ceiling is +inf, "
                      "outside the finite-B hypothesis", RuntimeWarning)
    return value


def converse_delay_bound(P_V: Pmf, W: ChannelMatrix, d: DistortionMatrix,
                         D: float, Pd_target: float,
                         N: int) -> ConverseBound:
    """Expected-delay lower bound for hitting an excess probability target.

    Etau_lower = (1 - delta_N) N R(D) / C - ln(Pd) / B
                 + (ln min{lambda delta_N, 1 - delta_N} - 2) / B
    with the threshold choice lambda * delta_N = 1 / (-ln Pd).  Channel
    terms vanish when B = +inf.
    """
    if not 0.0 < Pd_target < 1.0:
        raise ValueError("Pd_target must lie strictly between 0 and 1")
    if N < 1:
        raise ValueError("N must be a positive integer")
    params = channel_params(W)
    rd = rate_distortion(P_V, d, D)

    neg_log_pd = -math.log(Pd_target)
    lam_delta = 1.0 / neg_log_pd
    if lam_delta < Pd_target:
        raise ValueError(
            "threshold inequality lambda*delta_N >= Pd_target violated; "
            "Pd_target too large")
    if params.lam > 0.0:
        delta_N = lam_delta / params.lam
    else:
        # Infinite-B channels: the contraction factor is absent, keep the
        # product choice as the threshold itself.
        delta_N = lam_delta
    if delta_N >= 1.0:
        raise ValueError(
            "1 - delta_N <= 0 under the choice lambda*delta_N = 1/(-ln Pd); "
            "Pd_target too large for this channel's lambda")

    if params.C <= 0.0:
        raise ValueError("zero-capacity channel: expected delay unbounded")

    source_term = (1.0 - delta_N) * N * rd.R / params.C
    if math.isinf(params.B):
        channel_terms = 0.0
    else:
        channel_terms = (neg_log_pd / params.B
                         + (math.log(min(lam_delta, 1.0 - delta_N)) - 2.0) / params.B)
    ceiling = reliability_from_parts(params.B, params.C, rd.R)
    return ConverseBound(N=N, Pd_target=Pd_target, delta_N=delta_N,
                         Etau_lower=source_term + channel_terms,
                         exponent_upper=ceiling)

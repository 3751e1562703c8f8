"""Monte Carlo estimates for one protocol configuration.

Runs 20000 sessions at N = 16 and prints the estimate report: excess
probability with its Wilson interval, expected delay, per-block
retransmission and error rates, and the empirical exponent against the
ceiling E*(D).  Also shows the renewal identities that tie the
per-block rates to the session averages, and the chi-square fit of the
block count against a single geometric law.
"""

from vlfjscc import (
    ChannelMatrix,
    Pmf,
    RngSpec,
    SystemModel,
    geometric_gof,
    hamming_distortion,
    monte_carlo,
)

print(__doc__)

model = SystemModel.build(Pmf([0.5, 0.5]),
                          ChannelMatrix([[0.9, 0.1], [0.1, 0.9]]),
                          hamming_distortion(2), 0.2)
cfg = model.derive_config(N=16, epsilon=0.08, delta_ctrl=0.3, master_seed=1)
report = monte_carlo(cfg, model, 20_000, RngSpec(1))

print(f"trials              = {report.trials}")
print(f"pd_hat              = {report.pd_hat:.5f} "
      f"[{report.pd_lo:.5f}, {report.pd_hi:.5f}] (Wilson 95%)")
print(f"E[tau] estimate     = {report.etau_hat:.3f} +- {report.etau_ci:.3f}")
print(f"P_RT per block      = {report.prt_hat:.5f}")
print(f"P_e per block       = {report.pe_hat:.5f}")
print(f"empirical exponent  = {report.exponent_hat:.5f} "
      f"+- {report.exponent_ci:.5f}")
print(f"ceiling E*(D)       = {model.e_star:.5f}")
print()

print("Renewal identities (exact in-sample by construction):")
lhs = report.etau_hat * (1 - report.prt_hat)
print(f"  E[tau] (1 - P_RT) = {lhs:.10f}  vs  N = {cfg.N}")
bound = report.pe_hat / (1 - report.prt_hat)
print(f"  pd_hat = {report.pd_hat:.10f}  vs  P_e/(1-P_RT) = {bound:.10f}")
print()

gof = geometric_gof(report.block_counts, report.prt_hat)
print("Geometric fit of the session block count:")
print(f"  chi2 = {gof.statistic:.1f}, df = {gof.df}, p = {gof.pvalue:.3g}")
print("  The fit rejects: covered words stop against the sent-c acceptance")
print("  rate while uncovered words stop against the much smaller e->c")
print("  crossover rate, so the block count is a mixture of two geometric")
print("  laws with different parameters, not a single geometric.")
counts = report.block_counts
print(f"  block count frequencies (1..6): "
      f"{[int(counts[k]) if k < len(counts) else 0 for k in range(1, 7)]}")

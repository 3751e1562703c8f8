"""A handful of single protocol sessions, block by block.

Each session source-codes a word, sends the message index across the
channel with a fresh random codebook per block, then uses the control
phase to confirm (c) or reject (e) the decoder's reproduction.  The
session ends at the first heard c; every earlier block was heard e.
"""

import numpy as np

from vlfjscc import RngSpec, SystemModel, build_codes, run_session
from vlfjscc import ChannelMatrix, Pmf, hamming_distortion

print(__doc__)

model = SystemModel.build(Pmf([0.5, 0.5]),
                          ChannelMatrix([[0.9, 0.1], [0.1, 0.9]]),
                          hamming_distortion(2), 0.2)
cfg = model.derive_config(N=16, epsilon=0.08, delta_ctrl=0.3, master_seed=7)
print(f"configuration: N = {cfg.N}, gamma = {cfg.gamma:.6f}, "
      f"msg/ctrl = {cfg.msg_len}/{cfg.ctrl_len}, M = {cfg.M}")
print()

streams = RngSpec(7)
codes = build_codes(model, cfg, streams.generator("source-code"))
rng = streams.generator("sessions")

print(f"{'session':>8} {'tau':>5} {'blocks':>7} {'distortion':>11} "
      f"{'excess':>7}  control history")
for i in range(12):
    rec = run_session(cfg, codes, model.W, model.P_V, rng)
    blocks = rec.retransmissions + 1
    hist = "e" * rec.retransmissions + "c"
    print(f"{i:>8} {rec.tau:>5} {blocks:>7} {rec.realized_distortion:>11.4f} "
          f"{str(rec.excess):>7}  {hist}")

print()
print("Reading the histories: a session that keeps hearing e is either an")
print("uncovered source word (the encoder keeps vetoing) or channel noise")
print("overturning a good block; the first heard c always ends the session,")
print("so tau is the block count times N.")

"""Posterior tracking and distortion-ball MAP decoding, end to end.

The converse side watches the decoder's posterior over source words
evolve with each channel output, decodes by maximizing the posterior
mass of a distortion ball, and certifies that no other decoder can do
better on any output sequence.  Stopping happens when the best ball
captures all but a threshold of the posterior.
"""

import numpy as np

from vlfjscc import (
    ChannelMatrix,
    EncoderMap,
    Pmf,
    certify_map_optimality,
    distortion_map_decode,
    hamming_distortion,
    min_tail_mass,
    posterior_trajectory,
    stopping_threshold_time,
)

print(__doc__)

W = ChannelMatrix([[0.9, 0.1], [0.1, 0.9]])
P_V = Pmf([0.7, 0.3])
d = hamming_distortion(2)
enc = EncoderMap.letter_cycle(2, 2)  # repeat the word's letters in turn

outputs = [0, 0, 1, 0, 0, 0]
traj = posterior_trajectory(P_V, enc, outputs, W)

print("posterior over {00, 01, 10, 11} after each output", outputs, ":")
for t, post in enumerate(traj):
    ws = " ".join(f"{w:.4f}" for w in post.weights)
    tail0, word0 = min_tail_mass(post, d, 0.0)
    print(f"  t = {t}: [{ws}]   best exact word {word0}, "
          f"tail mass {tail0:.4f}")

print()
final = traj[-1]
for D in (0.0, 0.5):
    vhat = distortion_map_decode(final, d, D)
    tail, _ = min_tail_mass(final, d, D)
    print(f"decode at budget D = {D}: vhat = {vhat}, "
          f"ball mass = {1 - tail:.4f}")

print()
for th in (0.5, 0.2, 0.05):
    t = stopping_threshold_time(traj, d, 0.0, th)
    when = f"t = {t}" if t is not None else "never (within this trajectory)"
    print(f"first time the tail drops below {th}: {when}")

print()
# At N = 16 the full ball-mass table would hold 2^32 cells.  A group FFT
# over Z_2^16 ranks every candidate centre at once, so only the centres
# that can win are scored exactly.
N16, D16, th16 = 16, 0.25, 0.45
rng = np.random.default_rng(8)
v16 = (rng.random(N16) < 0.3).astype(int)
y16 = [int(v16[t] ^ (rng.random() < 0.1)) for t in range(4)]
traj16 = posterior_trajectory(P_V, EncoderMap.letter_cycle(2, N16), y16, W)
t16 = stopping_threshold_time(traj16, d, D16, th16)
when = f"t = {t16}" if t16 is not None else "never (within this trajectory)"
print(f"N = {N16}, D = {D16}, outputs {y16}: the tail first drops "
      f"below {th16} at {when}")

# Under a uniform prior every centre's ball holds the same mass, so the
# argmax word (min_tail_mass) is refused past MAX_SCORE_CELLS.  The
# stopping rule needs only the largest ball mass: group transforms of
# stacked posteriors give it, and only posteriors whose largest mass lies
# within BALL_MASS_TOL of 1 - threshold are scored exactly.
flat16 = posterior_trajectory(Pmf([0.5, 0.5]), EncoderMap.letter_cycle(2, N16),
                              [int(v ^ (rng.random() < 0.1)) for v in
                               np.tile(v16, 2)], W)
for th in (0.2, 0.01):
    t = stopping_threshold_time(flat16, d, D16, th)
    when = f"t = {t}" if t is not None else "never (within this trajectory)"
    print(f"N = {N16}, uniform prior, {len(flat16) - 1} outputs: the tail "
          f"first drops below {th} at {when}")

print()
rep = certify_map_optimality(P_V, enc, W, d, 0.0, n=4)
print("certification over all output sequences of length 4:")
print(f"  outputs checked    = {rep.outputs_checked}")
print(f"  max violation      = {rep.max_violation:.3g} (0 means no decoder")
print("                       beats ball-mass MAP anywhere)")
print(f"  excess probability = {rep.excess_probability:.6f}")

print()
print("A deliberately corrupted decoder is caught immediately:")
bad = certify_map_optimality(P_V, enc, W, d, 0.0, n=3,
                             decoder=lambda post, dd, DD: (0, 0))
print(f"  max violation = {bad.max_violation:.3g} "
      f"at y^n = {bad.worst_output}")

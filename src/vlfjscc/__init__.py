"""Variable-length lossy joint source-channel coding with feedback.

Numeric quantities (capacity, rate-distortion, exponents), a two-phase
ACK/NACK retransmission protocol simulator, posterior-tracking decoders
for the converse side, and expected-delay lower bounds.
"""

from .probability import (
    ChannelMatrix,
    ChannelParams,
    DistortionMatrix,
    Pmf,
    binary_entropy,
    channel_params,
    distortion,
    distortion_ball,
    entropy,
    enumerate_words,
    hamming_distortion,
    kl_divergence,
    mutual_information,
    pairwise_distortion,
    sample_channel,
    word_index,
)
from .numerics import (
    ConverseBound,
    RdPoint,
    SolverConvergenceError,
    capacity,
    converse_delay_bound,
    marton_exponent,
    random_coding_exponent,
    rate_distortion,
    rd_curve,
    reliability_from_parts,
    reliability_function,
)
from .decoding import (
    CertificationReport,
    EncoderMap,
    Posterior,
    certify_map_optimality,
    distortion_map_decode,
    min_tail_mass,
    posterior_trajectory,
    posterior_update,
    sequential_posterior,
    stopping_threshold_time,
)
from .coding_scheme import (
    ChannelCodebook,
    ControlCode,
    SchemeConfig,
    SourceCodebook,
    build_channel_codebook,
    build_control_code,
    build_source_code,
    control_decode,
    derive_gamma,
    ml_channel_decode,
    source_decode,
    source_encode,
)
from .simulation import (
    CodeSet,
    ControlExponentResult,
    EstimateReport,
    GofResult,
    RngSpec,
    SessionCapExceeded,
    SweepResult,
    SystemModel,
    TrialRecord,
    build_codes,
    control_phase_exponent,
    empirical_exponent_sweep,
    geometric_gof,
    monte_carlo,
    rule_of_three,
    run_session,
    wilson_interval,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelMatrix", "ChannelParams", "DistortionMatrix", "Pmf",
    "binary_entropy", "channel_params", "distortion", "distortion_ball",
    "entropy", "enumerate_words", "hamming_distortion", "kl_divergence",
    "mutual_information", "pairwise_distortion", "word_index",
    "ConverseBound", "RdPoint", "SolverConvergenceError", "capacity",
    "converse_delay_bound", "marton_exponent", "random_coding_exponent",
    "rate_distortion", "rd_curve", "reliability_from_parts",
    "reliability_function",
    "CertificationReport", "EncoderMap", "Posterior",
    "certify_map_optimality", "distortion_map_decode", "min_tail_mass",
    "posterior_trajectory", "posterior_update", "sequential_posterior",
    "stopping_threshold_time",
    "ChannelCodebook", "ControlCode", "SchemeConfig", "SourceCodebook",
    "build_channel_codebook", "build_control_code", "build_source_code",
    "control_decode", "derive_gamma", "ml_channel_decode", "source_decode",
    "source_encode",
    "CodeSet", "ControlExponentResult", "EstimateReport", "GofResult",
    "RngSpec", "SessionCapExceeded", "SweepResult", "SystemModel",
    "TrialRecord", "build_codes", "control_phase_exponent",
    "empirical_exponent_sweep", "geometric_gof", "monte_carlo",
    "rule_of_three", "run_session", "sample_channel", "wilson_interval",
]

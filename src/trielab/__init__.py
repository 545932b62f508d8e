"""trielab: spectral prediction and Monte Carlo verification of trie heights
and saturation levels for Markov and random-cascade sources."""

from . import errors
from .envs import (
    EnvironmentModel,
    RegularityReport,
    SaturationCheck,
    check_saturation_conditions,
    deterministic_env,
    dirichlet_env,
    load_env,
    mixture_env,
    parse_env_text,
    regularity,
    regularity_from_support,
    sample_rows,
    serialize_env,
)
from .oracle import WordSet, brute_force_trie, sample_words
from .sim import (
    CouponOutcome,
    LevelProfile,
    TrieObservation,
    coupon_time,
    enumerate_level,
    simulate_occupancy,
    simulate_power_regime,
    simulate_saturation,
    size_biased_walk,
)
from .spectral import (
    ConstantsReport,
    PerronTriplet,
    ShapeValues,
    SpectralProfile,
    TiltedMatrix,
    asymptotic_constants,
    perron_triplet,
    predicted_height_constant,
    predicted_saturation_constant,
    rate_function,
    shape_values,
    spectral_profile,
    tilted_matrix,
)

__version__ = "0.1.0"

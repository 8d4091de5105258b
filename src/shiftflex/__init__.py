"""Entropy flexibility for suspension flows over shifts of finite type.

Builds nested sequences of subshifts of finite type whose normalized
entropy under a roof function converges to a prescribed target, verifying
every inequality of the construction along the way.
"""

from .codes import (
    Code,
    PermutationCode,
    find_low_overlap_word,
    is_uniquely_decipherable,
    max_self_overlap,
    renewal_to_sft,
    ud_witness,
)
from .construction import (
    RunSettings,
    Stage,
    StageParams,
    StageReport,
    Target,
    TowerResult,
    build_stage,
    derive_c1,
    iterate,
    next_params,
    normalized_entropy,
    plan_initial_params,
    select_disjoint_subsystems,
    validate_schedule,
    verify_stage,
)
from .errors import (
    CapacityError,
    ConfigError,
    ConvergenceError,
    InfeasibleTargetError,
    InsufficientWordLengthError,
    NoLowOverlapWordError,
    NonUniformLengthError,
    NotUniquelyDecipherableError,
    ReducibleShiftError,
    ShiftflexError,
    StageVerificationError,
    StructureDepthError,
    SubsystemSearchError,
    UnreachableStateError,
    UnsupportedAmbientError,
    WordTooShortError,
)
from .measures import (
    EmpiricalMeasure,
    MetricConfig,
    empirical_from_windows,
    empirical_measure,
    katok_separated_set,
    pigeonhole_refine,
    weak_star_distance,
)
from .spectral import (
    MarkovMeasure,
    PerronData,
    RoofFunction,
    abramov,
    bernoulli_measure,
    cylinder_prob,
    markov_entropy,
    parry_measure,
    periodic_orbit_measure,
    perron,
    random_markov_measure,
    roof_integral,
    topological_entropy,
)
from .words import (
    VertexShift,
    Word,
    WordSet,
    connecting_word,
    from_forbidden_words,
    full_shift,
    golden_mean_shift,
    higher_block,
    is_admissible,
    is_irreducible,
    label_language,
    label_word,
    language,
    word_count,
)

__version__ = "0.1.0"

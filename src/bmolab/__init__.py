"""Exact computation on finite filtered probability spaces: scaled
oscillation norms of martingales, fractional Carleson-type measure norms,
the operators that act on them, and seeded verification suites checking
the identities that tie them together."""

from .errors import SchemaError, SizeCapError
from .filtration import AtomRef, FiltrationTree, build_dyadic, build_random
from .process import (
    AdaptedProcess,
    Martingale,
    PredictableSequence,
    RandomVariable,
    conditional_expectation,
    differences,
    martingale_from_final,
    random_adapted_process,
    random_martingale,
)
from .stopping import (
    StoppingTime,
    count_stopping_times,
    enumerate_stopping_times,
    first_passage,
    indicator_process,
    stopped_before,
)
from .norms import (
    NormResult,
    bmo_alpha_norm,
    bmo_alpha_norms,
    bmo_ratio_at,
    lp_norm,
    process_bmo_alpha_norm,
    replay_bmo_witness,
    weak_lq_norm,
)
from .carleson import (
    CarlesonMeasure,
    carleson_alpha_norm,
    carleson_alpha_norms,
    carleson_inequality_check,
    carleson_inequality_grid,
    carleson_ratio_at,
    converse_extraction,
    from_martingale,
    random_measure,
)
from .operators import l2_lift, maximal, running_maximal, square_function, transform
from .verify import (
    VerificationReport,
    bench,
    campaign,
    check_carleson_inequality,
    check_characterization,
    check_lemma_stopping_form,
    check_operators,
    replay_characterization_case,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptedProcess",
    "AtomRef",
    "CarlesonMeasure",
    "FiltrationTree",
    "Martingale",
    "NormResult",
    "PredictableSequence",
    "RandomVariable",
    "SchemaError",
    "SizeCapError",
    "StoppingTime",
    "VerificationReport",
    "bench",
    "bmo_alpha_norm",
    "bmo_alpha_norms",
    "bmo_ratio_at",
    "build_dyadic",
    "build_random",
    "campaign",
    "carleson_alpha_norm",
    "carleson_alpha_norms",
    "carleson_inequality_check",
    "carleson_inequality_grid",
    "carleson_ratio_at",
    "check_carleson_inequality",
    "check_characterization",
    "check_lemma_stopping_form",
    "check_operators",
    "conditional_expectation",
    "converse_extraction",
    "count_stopping_times",
    "differences",
    "enumerate_stopping_times",
    "first_passage",
    "from_martingale",
    "indicator_process",
    "l2_lift",
    "lp_norm",
    "martingale_from_final",
    "maximal",
    "process_bmo_alpha_norm",
    "random_adapted_process",
    "random_martingale",
    "random_measure",
    "replay_bmo_witness",
    "replay_characterization_case",
    "running_maximal",
    "square_function",
    "stopped_before",
    "transform",
    "weak_lq_norm",
]

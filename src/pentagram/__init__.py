"""Magic pentagram game: strategies, self-testing certificates, scaling studies."""

from .game import (
    ClassicalStrategy,
    PentagramGame,
    best_classical_strategy,
    classical_value,
    evaluate_classical,
    parity_assignments,
)
from .linalg import (
    BELL_KINDS,
    bell_matrix,
    frobenius_norm,
    matrix_from_json,
    matrix_to_json,
)
from .optimize import (
    CalibrationError,
    PerturbationSpec,
    ScalingRow,
    bob_best_response,
    calibrate_delta,
    perturb_ideal,
    random_strategy,
    rows_to_csv,
    scaling_study,
)
from .rigidity import (
    RigidityReport,
    StateExtraction,
    build_isometry,
    certify,
    consistency_residuals,
    extract_state,
    operator_residuals,
    report_to_json,
    word_residual,
)
from .strategies import (
    InvalidStrategyError,
    ProjectiveStrategy,
    ReflectionStrategy,
    StrategyValidationError,
    ValidationReport,
    classical_embedding,
    ideal_strategy,
    losing_terms,
    projective_to_json,
    reflection_to_json,
    score,
    strategy_from_json,
    to_projective,
    to_reflection,
    validate,
)

__version__ = "0.1.0"

"""Black-box toolkit for Bell experiments.

Synthesizes behaviors (conditional probability tables) from two-qubit
states and from local deterministic models, classifies behaviors as local,
weakly nonlocal, or signalling via linear programming over the local
polytope, evaluates Wigner-form and CHSH functionals, models the detection
loophole with critical-efficiency search, and simulates seeded experimental
runs with locality and randomness audits.
"""

from .detection import (
    ThresholdResult,
    apply_fair_sampling,
    construct_loophole_model,
    critical_efficiency,
    post_select,
    threshold_to_json_dict,
)
from .errors import BellBoxError
from .model import (
    NO_CLICK,
    PROB_ATOL,
    Alphabet,
    Behavior,
    BellFunctional,
    Direction,
    Scenario,
    behavior_from_json_dict,
    behavior_to_json_dict,
    chsh_functional,
    evaluate_functional,
    nonsignalling_defect,
    relabel_outputs,
    uniform_behavior,
    validate_behavior,
    wigner_chained,
    wigner_literal,
)
from .polytope import (
    Classification,
    ClassificationKind,
    LocalModel,
    LocalStrategy,
    VertexBounds,
    classify,
    enumerate_strategies,
    functional_vertex_bounds,
    local_model_to_json_dict,
    local_visibility,
    model_behavior,
    strategy_count,
)
from .quantum import (
    PHI_PLUS,
    SINGLET,
    MeasurementPlan,
    PureTwoQubitState,
    behavior_from_state,
    parse_state_spec,
)
from .runs import (
    SPEED_OF_LIGHT,
    Geometry,
    LocalityAudit,
    RandomnessAudit,
    RunLog,
    Tally,
    estimate,
    functional_interval,
    locality_audit,
    randomness_audit,
    read_run_log,
    simulate,
    tally,
    tally_run_log,
    write_run_log,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"

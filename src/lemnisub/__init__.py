"""lemnisub: numerical verification of disk subordination implications.

The package turns a catalog of eleven differential-subordination
implications (lemniscate-of-Bernoulli and Janowski targets) into
executable objects: closed-form beta thresholds, boundary-margin
verification, admissibility minima, premise-exact test functions, and a
reporting CLI.
"""

from .catalog import (
    CATALOG,
    STATEMENTS,
    AdmissibilityQuantity,
    LemmaId,
    LemmaParams,
    ThresholdResult,
    ThresholdStatus,
    closed_form_threshold,
    conclusion_region,
    feasibility_check,
    premise_region,
)
from .config import DEFAULTS
from .generate import (
    PremiseSolution,
    SchwarzFunction,
    blaschke_factor,
    monomial,
    random_schwarz,
    scaled_polynomial,
    solve_premise,
    solve_premise_ode,
)
from .regions import Janowski, SqrtLemniscate
from .series import PowerSeries
from .verify import (
    MarginProfile,
    SubordinationResult,
    TrialReport,
    Verdict,
    VerificationReport,
    admissibility_min,
    boundary_margin_profile,
    check_superordination,
    implication_trial,
    numeric_threshold,
    subordination_check,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityQuantity", "CATALOG", "DEFAULTS", "Janowski", "LemmaId",
    "LemmaParams", "MarginProfile", "PowerSeries", "PremiseSolution",
    "SchwarzFunction", "SqrtLemniscate", "STATEMENTS",
    "SubordinationResult", "ThresholdResult", "ThresholdStatus",
    "TrialReport", "Verdict", "VerificationReport", "admissibility_min",
    "blaschke_factor", "boundary_margin_profile", "check_superordination",
    "closed_form_threshold", "conclusion_region", "feasibility_check",
    "implication_trial", "monomial", "numeric_threshold", "premise_region",
    "random_schwarz", "scaled_polynomial", "solve_premise",
    "solve_premise_ode", "subordination_check",
]

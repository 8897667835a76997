"""Central numeric defaults.

All tolerances and grid sizes used across the package live in one frozen
record so that tests, the verifier and the CLI agree on a single source.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Defaults:
    # tolerances
    coeff_tol: float = 1e-12      # coefficientwise series identities
    eval_tol: float = 1e-10       # pointwise series evaluation
    margin_tol: float = 1e-9      # boundary margin criterion slack
    residual_tol: float = 1e-9    # premise residual of generated solutions
    # relative slack for closed-form inequalities: large enough to absorb
    # the rounding of beta* itself, small enough that a 1e-6 beta
    # perturbation is resolved even on nearly-flat constraint branches
    feasibility_slack: float = 1e-12
    angle_xtol: float = 1e-8      # angular resolution of the grid refinement
    puncture_radius: float = 1e-6  # excluded neighbourhood of singular angles
    tail_tol: float = 1e-9        # tail estimate |c_N| r^N / (1-r), not a bound

    # grids
    margin_grid: int = 4096
    subordination_grid: int = 2048
    scan_points: int = 64

    # radii / orders
    radii: tuple[float, ...] = (0.9, 0.99, 0.999)
    series_order: int = 64
    max_series_order: int = 512
    # largest order of any series: compose_target's cap and --order's bound
    max_order: int = 16384

    # admissibility radius used for verdicts (strictly inside the disk);
    # reported constants are measured at radius 1 on the punctured circle
    verdict_radius: float = 1.0 - 1e-6


DEFAULTS = Defaults()

"""Programmatic experiment suites.

Library-level versions of the paper's evaluation protocols, so users can
re-run any experiment on their own data/configurations without going
through the pytest benchmark harness (whose paper benches call the
first four modules):

- :mod:`~repro.experiments.convergence` — per-epoch loss and test-AUPRC
  curves (Fig. 3);
- :mod:`~repro.experiments.robustness` — the four Fig. 4 sweeps (unseen
  non-target types, target-class count, labeled budget, contamination);
- :mod:`~repro.experiments.sensitivity` — hyperparameter sweeps and the
  α × contamination matrix (Figs. 6-7);
- :mod:`~repro.experiments.tables` — the loss ablation (Table III) and
  the tri-class report (Table IV);
- :mod:`~repro.experiments.taxonomy_sweep` — cross-family robustness
  over the anomaly-taxonomy injector grid (seen / unseen / cross-target
  scenarios per injector family).

Every fit-and-score run goes through
:func:`repro.eval.protocol.evaluate_detector`, except where a protocol
needs the fitted model itself: the per-epoch curves and the tri-class
report.
"""

from repro.experiments.convergence import ConvergenceResult, convergence_curves
from repro.experiments.report import generate_report, taxonomy_section, write_taxonomy_report
from repro.experiments.robustness import SweepResult, sweep
from repro.experiments.taxonomy_sweep import (
    TaxonomyScenario,
    TaxonomySweepResult,
    build_taxonomy_grid,
    grid_families,
    taxonomy_sweep,
)
from repro.experiments.sensitivity import (
    alpha_contamination_matrix,
    eta_sweep,
    lambda_grid,
)
from repro.experiments.tables import ablation, triclass_report

__all__ = [
    "ConvergenceResult",
    "SweepResult",
    "TaxonomyScenario",
    "TaxonomySweepResult",
    "ablation",
    "alpha_contamination_matrix",
    "build_taxonomy_grid",
    "convergence_curves",
    "eta_sweep",
    "generate_report",
    "grid_families",
    "lambda_grid",
    "sweep",
    "taxonomy_section",
    "taxonomy_sweep",
    "triclass_report",
    "write_taxonomy_report",
]

"""Shared benchmark configuration and the paper's reference numbers.

Every benchmark regenerates one table or figure of the paper and prints
our measured values next to the paper's reported ones. Absolute numbers
are not expected to match (the data substrate is a synthetic analog — see
DESIGN.md); the *shape* — who wins, rough factors, where trends bend — is
the reproduction target and is what EXPERIMENTS.md records.

Environment knobs:

- ``REPRO_BENCH_SCALE`` — dataset size multiplier for benchmarks
  (default 0.05; Table I sizes are 1.0).
- ``REPRO_BENCH_SEEDS`` — number of independent runs per configuration
  (default 3; the paper uses 5).
- ``REPRO_BENCH_MODELS`` — comma-separated detector subset for the
  robustness figures (default a representative set; "all" for every
  semi-supervised baseline).
"""

from __future__ import annotations

import os
from typing import Dict, List

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.05"))
BENCH_SEEDS = list(range(int(os.environ.get("REPRO_BENCH_SEEDS", "3"))))

_DEFAULT_FIG4_MODELS = ["DevNet", "DeepSAD", "PIA-WAL", "PReNet", "TargAD"]


def fig4_models() -> List[str]:
    raw = os.environ.get("REPRO_BENCH_MODELS", "")
    if not raw:
        return list(_DEFAULT_FIG4_MODELS)
    if raw.strip().lower() == "all":
        return ["ADOA", "FEAWAD", "PUMAD", "DevNet", "DeepSAD", "DPLAN",
                "PIA-WAL", "Dual-MGAN", "PReNet", "TargAD"]
    return [name.strip() for name in raw.split(",") if name.strip()]


# ---------------------------------------------------------------------------
# Paper reference values (Table II, AUPRC / AUROC, mean over 5 runs)
# ---------------------------------------------------------------------------
PAPER_TABLE2_AUPRC: Dict[str, Dict[str, float]] = {
    "iForest":   {"unsw_nb15": 0.301, "kddcup99": 0.333, "nsl_kdd": 0.356, "sqb": 0.035},
    "REPEN":     {"unsw_nb15": 0.276, "kddcup99": 0.545, "nsl_kdd": 0.524, "sqb": 0.013},
    "ADOA":      {"unsw_nb15": 0.226, "kddcup99": 0.236, "nsl_kdd": 0.210, "sqb": 0.018},
    "FEAWAD":    {"unsw_nb15": 0.540, "kddcup99": 0.593, "nsl_kdd": 0.741, "sqb": 0.057},
    "PUMAD":     {"unsw_nb15": 0.573, "kddcup99": 0.922, "nsl_kdd": 0.691, "sqb": 0.202},
    "DevNet":    {"unsw_nb15": 0.671, "kddcup99": 0.912, "nsl_kdd": 0.850, "sqb": 0.126},
    "DeepSAD":   {"unsw_nb15": 0.677, "kddcup99": 0.765, "nsl_kdd": 0.752, "sqb": 0.132},
    "DPLAN":     {"unsw_nb15": 0.658, "kddcup99": 0.834, "nsl_kdd": 0.832, "sqb": 0.151},
    "PIA-WAL":   {"unsw_nb15": 0.698, "kddcup99": 0.780, "nsl_kdd": 0.893, "sqb": 0.139},
    "Dual-MGAN": {"unsw_nb15": 0.646, "kddcup99": 0.866, "nsl_kdd": 0.725, "sqb": 0.096},
    "PReNet":    {"unsw_nb15": 0.712, "kddcup99": 0.920, "nsl_kdd": 0.787, "sqb": 0.125},
    "TargAD":    {"unsw_nb15": 0.804, "kddcup99": 0.949, "nsl_kdd": 0.913, "sqb": 0.261},
}

PAPER_TABLE2_AUROC: Dict[str, Dict[str, float]] = {
    "iForest":   {"unsw_nb15": 0.783, "kddcup99": 0.944, "nsl_kdd": 0.917, "sqb": 0.912},
    "REPEN":     {"unsw_nb15": 0.875, "kddcup99": 0.957, "nsl_kdd": 0.905, "sqb": 0.855},
    "ADOA":      {"unsw_nb15": 0.852, "kddcup99": 0.933, "nsl_kdd": 0.900, "sqb": 0.921},
    "FEAWAD":    {"unsw_nb15": 0.946, "kddcup99": 0.975, "nsl_kdd": 0.968, "sqb": 0.942},
    "PUMAD":     {"unsw_nb15": 0.903, "kddcup99": 0.982, "nsl_kdd": 0.954, "sqb": 0.978},
    "DevNet":    {"unsw_nb15": 0.950, "kddcup99": 0.993, "nsl_kdd": 0.985, "sqb": 0.977},
    "DeepSAD":   {"unsw_nb15": 0.974, "kddcup99": 0.993, "nsl_kdd": 0.986, "sqb": 0.985},
    "DPLAN":     {"unsw_nb15": 0.951, "kddcup99": 0.985, "nsl_kdd": 0.973, "sqb": 0.971},
    "PIA-WAL":   {"unsw_nb15": 0.946, "kddcup99": 0.977, "nsl_kdd": 0.981, "sqb": 0.963},
    "Dual-MGAN": {"unsw_nb15": 0.913, "kddcup99": 0.988, "nsl_kdd": 0.969, "sqb": 0.969},
    "PReNet":    {"unsw_nb15": 0.937, "kddcup99": 0.992, "nsl_kdd": 0.983, "sqb": 0.972},
    "TargAD":    {"unsw_nb15": 0.978, "kddcup99": 0.994, "nsl_kdd": 0.988, "sqb": 0.958},
}

# Table III (UNSW-NB15 ablations; paper reports TargAD best by 2-4% AUPRC)
PAPER_TABLE3_NOTE = (
    "Paper Table III: TargAD beats its ablations by 2-4% AUPRC and 0.5-2% "
    "AUROC on UNSW-NB15; TargAD_-O-R (plain L_CE) is the weakest variant."
)

# Table IV (tri-class identification on UNSW-NB15)
PAPER_TABLE4: Dict[str, Dict[str, Dict[str, float]]] = {
    "MSP": {
        "normal":     {"precision": 0.935, "recall": 0.972, "f1": 0.953},
        "target":     {"precision": 0.644, "recall": 0.812, "f1": 0.718},
        "non-target": {"precision": 0.414, "recall": 0.209, "f1": 0.278},
        "macro avg":  {"precision": 0.665, "recall": 0.664, "f1": 0.650},
        "weighted avg": {"precision": 0.861, "recall": 0.882, "f1": 0.867},
    },
    "ES": {
        "normal":     {"precision": 0.934, "recall": 0.982, "f1": 0.957},
        "target":     {"precision": 0.571, "recall": 0.291, "f1": 0.385},
        "non-target": {"precision": 0.375, "recall": 0.351, "f1": 0.362},
        "macro avg":  {"precision": 0.627, "recall": 0.541, "f1": 0.568},
        "weighted avg": {"precision": 0.849, "recall": 0.866, "f1": 0.854},
    },
    "ED": {
        "normal":     {"precision": 0.936, "recall": 0.970, "f1": 0.953},
        "target":     {"precision": 0.810, "recall": 0.438, "f1": 0.569},
        "non-target": {"precision": 0.449, "recall": 0.467, "f1": 0.458},
        "macro avg":  {"precision": 0.732, "recall": 0.625, "f1": 0.660},
        "weighted avg": {"precision": 0.877, "recall": 0.879, "f1": 0.874},
    },
}

"""Cross-family robustness sweep over the anomaly taxonomy.

The paper's central robustness claim is that target-prioritization
survives non-target anomalies the supervision never saw. The Table I
generators test that against *one* family mix per dataset; this harness
tests it against anomaly *mechanisms*, by sweeping TargAD and the
baselines across the :mod:`repro.data.taxonomy` injector grid:

- ``<family>/seen`` — the taxonomy family contaminates the unlabeled
  training pool alongside the dataset's own non-targets;
- ``<family>/unseen`` — the taxonomy family is attached to the
  population but held out of training: it appears only in the
  validation/test sets (the paper's Fig. 4(a) unseen-non-target setting,
  generalized to injector families);
- ``target=<a>/nontarget=<b>`` — target and non-target anomalies drawn
  from *different* taxonomy families, the fully cross-family cell.

The output answers "which anomaly families does target-prioritization
survive": one AUPRC/AUROC row per detector per scenario, averaged over
seeds, exportable as deterministic JSON (bit-for-bit stable under a
fixed seed) and rendered to markdown by
:func:`repro.experiments.report.taxonomy_section`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.data import taxonomy_family_name
from repro.data.registry import get_generator
from repro.data.taxonomy import INJECTOR_NAMES
from repro.eval.protocol import evaluate_detector
from repro.eval.registry import DETECTOR_NAMES
from repro.obs import ensure_telemetry

#: The two predefined grids: ``smoke`` for CI lanes and quick sanity
#: checks, ``full`` for the complete cross-family table.
SMOKE_FAMILIES = ("local", "calculation")
FULL_FAMILIES = tuple(INJECTOR_NAMES)
GRID_NAMES = ("smoke", "full")


@dataclass(frozen=True)
class TaxonomyScenario:
    """One cell column: a label plus ``load_dataset`` overrides."""

    label: str
    overrides: Dict
    unseen: bool = False


def grid_families(grid: str) -> Sequence[str]:
    """Resolve a named grid to its injector-family tuple."""
    if grid == "smoke":
        return SMOKE_FAMILIES
    if grid == "full":
        return FULL_FAMILIES
    raise ValueError(f"unknown grid {grid!r}; choices: {list(GRID_NAMES)}")


def build_taxonomy_grid(
    dataset: str,
    families: Sequence[str],
    include_cross_target: bool = True,
    random_state: int = 0,
) -> List[TaxonomyScenario]:
    """Build the scenario list for one dataset.

    For every injector family the grid contains a *seen* cell (the family
    joins the dataset's own non-targets in the training pool) and an
    *unseen* cell (the family is attached to the population but excluded
    from training, so it first appears in validation/test). When at least
    two families are given, one *cross-target* cell draws the target
    anomalies from the first family and the training non-targets from the
    second — no Table I family is target in that cell.
    """
    if not families:
        raise ValueError("need at least one taxonomy family")
    base_nontargets = list(get_generator(dataset, random_state).nontarget_family_names)
    scenarios: List[TaxonomyScenario] = []
    for family in families:
        tax = taxonomy_family_name(family)
        scenarios.append(TaxonomyScenario(
            label=f"{family}/seen",
            overrides={
                "taxonomy_families": [tax],
                "train_nontarget_families": base_nontargets + [tax],
            },
        ))
        scenarios.append(TaxonomyScenario(
            label=f"{family}/unseen",
            overrides={
                "taxonomy_families": [tax],
                "train_nontarget_families": list(base_nontargets),
            },
            unseen=True,
        ))
    if include_cross_target and len(families) >= 2:
        a, b = families[0], families[1]
        scenarios.append(TaxonomyScenario(
            label=f"target={a}/nontarget={b}",
            overrides={
                "target_families": [taxonomy_family_name(a)],
                "train_nontarget_families": [taxonomy_family_name(b)],
                "taxonomy_families": [taxonomy_family_name(a), taxonomy_family_name(b)],
            },
        ))
    return scenarios


@dataclass
class TaxonomySweepResult:
    """Per-(scenario, detector) AUPRC/AUROC means plus per-seed runs."""

    dataset: str
    scenarios: List[str]
    detectors: List[str]
    unseen: Dict[str, bool] = field(default_factory=dict)
    seeds: List[int] = field(default_factory=list)
    scale: Optional[float] = None
    auprc: Dict[str, Dict[str, float]] = field(default_factory=dict)
    auroc: Dict[str, Dict[str, float]] = field(default_factory=dict)
    auprc_runs: Dict[str, Dict[str, List[float]]] = field(default_factory=dict)

    def series(self, detector: str) -> List[float]:
        """AUPRC of one detector across the scenarios, in order."""
        return [self.auprc[label][detector] for label in self.scenarios]

    def winner(self, scenario: str) -> str:
        """Detector with the best mean AUPRC in one scenario."""
        row = self.auprc[scenario]
        return max(row, key=row.get)

    def survival(self, detector: str = "TargAD") -> Dict[str, bool]:
        """Per-scenario verdict: does ``detector`` keep the best AUPRC?"""
        return {label: self.winner(label) == detector for label in self.scenarios}

    def to_dict(self) -> Dict:
        """Deterministically-ordered plain-dict form (JSON-ready)."""
        return {
            "dataset": self.dataset,
            "scenarios": list(self.scenarios),
            "detectors": list(self.detectors),
            "unseen": {k: self.unseen[k] for k in self.scenarios},
            "seeds": list(self.seeds),
            "scale": self.scale,
            "auprc": {s: {d: self.auprc[s][d] for d in self.detectors}
                      for s in self.scenarios},
            "auroc": {s: {d: self.auroc[s][d] for d in self.detectors}
                      for s in self.scenarios},
            "auprc_runs": {s: {d: self.auprc_runs[s][d] for d in self.detectors}
                           for s in self.scenarios},
        }

    def to_json(self, indent: int = 2) -> str:
        """Canonical JSON: same sweep inputs -> byte-identical output."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def taxonomy_sweep(
    dataset: str,
    detectors: Sequence[str] = DETECTOR_NAMES,
    families: Sequence[str] = SMOKE_FAMILIES,
    scenarios: Optional[Sequence[TaxonomyScenario]] = None,
    seeds: Sequence[int] = (0,),
    scale: Optional[float] = None,
    include_cross_target: bool = True,
    detector_kwargs: Optional[Dict] = None,
    telemetry=None,
) -> TaxonomySweepResult:
    """Run every detector on every taxonomy scenario.

    Parameters
    ----------
    dataset:
        Dataset registry name (the base population the injectors act on).
    detectors:
        Detector registry names (default: the full Table II lineup).
    families:
        Injector families for :func:`build_taxonomy_grid`; ignored when
        ``scenarios`` is passed explicitly.
    scenarios:
        Pre-built scenario list overriding the grid builder.
    seeds:
        Independent runs per (scenario, detector); split resample +
        detector re-init per seed.
    scale:
        Split size multiplier forwarded to ``load_dataset``.
    include_cross_target:
        Include the cross-family target cell in the built grid.
    detector_kwargs:
        Extra constructor arguments applied to every detector.
    telemetry:
        Optional :class:`~repro.obs.TelemetryRegistry`; records one
        ``taxonomy.cell`` timer sample and event per (scenario, detector)
        plus ``taxonomy.cells`` / ``taxonomy.fits`` counters.
    """
    telemetry = ensure_telemetry(telemetry)
    if scenarios is None:
        scenarios = build_taxonomy_grid(
            dataset, families, include_cross_target=include_cross_target,
            random_state=min(seeds, default=0),
        )
    result = TaxonomySweepResult(
        dataset=dataset,
        scenarios=[s.label for s in scenarios],
        detectors=list(detectors),
        unseen={s.label: s.unseen for s in scenarios},
        seeds=list(seeds),
        scale=scale,
    )
    for scenario in scenarios:
        result.auprc[scenario.label] = {}
        result.auroc[scenario.label] = {}
        result.auprc_runs[scenario.label] = {}
        for name in detectors:
            with telemetry.timer("taxonomy.cell"):
                run = evaluate_detector(name, dataset, seeds=seeds, scale=scale,
                                        split_kwargs=scenario.overrides,
                                        detector_kwargs=detector_kwargs)
            telemetry.increment("taxonomy.fits", len(run.auprc_values))
            result.auprc[scenario.label][name] = run.auprc_mean
            result.auroc[scenario.label][name] = run.auroc_mean
            result.auprc_runs[scenario.label][name] = [float(v) for v in run.auprc_values]
            telemetry.increment("taxonomy.cells")
            telemetry.record_event(
                "taxonomy.cell",
                scenario=scenario.label,
                detector=name,
                auprc=result.auprc[scenario.label][name],
                unseen=scenario.unseen,
            )
    return result

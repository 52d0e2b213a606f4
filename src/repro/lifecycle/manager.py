"""Drift-triggered continual learning around a live :class:`ScoringPipeline`.

The serving stack detects covariate drift (:mod:`repro.serving.drift`)
but, on its own, a drifted deployment degrades forever. The
:class:`LifecycleManager` closes the loop:

1. **Detect** — every drift report the pipeline hands back feeds a
   debouncer (:class:`DriftPolicy.confirm_checks` consecutive drift
   reports that flag drift confirm an event; a served batch without a
   report, one that only joined the monitor's window of small batches,
   leaves the streak as it is; a cooldown after each swap or rollback
   stops the loop from thrashing while the new generation warms up).
2. **Assemble + label** — a refit sample is built from the recent served
   rows (the drifted traffic) plus a seeded reservoir of the original
   training pool (so the refit never forgets the old regime), and a
   budgeted label query is spent on the recent rows ranked by the active
   learning machinery (:func:`repro.core.active.rank_for_labeling`).
3. **Refit** — a candidate model is trained by
   :meth:`~repro.core.model.TargAD.incremental_fit`: the donor's
   selection structure and classifier weights are reused, only a few
   classifier epochs run, checkpointed per cycle.
4. **Gate + swap** — the candidate must reach
   ``min_auprc_ratio`` of the live model's AUPRC on the held-out
   validation slice; if it does, :meth:`ScoringPipeline.swap_model`
   flips it in atomically (zero dropped batches, breaker closed); if it
   does not — or any phase faults — the cycle rolls back and the old
   generation keeps serving.

Every phase is a fault point for the chaos harness
(:class:`repro.resilience.faultinject.SwapFaultInjector`), and every
cycle is recorded as a :class:`LifecycleEvent` plus ``lifecycle.*``
telemetry.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.active import Oracle, rank_for_labeling
from repro.core.model import TargAD
from repro.metrics.ranking import auprc
from repro.obs import ensure_telemetry
from repro.resilience.errors import SwapError
from repro.serving.pipeline import AlertBatch, ScoringPipeline

__all__ = ["DriftPolicy", "LifecycleEvent", "LifecycleManager", "RefitRejected"]


class RefitRejected(RuntimeError):
    """The candidate model failed the validation gate; no swap happened."""


@dataclass(frozen=True)
class DriftPolicy:
    """Knobs governing when and how the lifecycle loop refits.

    Attributes
    ----------
    confirm_checks:
        Consecutive drift reports that flag drift required to confirm a
        drift event — the debounce against one-off batch noise. A batch
        without a report (it only joined the drift monitor's window of
        small batches) neither extends nor resets the streak.
    cooldown_batches:
        Batches after a swap *or* rollback during which drift
        observations are ignored (the fresh monitor needs traffic, and a
        rejected candidate should not be retried instantly).
    label_budget:
        Oracle queries per refit cycle. Budget a cycle could not spend
        (fewer queryable recent rows than the allowance) is not lost:
        it carries over into the next cycle's budget, so a quiet cycle
        amortizes into a bigger query after more drifted traffic has
        accumulated (counter ``lifecycle.labels_carried``).
    label_strategy:
        Ranking used to spend the budget ("uncertainty" / "score" /
        "candidate", see :mod:`repro.core.active`).
    refit_epochs:
        Classifier epochs for the warm-started incremental refit.
    recent_rows:
        Bounded window of recently served (sanitized) rows kept for the
        refit sample and the label query.
    reservoir_rows:
        Seeded subsample of the original training pool mixed into every
        refit sample, so the model keeps covering the old regime.
    min_auprc_ratio:
        Validation gate: candidate AUPRC on the held-out slice must be
        at least this fraction of the live model's. Values > 1 demand
        strict improvement.
    """

    confirm_checks: int = 3
    cooldown_batches: int = 20
    label_budget: int = 20
    label_strategy: str = "uncertainty"
    refit_epochs: int = 5
    recent_rows: int = 2048
    reservoir_rows: int = 2048
    min_auprc_ratio: float = 0.9

    def __post_init__(self):
        if self.confirm_checks < 1:
            raise ValueError("confirm_checks must be >= 1")
        if self.cooldown_batches < 0:
            raise ValueError("cooldown_batches must be >= 0")
        if self.label_budget < 0:
            raise ValueError("label_budget must be >= 0")
        if self.refit_epochs < 1:
            raise ValueError("refit_epochs must be >= 1")
        if self.recent_rows < 1 or self.reservoir_rows < 0:
            raise ValueError("recent_rows must be >= 1 and reservoir_rows >= 0")
        if self.min_auprc_ratio < 0:
            raise ValueError("min_auprc_ratio must be >= 0")


@dataclass
class LifecycleEvent:
    """One entry of the lifecycle history.

    ``kind`` is ``"drift_confirmed"``, ``"swap"`` or ``"rollback"``;
    ``details`` carries kind-specific fields (phase and error for
    rollbacks, AUPRC ratio and detection→swap latency for swaps).
    """

    kind: str
    cycle: int
    generation: int
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "cycle": int(self.cycle),
            "generation": int(self.generation),
            **self.details,
        }


class LifecycleManager:
    """Continual-operation controller wrapping a live scoring pipeline.

    Call :meth:`process` instead of ``pipeline.process`` — batches flow
    through unchanged while the manager watches drift reports and, on a
    confirmed event, runs the assemble→label→refit→validate→swap cycle
    (inline by default; in a daemon thread with ``background=True``).

    Parameters
    ----------
    pipeline:
        A calibrated :class:`~repro.serving.pipeline.ScoringPipeline`
        (with its drift monitor enabled).
    X_unlabeled, X_labeled, y_labeled:
        The training pools the live model was fitted on; the reservoir
        and the growing labeled set start from these.
    X_val, y_val:
        Held-out validation slice: threshold recalibration inside the
        swap and the AUPRC validation gate both use it. ``y_val`` is
        binary (1 = target anomaly).
    oracle:
        Labeling oracle with the :data:`repro.core.active.Oracle`
        contract (0 = not a target, 1..m = target class). ``None``
        disables label queries (refits use only the existing labels).
    policy:
        The :class:`DriftPolicy`.
    config:
        Config for candidate models; defaults to the live model's.
    checkpoint_dir:
        When set, each refit cycle checkpoints under
        ``<checkpoint_dir>/cycle-<n>``.
    background:
        Run refit cycles in a daemon thread so serving never blocks on
        training. :meth:`wait` joins an in-flight cycle.
    fault_injector:
        Optional :class:`~repro.resilience.faultinject.SwapFaultInjector`
        firing at every cycle phase (chaos tests).
    seed:
        Seed for the reservoir subsample.
    telemetry:
        Optional registry for the ``lifecycle.*`` series.
    """

    def __init__(
        self,
        pipeline: ScoringPipeline,
        X_unlabeled: np.ndarray,
        X_labeled: np.ndarray,
        y_labeled: np.ndarray,
        X_val: np.ndarray,
        y_val: np.ndarray,
        oracle: Optional[Oracle] = None,
        policy: Optional[DriftPolicy] = None,
        config=None,
        checkpoint_dir=None,
        background: bool = False,
        fault_injector=None,
        seed: int = 0,
        telemetry=None,
    ):
        self.pipeline = pipeline
        self.policy = policy if policy is not None else DriftPolicy()
        self.oracle = oracle
        self.config = config if config is not None else pipeline.model.config
        self.checkpoint_dir = checkpoint_dir
        self.background = bool(background)
        self.injector = fault_injector
        self.telemetry = ensure_telemetry(telemetry)

        rng = np.random.default_rng(seed)
        X_unlabeled = np.asarray(X_unlabeled, dtype=np.float64)
        n_keep = min(self.policy.reservoir_rows, len(X_unlabeled))
        if n_keep < len(X_unlabeled):
            idx = rng.choice(len(X_unlabeled), size=n_keep, replace=False)
            self._reservoir = X_unlabeled[np.sort(idx)].copy()
        else:
            self._reservoir = X_unlabeled.copy()
        self._X_labeled = np.asarray(X_labeled, dtype=np.float64).copy()
        self._y_labeled = np.asarray(y_labeled, dtype=np.int64).copy()
        self._X_val = np.asarray(X_val, dtype=np.float64)
        self._y_val = np.asarray(y_val, dtype=np.int64).ravel()

        self._recent: Optional[np.ndarray] = None
        self._label_carry = 0
        self._streak = 0
        self._cooldown = 0
        self._cycle = 0
        self._confirmed_at: Optional[float] = None
        self.history: List[LifecycleEvent] = []
        self._refit_lock = threading.Lock()
        self._refit_thread: Optional[threading.Thread] = None

    # -- serving path -----------------------------------------------------
    def process(self, X_batch: np.ndarray) -> AlertBatch:
        """Serve one batch through the pipeline and feed the drift loop."""
        batch = self.pipeline.process(X_batch)
        self._observe(batch, X_batch)
        return batch

    def _observe(self, batch: AlertBatch, X_batch) -> None:
        scored = batch.scored
        if len(scored):
            X = np.asarray(X_batch, dtype=np.float64)
            if X.ndim == 2 and X.shape[1] == self.pipeline._n_features:
                self._remember(X, scored)
        if self._cooldown > 0:
            self._cooldown -= 1
            self._streak = 0
            return
        if batch.drift is None:
            return  # no report (e.g. the batch only joined the drift window)
        if not batch.drift.drifted:
            self._streak = 0
            return
        self._streak += 1
        if self._streak < self.policy.confirm_checks:
            return
        self._streak = 0
        if not self._refit_lock.acquire(blocking=False):
            return  # a refit cycle is already running
        self._confirmed_at = time.perf_counter()
        self.telemetry.increment("lifecycle.drift_confirmed")
        self.history.append(LifecycleEvent(
            kind="drift_confirmed",
            cycle=self._cycle + 1,
            generation=self.pipeline.generation,
            details={"max_ks": batch.drift.max_statistic},
        ))
        if self.background:
            self._refit_thread = threading.Thread(
                target=self._run_cycle_locked, name="lifecycle-refit", daemon=True
            )
            self._refit_thread.start()
        else:
            self._run_cycle_locked()

    def _remember(self, X: np.ndarray, scored: np.ndarray) -> None:
        """Keep the last ``recent_rows`` scored rows served.

        Only the rows still kept are gathered and joined, into an array
        that owns its memory, so no served batch stays pinned.
        """
        keep = self.policy.recent_rows
        latest = X[scored[-keep:]]
        needed = keep - len(latest)
        if self._recent is None or needed == 0:
            self._recent = latest
        else:
            self._recent = np.concatenate([self._recent[-needed:], latest])

    def wait(self, timeout: Optional[float] = None) -> None:
        """Join an in-flight background refit cycle (no-op when idle)."""
        thread = self._refit_thread
        if thread is not None and thread.is_alive():
            thread.join(timeout)

    # -- refit cycle ------------------------------------------------------
    def _run_cycle_locked(self) -> None:
        """Run one cycle; the caller has acquired ``_refit_lock``."""
        try:
            self._cycle += 1
            self.refit_now(_cycle_started=True)
        finally:
            self._refit_lock.release()

    def refit_now(self, _cycle_started: bool = False) -> bool:
        """Run one assemble→label→refit→validate→swap cycle immediately.

        Returns ``True`` when a swap happened, ``False`` when the cycle
        rolled back (validation gate, injected fault, or swap failure) —
        in which case the previous generation is still serving. Called
        internally on confirmed drift; callable directly for operator-
        forced refits.
        """
        if not _cycle_started:
            if not self._refit_lock.acquire(blocking=False):
                return False
            try:
                self._cycle += 1
                return self.refit_now(_cycle_started=True)
            finally:
                self._refit_lock.release()

        cycle = self._cycle
        fire = self.injector.fire if self.injector is not None else (lambda p: None)
        if self.injector is not None:
            self.injector.begin_cycle()
        self.telemetry.increment("lifecycle.refits")
        refit_start = time.perf_counter()
        phase = "assemble"
        try:
            fire("assemble")
            X_refit = self._assemble()

            phase = "label"
            fire("label")
            n_queried, n_found = self._query_labels()

            phase = "refit"
            fire("refit")
            candidate = TargAD(self.config, telemetry=(
                self.telemetry if self.telemetry.enabled else None
            ))
            ckpt_dir = None
            if self.checkpoint_dir is not None:
                from pathlib import Path

                ckpt_dir = Path(self.checkpoint_dir) / f"cycle-{cycle}"
            candidate.incremental_fit(
                X_refit, self._X_labeled, self._y_labeled,
                donor=self.pipeline.model,
                epochs=self.policy.refit_epochs,
                checkpoint_dir=ckpt_dir,
            )

            phase = "validate"
            fire("validate")
            ratio, live_auprc, cand_auprc = self._validation_gate(candidate)

            phase = "swap"
            self.pipeline.swap_model(
                candidate, self._X_val, self._y_val,
                X_reference=X_refit,
                fault_points=fire,
            )
        except Exception as exc:
            self._finish_cycle(False, phase, exc)
            return False
        seconds = time.perf_counter() - refit_start
        detection_to_swap = (
            time.perf_counter() - self._confirmed_at
            if self._confirmed_at is not None else seconds
        )
        self._confirmed_at = None
        self.telemetry.increment("lifecycle.swaps")
        self.telemetry.increment("lifecycle.labels_queried", n_queried)
        self.telemetry.increment("lifecycle.labels_found", n_found)
        self.telemetry.set_gauge("lifecycle.generation", float(self.pipeline.generation))
        self.telemetry.observe("lifecycle.refit", seconds)
        details = {
            "auprc_ratio": float(ratio),
            "live_auprc": float(live_auprc),
            "candidate_auprc": float(cand_auprc),
            "labels_queried": int(n_queried),
            "labels_found": int(n_found),
            "labels_carried": int(self._label_carry),
            "refit_seconds": float(seconds),
            "detection_to_swap_seconds": float(detection_to_swap),
        }
        self.history.append(LifecycleEvent(
            kind="swap", cycle=cycle,
            generation=self.pipeline.generation, details=details,
        ))
        self.telemetry.record_event("lifecycle.cycle", outcome="swap",
                                    cycle=cycle, **details)
        self._cooldown = self.policy.cooldown_batches
        return True

    def _finish_cycle(self, swapped: bool, phase: str, exc: Exception) -> None:
        self._confirmed_at = None
        self._cooldown = self.policy.cooldown_batches
        self.telemetry.increment("lifecycle.rollbacks")
        details = {
            "phase": phase,
            "error": type(exc).__name__,
            "detail": str(exc)[:200],
        }
        self.history.append(LifecycleEvent(
            kind="rollback", cycle=self._cycle,
            generation=self.pipeline.generation, details=details,
        ))
        self.telemetry.record_event(
            "lifecycle.cycle", outcome="rollback", cycle=self._cycle, **details
        )

    def _assemble(self) -> np.ndarray:
        """Refit pool: recent served rows + the training reservoir."""
        parts = [p for p in (self._reservoir, self._recent)
                 if p is not None and len(p)]
        if not parts:
            raise RuntimeError(
                "no rows available for a refit sample (empty reservoir and "
                "no served rows remembered yet)"
            )
        return np.vstack(parts)

    def _query_labels(self) -> tuple:
        """Spend the label budget (plus any carry) on the recent traffic.

        The effective budget is ``policy.label_budget`` plus whatever
        earlier cycles could not spend; the unspent remainder of *this*
        cycle becomes the next cycle's carry.
        """
        budget = self.policy.label_budget + self._label_carry
        if self.oracle is None or budget == 0:
            return 0, 0
        if self._recent is None or not len(self._recent):
            self._carry_budget(budget)
            return 0, 0
        ranking = rank_for_labeling(
            self.pipeline.model, self._recent, self.policy.label_strategy
        )
        top = ranking[:budget]
        self._carry_budget(budget - len(top))
        answers = np.asarray(self.oracle(self._recent[top]), dtype=np.int64)
        if answers.shape != (len(top),):
            raise ValueError("oracle must return one label per queried row")
        confirmed = answers > 0
        n_found = int(confirmed.sum())
        if n_found:
            self._X_labeled = np.concatenate(
                [self._X_labeled, self._recent[top[confirmed]]]
            )
            self._y_labeled = np.concatenate(
                [self._y_labeled, answers[confirmed] - 1]
            )
        return int(len(top)), n_found

    def _carry_budget(self, unspent: int) -> None:
        """Roll unspent label budget into the next cycle."""
        unspent = max(int(unspent), 0)
        self._label_carry = unspent
        if unspent:
            self.telemetry.increment("lifecycle.labels_carried", unspent)
        self.telemetry.set_gauge("lifecycle.label_carry", float(unspent))

    def _validation_gate(self, candidate: TargAD) -> tuple:
        """AUPRC gate on the held-out slice; raises :class:`RefitRejected`."""
        if not np.any(self._y_val == 1):
            raise RefitRejected(
                "validation slice has no positive labels; cannot gate the "
                "candidate model"
            )
        live = auprc(self._y_val, self.pipeline.model.decision_function(self._X_val))
        cand = auprc(self._y_val, candidate.decision_function(self._X_val))
        ratio = cand / live if live > 0 else float("inf")
        if ratio < self.policy.min_auprc_ratio:
            raise RefitRejected(
                f"candidate AUPRC {cand:.4f} is {ratio:.2%} of the live "
                f"model's {live:.4f}, below the {self.policy.min_auprc_ratio:.0%} "
                "gate; keeping the previous generation"
            )
        return ratio, live, cand

    # -- reporting --------------------------------------------------------
    def report(self) -> dict:
        """Recovery report: generations, cycles, outcomes, label spend."""
        swaps = [e for e in self.history if e.kind == "swap"]
        rollbacks = [e for e in self.history if e.kind == "rollback"]
        return {
            "generation": int(self.pipeline.generation),
            "cycles": int(self._cycle),
            "swaps": len(swaps),
            "rollbacks": len(rollbacks),
            "labels_queried": int(sum(
                e.details.get("labels_queried", 0) for e in swaps
            )),
            "labels_found": int(sum(
                e.details.get("labels_found", 0) for e in swaps
            )),
            "events": [e.to_dict() for e in self.history],
        }

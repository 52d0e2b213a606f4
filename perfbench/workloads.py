"""The three benchmark workloads, run through the public API with program defaults.

Each workload function takes ``(seed, seconds, tracer)`` and returns a dict
with the end-to-end ``metrics``, the ``counts`` that must repeat exactly
for a given seed, the ``failures`` of its output checks, ``attempted`` and
``failed`` operation counts, and ``info`` (numbers printed but not gated).
``tracer`` is ``None`` in timed runs; in the traced run it also gets the
request, batch or fit id of every span through ``tracer.ctx``.

Inputs come from ``seed`` only. The serving workloads deploy one fixed SQB
model (data and fit seed ``DEPLOY_SEED``) and draw their traffic from
``seed``; the training workload draws its data and model seed from ``seed``.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from statistics import median

import numpy as np

import repro.data
from repro.core import TargAD, TargADConfig
from repro.data.schema import KIND_TARGET
from repro.lifecycle import DriftPolicy, LifecycleManager, make_split_oracle, shift_regime
from repro.metrics import auprc
from repro.obs import TelemetryRegistry
from repro.serving import ScoringPipeline

import checks

SETUP_REPEATS = 5           # deployments; a UNSW data set-up is shorter, so 9 of those
TRAIN_SETUP_REPEATS = 9
DEPLOY_SEED = 0
REQUEST_SIZES = (8, 32, 128)
SCORING_PASSES = 4          # train_unsw: whole passes over the test split per round
REFITS_PER_SECOND = 0.25    # train_unsw: warm refits per second of --seconds
STREAM_RATE = 10.0          # requests/s, about a quarter of the parent's capacity
BULK_ROWS = 4096
BULK_STABLE_PER_SECOND = 4  # stable batches per second of --seconds (at least 20)
BULK_EPISODES = 3
BULK_EPISODE_BATCHES = 30
BULK_SHIFT = 4.0


def _section(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def _passes(n_pool, n_rows, rng):
    """Row indices from whole seeded permutations of a pool, cut to ``n_rows``."""
    n_passes = -(-n_rows // n_pool)
    return np.concatenate([rng.permutation(n_pool) for _ in range(n_passes)])[:n_rows]


def _request_sizes(n_requests, rng):
    """Equal shares of each request size, in seeded order."""
    return rng.permutation(np.resize(np.array(REQUEST_SIZES), n_requests))


def _quantile(values, q):
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


# -- train_unsw --------------------------------------------------------------
def train_unsw(seed, seconds, tracer):
    setups = []
    for _ in range(TRAIN_SETUP_REPEATS):
        start = time.perf_counter()
        split = repro.data.load_dataset("unsw_nb15", random_state=seed, scale=0.1)
        setups.append(time.perf_counter() - start)

    failures, failed, attempted = [], 0, 0
    if tracer is not None:
        tracer.ctx = "fit"
    model = TargAD(TargADConfig(random_state=seed))
    start = time.perf_counter()
    model.fit(split.X_unlabeled, split.X_labeled, split.y_labeled)
    fit_s = time.perf_counter() - start
    attempted += 1
    failures += checks.check_losses(model.loss_history, model.config.clf_epochs)
    failures += checks.check_candidates(
        int(model.selection_.candidate_mask.sum()), model.config.alpha, len(split.X_unlabeled)
    )

    # The fitted model scores whole seeded passes over the test split in
    # 8/32/128-row calls, one round after the fit and one after each refit:
    # spread over the run, the calls sample the host's speed as long as the
    # fit does, where one short phase would catch a single moment of it.
    n_refits = max(3, round(REFITS_PER_SECOND * seconds))
    rng = np.random.default_rng([seed, 1])
    X, y = split.X_test, split.y_test_binary
    rounds = [_passes(len(X), SCORING_PASSES * len(X), rng) for _ in range(n_refits + 1)]
    latencies, served_scores, served_y = [], [], []

    def score_round(rows):
        bounds = np.concatenate([[0], np.cumsum(_request_sizes(len(rows), rng))])
        for first, last in zip(bounds[:-1], bounds[1:]):
            if first >= len(rows):
                break
            idx = rows[first:last]
            if tracer is not None:
                tracer.ctx = f"call{len(latencies)}"
            start = time.perf_counter()
            scores, _ = model.score_batch(X[idx])
            latencies.append(time.perf_counter() - start)
            served_scores.append(scores)
            served_y.append(y[idx])

    score_round(rounds[0])

    # A fixed number of refits: every refit leaves its selection plans in
    # the plan cache, so a time-filled count would make peak RSS follow the
    # host's speed.
    refit_epochs = DriftPolicy().refit_epochs
    refits = []
    for round_rows in rounds[1:]:
        if tracer is not None:
            tracer.ctx = f"refit{len(refits)}"
        candidate = TargAD(TargADConfig(random_state=seed))
        start = time.perf_counter()
        try:
            candidate.incremental_fit(
                split.X_unlabeled, split.X_labeled, split.y_labeled,
                donor=model, epochs=refit_epochs,
            )
        except Exception as exc:  # a fit that raises is a failed operation
            failed += 1
            failures.append(f"refit raised {type(exc).__name__}: {exc}")
            break
        finally:
            attempted += 1
        refits.append(time.perf_counter() - start)
        failures += checks.check_losses(candidate.loss_history, refit_epochs)
        score_round(round_rows)

    test_auprc = float(auprc(y, model.decision_function(X)))
    served_auprc = float(auprc(np.concatenate(served_y), np.concatenate(served_scores)))
    if abs(served_auprc - test_auprc) > 1e-9:
        failures.append(
            f"AUPRC of whole-pass scoring calls {served_auprc} != test AUPRC {test_auprc}"
        )

    n_rows = int(sum(len(s) for s in served_scores))
    return {
        "metrics": {
            "setup_s": median(setups),
            "fit_s": fit_s,
            "test_auprc": test_auprc,
            "served_auprc": served_auprc,
            "latency_p50_ms": 1e3 * _quantile(latencies, 0.5),
            "latency_p90_ms": 1e3 * _quantile(latencies, 0.9),
            "rows_per_s": n_rows / sum(latencies),
        },
        "counts": {
            "elbow_k": int(model.k_),
            "candidates": int(model.selection_.candidate_mask.sum()),
            "refits_done": len(refits),
        },
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
        "info": {
            "refit_s_median": median(refits) if refits else float("nan"),
            "scoring_calls": len(latencies),
            "latency_p99_ms": 1e3 * _quantile(latencies, 0.99),
        },
        "phases": {"latencies_s": latencies, "services_s": latencies, "served_rows": n_rows},
        "network": model.network_,
        "registry_counts": {},
    }


# -- shared SQB deployment ---------------------------------------------------
def _deploy_sqb(tracer):
    """Data, fit, calibration and warm-up of the SQB deployment.

    Calibrated as ``repro telemetry`` does it: the unlabeled pool as drift
    reference, the pipeline's default drift threshold (0.2), telemetry
    attached.
    """
    start = time.perf_counter()
    split = repro.data.load_dataset("sqb", random_state=DEPLOY_SEED, scale=0.05)
    model = TargAD(TargADConfig(k=3, ae_epochs=5, clf_epochs=10, random_state=DEPLOY_SEED))
    fit_start = time.perf_counter()
    model.fit(split.X_unlabeled, split.X_labeled, split.y_labeled)
    fit_s = time.perf_counter() - fit_start
    registry = TelemetryRegistry()
    pipe = ScoringPipeline(model, telemetry=registry)
    pipe.calibrate(split.X_val, split.y_val_binary, X_reference=split.X_unlabeled)
    # Warm-up: first plan compile at each request shape, first process(),
    # first drift check. Served through the pipeline only, so no lifecycle
    # state sees it.
    with _section(tracer, "harness.warmup"):
        for size in REQUEST_SIZES:
            pipe.process(split.X_val[:size])
        pipe.process(split.X_unlabeled[:BULK_ROWS])
    return split, model, pipe, registry, time.perf_counter() - start, fit_s


def _deploy_repeated(tracer):
    setups, fits = [], []
    for i in range(SETUP_REPEATS):
        if tracer is not None:
            tracer.ctx = f"setup{i}"
        split, model, pipe, registry, setup_s, fit_s = _deploy_sqb(tracer)
        setups.append(setup_s)
        fits.append(fit_s)
    return split, model, pipe, registry, median(setups), median(fits)


class _Served:
    """Per-request bookkeeping shared by the serving workloads."""

    def __init__(self):
        self.scores, self.labels = [], []
        self.failed = self.attempted = 0
        self.quarantined = self.degraded = 0
        self.flags = {"stable": [0, 0], "shifted": [0, 0]}
        self.failures = []

    def record(self, batch, y, phase):
        self.attempted += 1
        self.scores.append(batch.scores)
        self.labels.append(y)
        self.quarantined += len(batch.quarantined)
        self.degraded += int(batch.degraded)
        if len(batch.quarantined) or batch.degraded:
            self.failed += 1
        self.failures += checks.check_alert_routing(batch.alerts, batch.routing)
        self.flags[phase][0] += int(batch.drift is not None and batch.drift.drifted)
        self.flags[phase][1] += 1

    def raised(self, exc):
        self.attempted += 1
        self.failed += 1
        self.failures.append(f"process raised {type(exc).__name__}: {exc}")

    def served_auprc(self, pool, first=0, last=None):
        """AUPRC over the rows of the whole passes over the pool served in order.

        Traffic walks seeded permutations of the pool, so whole passes
        serve every row equally often and a cut-off last pass cannot tilt
        the score towards the rows it happened to include.
        """
        scores = np.concatenate(self.scores[first:last])
        labels = np.concatenate(self.labels[first:last])
        whole = (len(scores) // pool) * pool or len(scores)
        scores, labels = scores[:whole], labels[:whole]
        keep = np.isfinite(scores)
        return float(auprc(labels[keep], scores[keep]))

    def flag_share(self, phase):
        flagged, total = self.flags[phase]
        return flagged / total if total else 0.0


def _probe(pipe, split, seed):
    """Re-score a fixed probe batch and compare with ``TargAD.score_batch``."""
    rng = np.random.default_rng([seed, 9])
    X = split.X_test[rng.choice(len(split.X_test), size=64, replace=False)]
    batch = pipe.process(X)
    scores, routing = pipe.model.score_batch(X, strategy=pipe.strategy)
    out = checks.check_parity(batch.scores, batch.routing, scores, routing)
    out += checks.check_clean_serving(len(batch.quarantined), int(batch.degraded))
    return out


def _host(pipe):
    from repro.backend.registry import active_backend

    return {
        "backend": getattr(active_backend(), "name", "?"),
        "executors": [ex.name for ex in pipe.chain],
    }


# -- stream_sqb --------------------------------------------------------------
def stream_sqb(seed, seconds, tracer):
    split, model, pipe, registry, setup_s, fit_s = _deploy_repeated(tracer)
    y_test = (split.test_kind == KIND_TARGET).astype(np.int64)

    rng = np.random.default_rng([seed, 2])
    n_requests = int(round(STREAM_RATE * seconds))
    sizes = _request_sizes(n_requests, rng)
    rows = _passes(len(split.X_test), int(sizes.sum()), rng)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    # Poisson arrivals: exponential gaps at stratified quantiles, seeded order.
    gaps = -np.log1p(-(np.arange(n_requests) + 0.5) / n_requests) / STREAM_RATE
    due = np.cumsum(rng.permutation(gaps))

    served = _Served()
    waits, services, latencies = [], [], []
    origin = time.perf_counter() + 0.05
    for i in range(n_requests):
        idx = rows[bounds[i]:bounds[i + 1]]
        X = split.X_test[idx]
        due_at = origin + due[i]
        if time.perf_counter() < due_at:
            # Busy-wait: arrivals start on time, and the core does not drop
            # into an idle state between requests.
            with _section(tracer, "harness.idle"):
                while time.perf_counter() < due_at:
                    pass
        if tracer is not None:
            tracer.ctx = f"req{i}"
        start = time.perf_counter()
        try:
            batch = pipe.process(X)
        except Exception as exc:  # a request that raises is a failed operation
            served.raised(exc)
            continue
        end = time.perf_counter()
        served.record(batch, y_test[idx], "stable")
        waits.append(start - due_at)
        services.append(end - start)
        latencies.append(end - due_at)
    if tracer is not None:
        tracer.ctx = "probe"
    failures = served.failures + _probe(pipe, split, seed)
    failures += checks.check_clean_serving(served.quarantined, served.degraded)
    alerts = int(registry.counter("serve.alerts"))
    return {
        "metrics": {
            "setup_s": setup_s,
            "fit_s": fit_s,
            "test_auprc": float(auprc(y_test, model.decision_function(split.X_test))),
            "served_auprc": served.served_auprc(len(split.X_test)),
            "latency_p50_ms": 1e3 * _quantile(latencies, 0.5),
            "latency_p90_ms": 1e3 * _quantile(latencies, 0.9),
            "rows_per_s": float(sizes.sum()) / sum(services),
        },
        "counts": {"requests": n_requests, "alerts": alerts},
        "failures": failures,
        "attempted": served.attempted,
        "failed": served.failed,
        "info": {
            "latency_p99_ms": 1e3 * _quantile(latencies, 0.99),
            "queue_wait_p50_ms": 1e3 * _quantile(waits, 0.5),
            "queue_wait_p90_ms": 1e3 * _quantile(waits, 0.9),
            "service_p50_ms": 1e3 * _quantile(services, 0.5),
            "drift_flag_share": served.flag_share("stable"),
            "generator_late_share": float(np.mean(np.asarray(waits) > 1e-3)),
            **_host(pipe),
        },
        "phases": {"latencies_s": latencies, "waits_s": waits, "services_s": services,
                   "served_rows": int(sizes.sum()), "flags": served.flags},
        "network": pipe.model.network_,
        "registry_counts": registry.counters,
    }


# -- bulk_sqb ----------------------------------------------------------------
def bulk_sqb(seed, seconds, tracer):
    split, model, pipe, registry, setup_s, fit_s = _deploy_repeated(tracer)
    y_test = (split.test_kind == KIND_TARGET).astype(np.int64)
    n_test = len(split.X_test)

    # Inputs: stable batches, then shift episodes with distinct seeds. Each
    # phase has its own stream, so the stable phase's length (set by
    # --seconds) cannot change what the episodes serve.
    regimes = [
        shift_regime(split.X_test, shift=BULK_SHIFT, seed=seed * BULK_EPISODES + e + 1)
        for e in range(BULK_EPISODES)
    ]
    oracle = make_split_oracle(
        np.vstack([split.X_test, *regimes]), np.tile(y_test, BULK_EPISODES + 1)
    )
    manager = LifecycleManager(
        pipe, split.X_unlabeled, split.X_labeled, split.y_labeled,
        split.X_val, split.y_val_binary, oracle=oracle, telemetry=registry, seed=seed,
    )
    stable_rng = np.random.default_rng([seed, 3])
    episode_rows = [
        _passes(n_test, BULK_EPISODE_BATCHES * BULK_ROWS, np.random.default_rng([seed, 4, e]))
        for e in range(BULK_EPISODES)
    ]

    served = _Served()
    plain_s, plain_rows, cycle_s = [], 0, []
    batch_id = 0

    def serve(X, idx, phase):
        nonlocal plain_rows, batch_id
        if tracer is not None:
            tracer.ctx = f"batch{batch_id}"
        batch_id += 1
        events = len(manager.history)
        start = time.perf_counter()
        try:
            batch = manager.process(X)
        except Exception as exc:  # a batch that raises is a failed operation
            served.raised(exc)
            return
        elapsed = time.perf_counter() - start
        served.record(batch, y_test[idx], phase)
        if len(manager.history) != events:
            cycle_s.append(elapsed)
        else:
            plain_s.append(elapsed)
            plain_rows += len(idx)

    n_stable = max(20, round(BULK_STABLE_PER_SECOND * seconds))
    stable_rows = _passes(n_test, n_stable * BULK_ROWS, stable_rng)
    for b in range(n_stable):
        idx = stable_rows[b * BULK_ROWS:(b + 1) * BULK_ROWS]
        serve(split.X_test[idx], idx, "stable")
    for regime, rows in zip(regimes, episode_rows):
        for b in range(BULK_EPISODE_BATCHES):
            idx = rows[b * BULK_ROWS:(b + 1) * BULK_ROWS]
            serve(regime[idx], idx, "shifted")

    if tracer is not None:
        tracer.ctx = "probe"
    report = manager.report()
    confirmed = sum(1 for e in manager.history if e.kind == "drift_confirmed")
    failures = served.failures + _probe(pipe, split, seed)
    failures += checks.check_clean_serving(served.quarantined, served.degraded)
    failures += checks.check_cycles(report["cycles"], report["swaps"], report["rollbacks"],
                                    confirmed)
    # A cycle the validation gate rejects is counted in the rollbacks; a cycle
    # that rolled back on an error is a failed operation.
    faulted = sum(1 for e in manager.history
                  if e.kind == "rollback" and e.details.get("error") != "RefitRejected")
    return {
        "metrics": {
            "setup_s": setup_s,
            "fit_s": fit_s,
            "test_auprc": float(auprc(y_test, model.decision_function(split.X_test))),
            "served_auprc": served.served_auprc(n_test, last=n_stable),
            "latency_p50_ms": 1e3 * _quantile(plain_s, 0.5),
            "latency_p90_ms": 1e3 * _quantile(plain_s, 0.9),
            "rows_per_s": plain_rows / sum(plain_s),
        },
        "counts": {
            "drift_confirmed": confirmed,
            "cycles": report["cycles"],
            "swaps": report["swaps"],
            "rollbacks": report["rollbacks"],
            "labels_found": report["labels_found"],
        },
        "failures": failures,
        "attempted": served.attempted + report["cycles"],
        "failed": served.failed + faulted,
        "info": {
            "adapt_s_median": median(cycle_s) if cycle_s else float("nan"),
            "served_auprc_shifted": served.served_auprc(n_test, first=n_stable),
            "stable_batches": n_stable,
            "drift_flag_share_stable": served.flag_share("stable"),
            "drift_flag_share_shifted": served.flag_share("shifted"),
            **_host(pipe),
        },
        "phases": {"latencies_s": plain_s, "services_s": plain_s,
                   "served_rows": batch_id * BULK_ROWS, "flags": served.flags},
        "network": pipe.model.network_,
        "registry_counts": registry.counters,
    }


WORKLOADS = {"train_unsw": train_unsw, "stream_sqb": stream_sqb, "bulk_sqb": bulk_sqb}

"""Per-layer metrics of the traced run, computed from its spans.

``PER_LAYER`` maps every per-layer metric to the callable it times and the
end-to-end metric (on which workload) it should move; names and units are
those of ``BENCHMARK.json``. A metric whose layer a workload bypasses reads
0 there.

Serving times (``serve.*_ms``) are means per request in ``stream_sqb``, per
batch in ``bulk_sqb`` and per scoring call in ``train_unsw``, taken over the
spans inside ``ScoringPipeline.process`` (or ``TargAD.score_batch`` when no
pipeline runs). Training times are totals over the run, set-up included.
Lifecycle and swap times are means per drift-triggered cycle.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median

import numpy as np

# name: (timed callable, end-to-end metric it should move)
PER_LAYER = {
    "data.generate_s": ("repro.data.load_dataset, mean per call", "setup_s (all)"),
    "cluster.elbow_s": ("select_k_elbow", "train_unsw fit_s"),
    "cluster.kmeans_s": ("KMeans.fit, elbow sweep included", "train_unsw fit_s"),
    "cluster.kmeans_fits": ("KMeans.fit calls", "train_unsw fit_s"),
    "select.ae_fit_s": ("SADAutoencoder.fit", "train_unsw fit_s; not refits"),
    "select.ae_count": ("SADAutoencoder.fit calls", "train_unsw fit_s"),
    "train.loss_forward_s": ("classifier_loss (Eq. 8 forward)",
                             "fit_s (all), train.refit_s, lifecycle.adapt_s"),
    "train.steps": ("classifier Adam.step calls", "fit_s (all)"),
    "autodiff.backward_ae_s": ("Tensor.backward under SADAutoencoder.fit",
                               "train_unsw fit_s"),
    "autodiff.backward_clf_s": ("Tensor.backward elsewhere (classifier)",
                                "fit_s (all), train.refit_s, lifecycle.adapt_s"),
    "nn.adam_step_s": ("Adam.step", "fit_s (all), train.refit_s"),
    "train.weight_update_s": ("update_weights + its forward_in_batches",
                              "fit_s (all), train.refit_s"),
    "train.refit_s": ("TargAD.incremental_fit, median",
                      "train_unsw and bulk_sqb refits"),
    "nn.plan_compiles": ("plan_cache_stats misses + invalidations",
                         "fit_s, lifecycle.adapt_s, serving latency"),
    "nn.plan_hit_share": ("plan_cache_stats hits / lookups",
                          "fit_s, lifecycle.adapt_s, serving latency"),
    "serve.latency_p99_ms": ("latency of scoring calls (p99)",
                             "stream_sqb tail latency"),
    "serve.queue_wait_p50_ms": ("generator lateness (p50)",
                                "stream_sqb latency_p50_ms"),
    "serve.queue_wait_p90_ms": ("generator lateness (p90)",
                                "stream_sqb latency_p90_ms"),
    "serve.service_p50_ms": ("time inside the scoring call (p50)",
                             "latency_p50_ms (all)"),
    "serve.sanitize_ms": ("sanitize_batch", "latency_*, rows_per_s"),
    "serve.executor_ms": ("FallbackChain.score self time",
                          "latency_*, rows_per_s"),
    "serve.softmax_score_ms": ("TargAD.score_batch self time (softmax, Eq. 9)",
                               "latency_*, rows_per_s"),
    "serve.forward_ms": ("TargAD.logits", "bulk_sqb rows_per_s mostly"),
    "serve.segment0_ms": ("1st fused Dense+ReLU (backend fused_dense_act)",
                          "bulk_sqb rows_per_s"),
    "serve.segment1_ms": ("2nd fused Dense+ReLU (backend fused_dense_act)",
                          "bulk_sqb rows_per_s"),
    "serve.segment2_ms": ("compiled plan self time: final Dense + dispatch",
                          "bulk_sqb rows_per_s"),
    "serve.forward_gflop_per_s": ("dense FLOPs from layer shapes / forward",
                                  "bulk_sqb rows_per_s"),
    "serve.route_ms": ("route_from_logits (tri-class rule)",
                       "latency_*, rows_per_s"),
    "serve.drift_check_ms": ("DriftMonitor.check",
                             "stream_sqb latency_*, bulk_sqb rows_per_s"),
    "serve.telemetry_ms": ("TelemetryRegistry methods, self time",
                           "stream_sqb latency_p50_ms"),
    "serve.pipeline_other_ms": ("ScoringPipeline.process self time",
                                "latency_*, rows_per_s"),
    "drift.flag_share_stable": ("drifted DriftMonitor reports, stable traffic",
                                "bulk_sqb lifecycle.cycles"),
    "drift.flag_share_shifted": ("drifted reports, shifted traffic",
                                 "bulk_sqb lifecycle.cycles"),
    "lifecycle.adapt_s": ("LifecycleManager.process calls that ran a cycle, median",
                          "bulk_sqb adaptation"),
    "lifecycle.label_s": ("rank_for_labeling", "bulk_sqb lifecycle.adapt_s"),
    "lifecycle.refit_s": ("TargAD.incremental_fit in a cycle",
                          "bulk_sqb lifecycle.adapt_s"),
    "lifecycle.gate_s": ("rest of LifecycleManager.refit_now (gate, assemble)",
                         "bulk_sqb lifecycle.adapt_s"),
    "lifecycle.cycles": ("drift-triggered cycles", "bulk_sqb"),
    "lifecycle.swaps": ("cycles that swapped", "bulk_sqb"),
    "lifecycle.rollbacks": ("cycles that rolled back", "bulk_sqb failed"),
    "lifecycle.labels_found": ("oracle-confirmed targets", "bulk_sqb"),
    "swap.total_s": ("ScoringPipeline.swap_model", "lifecycle.adapt_s"),
    "swap.drift_fit_s": ("DriftMonitor.fit inside swap_model",
                         "lifecycle.adapt_s"),
    "swap.fallback_calibrate_s": ("ReconstructionFallback.calibrate in swap",
                                  "lifecycle.adapt_s"),
    "serve.degraded": ("batches served by the fallback", "failed"),
    "serve.quarantined_rows": ("rows quarantined by sanitize", "failed"),
    "executor.demotions": ("FallbackChain demotions", "failed"),
    "trace.wall_s": ("traced section, set-up included", "-"),
    "trace.remainder_s": ("wall time outside every span", "-"),
    "trace.spans": ("spans recorded", "-"),
    "trace.overhead_pct": ("traced vs untraced headline end-to-end metric", "-"),
}

REQUEST_CTX = ("req", "batch", "call")


def _dense_flops_per_row(network):
    from repro.nn.layers import Dense

    def leaves(module):
        inner = getattr(module, "modules", None)
        if inner is None:
            yield module
        else:
            for child in inner:
                yield from leaves(child)

    return sum(2 * m.in_features * m.out_features for m in leaves(network) if isinstance(m, Dense))


def compute(tracer, result, network, plan_stats, registry_counts):
    """All per-layer metrics except ``trace.overhead_pct`` (set by the runner)."""
    spans = tracer.spans
    dur = tracer.durations()
    own = tracer.self_times()
    kids = tracer.children()
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)

    def total(name, where=None, times=dur):
        return sum(times[i] for i in by_name[name] if where is None or where(i))

    def under(name):
        return lambda i: name in tracer.ancestors(i)

    def not_under(name):
        return lambda i: name not in tracer.ancestors(i)

    m = {}
    loads = by_name["data.load_dataset"]
    m["data.generate_s"] = total("data.load_dataset") / max(len(loads), 1)
    m["cluster.elbow_s"] = total("cluster.select_k_elbow")
    m["cluster.kmeans_s"] = total("cluster.KMeans.fit")
    m["cluster.kmeans_fits"] = len(by_name["cluster.KMeans.fit"])
    m["select.ae_fit_s"] = total("nn.SADAutoencoder.fit")
    m["select.ae_count"] = len(by_name["nn.SADAutoencoder.fit"])
    m["train.loss_forward_s"] = total("core.classifier_loss")
    in_ae = under("nn.SADAutoencoder.fit")
    m["train.steps"] = sum(1 for i in by_name["nn.Adam.step"] if not in_ae(i))
    m["autodiff.backward_ae_s"] = total("autodiff.Tensor.backward", in_ae)
    m["autodiff.backward_clf_s"] = total("autodiff.Tensor.backward", not_under("nn.SADAutoencoder.fit"))
    m["nn.adam_step_s"] = total("nn.Adam.step")
    weight_s = total("core.update_weights")
    for siblings in kids.values():
        for a, b in zip(siblings, siblings[1:]):
            if spans[a][0] == "nn.forward_in_batches" and spans[b][0] == "core.update_weights":
                weight_s += dur[a]
    m["train.weight_update_s"] = weight_s
    refits = [dur[i] for i in by_name["model.incremental_fit"]]
    m["train.refit_s"] = median(refits) if refits else 0.0
    lookups = sum(plan_stats.values())
    m["nn.plan_compiles"] = plan_stats["misses"] + plan_stats["invalidations"]
    m["nn.plan_hit_share"] = plan_stats["hits"] / lookups if lookups else 0.0

    # Serving: spans inside each request's scoring call.
    root_name = "serve.process" if by_name["serve.process"] else "model.score_batch"
    roots = [i for i in by_name[root_name]
             if str(spans[i][4]).startswith(REQUEST_CTX) and root_name not in tracer.ancestors(i)]
    inside = set()
    stack = list(roots)
    while stack:
        i = stack.pop()
        inside.add(i)
        stack.extend(kids.get(i, ()))
    n_req = max(len(roots), 1)

    def per_req(name, times=dur):
        return 1e3 * sum(times[i] for i in by_name[name] if i in inside) / n_req

    m["serve.sanitize_ms"] = per_req("resilience.sanitize_batch")
    m["serve.executor_ms"] = per_req("serving.FallbackChain.score", own)
    m["serve.softmax_score_ms"] = per_req("model.score_batch", own)
    m["serve.forward_ms"] = per_req("model.logits")
    segments = [0.0, 0.0]
    for i in by_name["nn.plan"]:
        if i in inside:
            fused = [c for c in kids.get(i, ()) if spans[c][0] == "backend.fused_dense_act"]
            for k, c in enumerate(fused[:2]):
                segments[k] += dur[c]
    m["serve.segment0_ms"] = 1e3 * segments[0] / n_req
    m["serve.segment1_ms"] = 1e3 * segments[1] / n_req
    m["serve.segment2_ms"] = per_req("nn.plan", own)
    forward_s = sum(dur[i] for i in by_name["model.logits"] if i in inside)
    served_rows = result["phases"].get("served_rows", 0)
    flops = _dense_flops_per_row(network) * served_rows
    m["serve.forward_gflop_per_s"] = flops / forward_s / 1e9 if forward_s else 0.0
    m["serve.route_ms"] = per_req("core.route_from_logits")
    m["serve.drift_check_ms"] = per_req("serving.DriftMonitor.check")
    m["serve.telemetry_ms"] = sum(
        per_req(name, own) for name in by_name if name.startswith("obs.")
    )
    m["serve.pipeline_other_ms"] = per_req("serve.process", own)
    phases = result["phases"]
    waits = phases.get("waits_s") or [0.0]
    services = phases.get("services_s") or [0.0]
    m["serve.latency_p99_ms"] = 1e3 * float(np.quantile(phases.get("latencies_s") or [0.0], 0.99))
    m["serve.queue_wait_p50_ms"] = 1e3 * float(np.quantile(waits, 0.5))
    m["serve.queue_wait_p90_ms"] = 1e3 * float(np.quantile(waits, 0.9))
    m["serve.service_p50_ms"] = 1e3 * float(np.quantile(services, 0.5))
    flags = phases.get("flags", {})
    for phase in ("stable", "shifted"):
        flagged, seen = flags.get(phase, (0, 0))
        m[f"drift.flag_share_{phase}"] = flagged / seen if seen else 0.0

    # Lifecycle: means per drift-triggered cycle.
    cycle_ids = by_name["lifecycle.refit_now"]
    n_cycles = max(len(cycle_ids), 1)
    in_cycle = under("lifecycle.refit_now")
    in_swap = under("serving.swap_model")
    label = total("lifecycle.rank_for_labeling", in_cycle)
    refit = total("model.incremental_fit", in_cycle)
    swap = total("serving.swap_model", in_cycle)
    m["lifecycle.adapt_s"] = median(
        dur[i] for i in by_name["lifecycle.process"]
        if any(spans[c][0] == "lifecycle.refit_now" for c in kids.get(i, ()))
    ) if cycle_ids else 0.0
    m["lifecycle.label_s"] = label / n_cycles
    m["lifecycle.refit_s"] = refit / n_cycles
    m["lifecycle.gate_s"] = (total("lifecycle.refit_now") - label - refit - swap) / n_cycles
    counts = result["counts"]
    for key in ("cycles", "swaps", "rollbacks", "labels_found"):
        m[f"lifecycle.{key}"] = counts.get(key, 0)
    m["swap.total_s"] = swap / n_cycles
    m["swap.drift_fit_s"] = total("serving.DriftMonitor.fit", in_swap) / n_cycles
    m["swap.fallback_calibrate_s"] = total("resilience.fallback_calibrate", in_swap) / n_cycles
    m["serve.degraded"] = registry_counts.get("resilience.degraded_batches", 0)
    m["serve.quarantined_rows"] = registry_counts.get("resilience.quarantine", 0)
    m["executor.demotions"] = registry_counts.get("serve.executor.demotions", 0)
    m["trace.spans"] = len(spans)
    return m

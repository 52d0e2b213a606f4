"""Command-line interface for the TargAD reproduction.

Subcommands::

    repro info      [--dataset NAME]            # dataset statistics
    repro train     --dataset NAME [...]        # fit TargAD, report, save
    repro evaluate  --model PATH --dataset NAME # score a saved model
    repro compare   --dataset NAME [...]        # mini Table II
    repro telemetry --dataset NAME [...]        # profile fit+serve, dashboard
    repro resilience --model PATH --dataset NAME [...]  # chaos replay
    repro taxonomy  [--grid smoke|full] [...]   # cross-family robustness sweep
    repro lifecycle --dataset NAME [...]        # drift-triggered refit + hot-swap replay
    repro report    --output PATH [...]         # markdown experiment report

Serving commands score in-process through
:class:`repro.serving.ScoringPipeline` on the default numeric backend.

Every command is deterministic under ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.core import TargAD, TargADConfig, load_model, save_model
from repro.data import DATASET_NAMES, load_dataset
from repro.eval import DETECTOR_NAMES, ResultTable, evaluate_detector, format_mean_std
from repro.eval.registry import EXTRA_DETECTOR_NAMES
from repro.metrics import auprc, auroc, classification_report, precision_at_k


def _add_split_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", required=True, choices=DATASET_NAMES)
    parser.add_argument("--scale", type=float, default=None,
                        help="split size multiplier (Table I = 1.0; default REPRO_SCALE)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--contamination", type=float, default=None)


def _load_split(args):
    kwargs = {}
    if args.scale is not None:
        kwargs["scale"] = args.scale
    if getattr(args, "contamination", None) is not None:
        kwargs["contamination"] = args.contamination
    return load_dataset(args.dataset, random_state=args.seed, **kwargs)


def cmd_info(args) -> int:
    names = [args.dataset] if args.dataset else DATASET_NAMES
    for name in names:
        split = load_dataset(name, random_state=args.seed,
                             **({"scale": args.scale} if args.scale else {}))
        print(json.dumps(split.summary(), indent=2))
    return 0


def cmd_train(args) -> int:
    split = _load_split(args)
    print(f"Training TargAD on {args.dataset} "
          f"(n_unlabeled={len(split.X_unlabeled)}, m={split.n_target_classes})...")
    config = TargADConfig(
        k=args.k, alpha=args.alpha, random_state=args.seed,
        lambda1=args.lambda1, lambda2=args.lambda2,
    )
    model = TargAD(config)
    model.fit(split.X_unlabeled, split.X_labeled, split.y_labeled)

    for label, X, y in (
        ("validation", split.X_val, split.y_val_binary),
        ("test", split.X_test, split.y_test_binary),
    ):
        scores = model.decision_function(X)
        print(f"  {label:10s} AUPRC={auprc(y, scores):.3f} AUROC={auroc(y, scores):.3f} "
              f"P@50={precision_at_k(y, scores, min(50, len(y))):.3f}")

    if args.output:
        save_model(model, args.output)
        print(f"Model saved to {args.output}")
    return 0


def cmd_evaluate(args) -> int:
    model = load_model(args.model)
    split = _load_split(args)
    scores = model.decision_function(split.X_test)
    y = split.y_test_binary
    print(f"AUPRC={auprc(y, scores):.3f} AUROC={auroc(y, scores):.3f}")

    tri = model.predict_triclass(split.X_test, strategy=args.strategy)
    report = classification_report(split.test_kind, tri, labels=[0, 1, 2])
    rows = {0: "normal", 1: "target", 2: "non-target",
            "macro avg": "macro avg", "weighted avg": "weighted avg"}
    table = ResultTable(f"Tri-class report ({args.strategy.upper()})",
                        columns=["precision", "recall", "f1"], row_header="class")
    for key, label in rows.items():
        table.add_row(label, {m: f"{report[key][m]:.3f}" for m in table.columns})
    table.print()
    return 0


def cmd_compare(args) -> int:
    detectors = args.detectors.split(",") if args.detectors else DETECTOR_NAMES
    unknown = set(detectors) - set(DETECTOR_NAMES) - set(EXTRA_DETECTOR_NAMES)
    if unknown:
        print(f"unknown detectors: {sorted(unknown)}; choices: {DETECTOR_NAMES}",
              file=sys.stderr)
        return 2
    seeds = list(range(args.n_seeds))
    table = ResultTable(
        f"Comparison on {args.dataset} ({args.n_seeds} seeds)",
        columns=["AUPRC", "AUROC"],
    )
    for name in detectors:
        result = evaluate_detector(name, args.dataset, seeds=seeds,
                                   scale=args.scale)
        table.add_row(name, {
            "AUPRC": format_mean_std(result.auprc_mean, result.auprc_std),
            "AUROC": format_mean_std(result.auroc_mean, result.auroc_std),
        })
    table.print()
    return 0


def cmd_telemetry(args) -> int:
    """Profile one fit + serve cycle and print the telemetry dashboard."""
    import numpy as np

    from repro.obs import TelemetryRegistry, dump_json, render_dashboard
    from repro.serving import ScoringPipeline

    split = _load_split(args)
    registry = TelemetryRegistry()
    print(f"Profiling TargAD on {args.dataset} "
          f"(n_unlabeled={len(split.X_unlabeled)}, seed={args.seed})...")
    model = TargAD(TargADConfig(k=args.k, alpha=args.alpha, random_state=args.seed),
                   telemetry=registry)
    model.fit(split.X_unlabeled, split.X_labeled, split.y_labeled)

    pipe = ScoringPipeline(model, policy="f1", telemetry=registry)
    pipe.calibrate(split.X_val, split.y_val_binary, X_reference=split.X_unlabeled)
    for chunk in np.array_split(np.arange(len(split.X_test)), max(args.batches, 1)):
        if len(chunk):
            pipe.process(split.X_test[chunk])

    print(render_dashboard(registry, title=f"repro telemetry — {args.dataset}"))
    if args.json:
        path = dump_json(registry, args.json, dataset=args.dataset, seed=args.seed)
        print(f"Telemetry snapshot written to {path}")
    return 0


def cmd_resilience(args) -> int:
    """Replay a fault plan against a saved model and watch the breaker."""
    import numpy as np

    from repro.core import ModelLoadError
    from repro.obs import TelemetryRegistry, dump_json
    from repro.resilience import CircuitBreaker, FaultPlan, FaultyModel, ManualClock, corrupt_rows
    from repro.serving import ScoringPipeline

    try:
        model = load_model(args.model)
    except ModelLoadError as exc:
        print(f"cannot load model {args.model}: {exc}", file=sys.stderr)
        return 2

    if args.plan:
        with open(args.plan) as fh:
            plan = FaultPlan.from_dict(json.load(fh))
    else:
        plan = FaultPlan(raise_on=(2, 3), nan_fraction=0.3, nan_on=(5,),
                         seed=args.seed)
    print(f"Fault plan: {plan.describe()}")

    split = _load_split(args)
    registry = TelemetryRegistry()
    clock = ManualClock()
    breaker = CircuitBreaker(
        failure_threshold=args.failure_threshold,
        cooldown=args.cooldown,
        clock=clock,
        telemetry=registry,
    )
    pipe = ScoringPipeline(
        model, policy="budget",
        review_budget=min(args.review_budget, len(split.X_val)),
        circuit_breaker=breaker, telemetry=registry, monitor_drift=False,
    )
    pipe.calibrate(split.X_val)
    # Swap the chaos wrapper in only after calibration so the plan's
    # 1-based call indices count *serving* batches, not the calibration pass.
    pipe.model = FaultyModel(model, plan, sleep=lambda s: None, telemetry=registry)

    rng = np.random.default_rng(args.seed)
    chunks = [c for c in np.array_split(np.arange(len(split.X_test)),
                                        max(args.batches, 1)) if len(c)]
    for i, chunk in enumerate(chunks):
        X = split.X_test[chunk]
        if args.corrupt_rows > 0:
            X = corrupt_rows(X, args.corrupt_rows, rng)
        batch = pipe.process(X)
        print(f"batch {i:2d} [breaker {breaker.state:>9s}] {batch.summary()}")
        clock.advance(args.advance)

    snap = breaker.snapshot()
    print(f"\nbreaker: state={snap['state']} "
          f"consecutive_failures={snap['consecutive_failures']}"
          f"/{snap['failure_threshold']} cooldown={snap['cooldown']:g}s")
    resilience_counters = {
        name: value for name, value in sorted(registry.counters.items())
        if name.startswith("resilience.")
    }
    for name, value in resilience_counters.items():
        print(f"  {name} = {value:g}")
    transitions = [e for e in registry.events
                   if e.name.startswith("resilience.breaker.")
                   and e.name != "resilience.breaker.state"]
    if transitions:
        print("breaker transitions:")
        for event in transitions:
            print("  " + event.format_line())
    if args.json:
        path = dump_json(registry, args.json, dataset=args.dataset, seed=args.seed)
        print(f"Telemetry snapshot written to {path}")
    return 0


def cmd_taxonomy(args) -> int:
    """Sweep detectors across the anomaly-taxonomy scenario grid."""
    from pathlib import Path

    from repro.data.taxonomy import INJECTOR_NAMES
    from repro.experiments.report import taxonomy_section, write_taxonomy_report
    from repro.experiments.taxonomy_sweep import grid_families, taxonomy_sweep
    from repro.obs import TelemetryRegistry, render_dashboard

    detectors = args.detectors.split(",") if args.detectors else DETECTOR_NAMES
    unknown = set(detectors) - set(DETECTOR_NAMES) - set(EXTRA_DETECTOR_NAMES)
    if unknown:
        print(f"unknown detectors: {sorted(unknown)}; choices: {DETECTOR_NAMES}",
              file=sys.stderr)
        return 2
    families = args.families.split(",") if args.families else list(grid_families(args.grid))
    unknown = set(families) - set(INJECTOR_NAMES)
    if unknown:
        print(f"unknown taxonomy families: {sorted(unknown)}; "
              f"choices: {INJECTOR_NAMES}", file=sys.stderr)
        return 2
    seeds = [args.seed + i for i in range(args.n_seeds)]

    registry = TelemetryRegistry()
    print(f"Taxonomy sweep on {args.dataset}: families {', '.join(families)} · "
          f"{len(detectors)} detector(s) · {len(seeds)} seed(s) · scale {args.scale}")
    result = taxonomy_sweep(
        args.dataset, detectors, families=families, seeds=seeds,
        scale=args.scale, telemetry=registry,
    )
    print()
    print(taxonomy_section(result))
    if args.json:
        Path(args.json).write_text(result.to_json() + "\n")
        print(f"JSON results written to {args.json}")
    if args.markdown:
        path = write_taxonomy_report(result, args.markdown)
        print(f"Markdown report written to {path}")
    if args.telemetry:
        print(render_dashboard(registry, title=f"repro taxonomy — {args.dataset}"))
    return 0


def cmd_lifecycle(args) -> int:
    """Replay a drift scenario through the continual-learning loop."""
    import numpy as np

    from repro.data.schema import KIND_TARGET
    from repro.lifecycle import (
        DriftPolicy, LifecycleManager, drift_replay, make_split_oracle,
        shift_regime,
    )
    from repro.obs import TelemetryRegistry, render_dashboard
    from repro.serving import ScoringPipeline

    split = _load_split(args)
    print(f"Fitting TargAD on {args.dataset} "
          f"(n_unlabeled={len(split.X_unlabeled)}, seed={args.seed})...")
    model = TargAD(TargADConfig(k=args.k, alpha=args.alpha,
                                random_state=args.seed))
    model.fit(split.X_unlabeled, split.X_labeled, split.y_labeled)

    registry = TelemetryRegistry()
    pipe = ScoringPipeline(model, policy="f1", telemetry=registry,
                           drift_threshold=args.drift_threshold)
    pipe.calibrate(split.X_val, split.y_val_binary,
                   X_reference=split.X_unlabeled)

    # Shifted regime: traffic, an eval slice, and the oracle's answer key
    # all come from the same seeded covariate shift of the test split.
    X_shifted = shift_regime(split.X_test, shift=args.shift, seed=args.seed)
    half = len(X_shifted) // 2
    X_drift, X_eval = X_shifted[:half], X_shifted[half:]
    y_all = np.where(split.test_kind == KIND_TARGET, 1, 0)
    oracle = make_split_oracle(X_drift, y_all[:half])

    manager = LifecycleManager(
        pipe, split.X_unlabeled, split.X_labeled, split.y_labeled,
        split.X_val, split.y_val_binary, oracle=oracle,
        policy=DriftPolicy(
            confirm_checks=args.confirm_checks,
            cooldown_batches=args.cooldown,
            label_budget=args.label_budget,
            refit_epochs=args.refit_epochs,
            min_auprc_ratio=args.min_auprc_ratio,
        ),
        checkpoint_dir=args.checkpoint_dir,
        telemetry=registry, seed=args.seed,
    )
    print(f"Replaying warm + shifted traffic (shift={args.shift:g}, "
          f"batches of {args.batch_rows} rows)...")
    result = drift_replay(
        manager, split.X_val, X_drift, X_eval, y_all[half:],
        batch_rows=args.batch_rows, progress=print,
    )

    print("\nRecovery report:")
    d = result.to_dict()
    print(f"  batches to detection:   {d['batches_to_detection']}")
    print(f"  detection -> swap:      "
          + (f"{d['detection_to_swap_seconds']:.2f}s"
             if d["detection_to_swap_seconds"] is not None else "n/a"))
    print(f"  AUPRC before drift:     {d['auprc_before_drift']:.3f}")
    print(f"  AUPRC at detection:     {d['auprc_at_detection']:.3f}")
    print(f"  AUPRC after recovery:   {d['auprc_final']:.3f}")
    print(f"  AUPRC of stale model:   {d['auprc_stale_final']:.3f}")
    print(f"  swaps / rollbacks:      {d['swaps']} / {d['rollbacks']}")
    print(f"  recovered:              {d['recovered']}")
    report = manager.report()
    print(f"  labels queried / found: {report['labels_queried']} / "
          f"{report['labels_found']}")
    for event in report["events"]:
        print(f"  event: {event}")
    if args.telemetry:
        print(render_dashboard(registry, title=f"repro lifecycle — {args.dataset}"))
    if args.json:
        payload = {"dataset": args.dataset, "seed": args.seed,
                   "replay": d, "report": report}
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"Lifecycle results written to {args.json}")
    return 0


def cmd_report(args) -> int:
    from repro.experiments import generate_report

    path = generate_report(
        args.output,
        datasets=tuple(args.datasets.split(",")),
        detectors=tuple(args.detectors.split(",")),
        seeds=tuple(range(args.n_seeds)),
        scale=args.scale,
    )
    print(f"Report written to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="print dataset statistics")
    p_info.add_argument("--dataset", choices=DATASET_NAMES)
    p_info.add_argument("--scale", type=float, default=None)
    p_info.add_argument("--seed", type=int, default=0)
    p_info.set_defaults(func=cmd_info)

    p_train = sub.add_parser("train", help="fit TargAD and report metrics")
    _add_split_args(p_train)
    p_train.add_argument("--k", type=int, default=None, help="clusters (default: elbow)")
    p_train.add_argument("--alpha", type=float, default=0.05)
    p_train.add_argument("--lambda1", type=float, default=0.1)
    p_train.add_argument("--lambda2", type=float, default=1.0)
    p_train.add_argument("--output", help="save the fitted model (.npz)")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="evaluate a saved model")
    _add_split_args(p_eval)
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--strategy", default="ed", choices=["msp", "es", "ed"])
    p_eval.set_defaults(func=cmd_evaluate)

    p_cmp = sub.add_parser("compare", help="compare detectors (mini Table II)")
    _add_split_args(p_cmp)
    p_cmp.add_argument("--detectors", help="comma-separated registry names (default: all)")
    p_cmp.add_argument("--n-seeds", type=int, default=3)
    p_cmp.set_defaults(func=cmd_compare)

    p_tel = sub.add_parser(
        "telemetry",
        help="profile a fit + serve cycle and print the telemetry dashboard",
    )
    _add_split_args(p_tel)
    p_tel.add_argument("--k", type=int, default=None, help="clusters (default: elbow)")
    p_tel.add_argument("--alpha", type=float, default=0.05)
    p_tel.add_argument("--batches", type=int, default=4,
                       help="serving batches the test split is processed in")
    p_tel.add_argument("--json", help="also dump the telemetry snapshot as JSON")
    p_tel.set_defaults(func=cmd_telemetry)

    p_res = sub.add_parser(
        "resilience",
        help="replay a fault plan against a saved model and watch the breaker",
    )
    _add_split_args(p_res)
    p_res.add_argument("--model", required=True, help="saved model (.npz)")
    p_res.add_argument("--plan", help="JSON fault-plan file (default: a built-in "
                       "raise-twice-then-NaN scenario)")
    p_res.add_argument("--batches", type=int, default=8,
                       help="serving batches the test split is processed in")
    p_res.add_argument("--corrupt-rows", type=float, default=0.0,
                       help="fraction of each batch's rows NaN-corrupted "
                       "(exercises the quarantine path)")
    p_res.add_argument("--failure-threshold", type=int, default=2,
                       help="consecutive faults that trip the breaker")
    p_res.add_argument("--cooldown", type=float, default=30.0,
                       help="seconds the breaker stays open (simulated clock)")
    p_res.add_argument("--advance", type=float, default=15.0,
                       help="simulated seconds between batches")
    p_res.add_argument("--review-budget", type=int, default=25)
    p_res.add_argument("--json", help="also dump the telemetry snapshot as JSON")
    p_res.set_defaults(func=cmd_resilience)

    p_tax = sub.add_parser(
        "taxonomy",
        help="sweep detectors across the anomaly-taxonomy scenario grid",
    )
    p_tax.add_argument("--dataset", default="kddcup99", choices=DATASET_NAMES)
    p_tax.add_argument("--grid", default="smoke", choices=["smoke", "full"],
                       help="predefined injector-family grid (default: smoke)")
    p_tax.add_argument("--families",
                       help="comma-separated injector families overriding --grid")
    p_tax.add_argument("--detectors",
                       help="comma-separated registry names (default: all Table II)")
    p_tax.add_argument("--seed", type=int, default=0)
    p_tax.add_argument("--n-seeds", type=int, default=1)
    p_tax.add_argument("--scale", type=float, default=0.02,
                       help="split size multiplier (default 0.02: smoke-sized)")
    p_tax.add_argument("--json", help="write the results table as canonical JSON")
    p_tax.add_argument("--markdown", help="write a standalone markdown report")
    p_tax.add_argument("--telemetry", action="store_true",
                       help="print the sweep's telemetry dashboard")
    p_tax.set_defaults(func=cmd_taxonomy)

    p_lc = sub.add_parser(
        "lifecycle",
        help="replay a drift scenario through the continual-learning loop",
    )
    _add_split_args(p_lc)
    p_lc.add_argument("--k", type=int, default=None, help="clusters (default: elbow)")
    p_lc.add_argument("--alpha", type=float, default=0.05)
    p_lc.add_argument("--shift", type=float, default=4.0,
                      help="covariate shift applied to half the features")
    p_lc.add_argument("--batch-rows", type=int, default=64,
                      help="rows per served batch")
    p_lc.add_argument("--drift-threshold", type=float, default=0.3,
                      help="per-feature KS threshold for the drift monitor")
    p_lc.add_argument("--confirm-checks", type=int, default=2,
                      help="consecutive drifted batches that confirm drift")
    p_lc.add_argument("--cooldown", type=int, default=10,
                      help="batches ignored after a swap or rollback")
    p_lc.add_argument("--label-budget", type=int, default=20,
                      help="oracle queries per refit cycle")
    p_lc.add_argument("--refit-epochs", type=int, default=5,
                      help="classifier epochs for the warm-started refit")
    p_lc.add_argument("--min-auprc-ratio", type=float, default=0.8,
                      help="validation gate: candidate AUPRC / live AUPRC floor")
    p_lc.add_argument("--checkpoint-dir",
                      help="checkpoint each refit cycle under this directory")
    p_lc.add_argument("--telemetry", action="store_true",
                      help="print the lifecycle telemetry dashboard")
    p_lc.add_argument("--json", help="write the replay results as JSON")
    p_lc.set_defaults(func=cmd_lifecycle)

    p_rep = sub.add_parser("report", help="write a markdown experiment report")
    p_rep.add_argument("--output", required=True, help="markdown file to write")
    p_rep.add_argument("--datasets", default="kddcup99",
                       help="comma-separated dataset names")
    p_rep.add_argument("--detectors", default="iForest,DevNet,TargAD")
    p_rep.add_argument("--n-seeds", type=int, default=1)
    p_rep.add_argument("--scale", type=float, default=0.03)
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload in this process and write its result as JSON.

Started by ``run.py`` in a fresh process with the BLAS/OpenMP pools pinned to
one thread; not meant to be run by hand::

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --out RESULT.json [--spans SPANS.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time


def step_counts(tracer):
    """Optimizer steps per fit, keyed so that they repeat exactly for a seed.

    Classifier steps of the first fit (``fit`` or ``setup0``) and of the
    first train_unsw refit, autoencoder steps of the first fit, and the
    classifier steps of each drift-triggered refit in order.
    """
    clf, ae = {}, {}
    for i, span in enumerate(tracer.spans):
        if span[0] != "nn.Adam.step":
            continue
        bucket = ae if "nn.SADAutoencoder.fit" in tracer.ancestors(i) else clf
        bucket[span[4]] = bucket.get(span[4], 0) + 1
    first = "fit" if "fit" in clf else "setup0"
    counts = {"clf_steps_first_fit": clf.get(first, 0), "ae_steps_first_fit": ae.get(first, 0)}
    if "refit0" in clf:
        counts["clf_steps_refit"] = clf["refit0"]
    cycles = [n for ctx, n in clf.items() if str(ctx).startswith("batch")]
    if cycles:
        counts["clf_steps_cycles"] = cycles
    return counts


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    import numpy as np

    import checks
    import layers
    from repro.nn.inference import plan_cache_stats
    from tracing import Tracer
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    broken = checks.self_test()
    stats_before = plan_cache_stats()
    start = time.perf_counter()
    result = WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    wall_s = time.perf_counter() - start
    stats_after = plan_cache_stats()
    network = result.pop("network")
    registry_counts = result.pop("registry_counts")

    result["failures"] = [f"check self-test: {name} accepts a wrong output" for name in broken] \
        + result["failures"]
    result["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["host"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if tracer is not None:
        tracer.uninstall()
        plan_stats = {k: stats_after[k] - stats_before[k] for k in stats_after}
        per_layer = layers.compute(tracer, result, network, plan_stats, registry_counts)
        breakdown, remainder = tracer.breakdown(wall_s)
        per_layer["trace.wall_s"] = wall_s
        result["counts"].update(step_counts(tracer))
        per_layer["trace.remainder_s"] = remainder
        result["per_layer"] = per_layer
        result["breakdown"] = breakdown
        if args.spans:
            tracer.dump(args.spans, {"workload": args.workload, "seed": args.seed,
                                     "wall_s": wall_s})
    result.pop("phases")
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

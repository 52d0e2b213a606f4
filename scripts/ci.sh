#!/usr/bin/env bash
# CI entry point: tier-1 suite first (the gate), then the fast lane and
# the benchmark's self-test.
#
#   scripts/ci.sh          # tier-1 + fast lane + perfbench self-test
#   scripts/ci.sh fast     # fast lane only (-m "not slow")
#   scripts/ci.sh tier1    # tier-1 gate only
#   scripts/ci.sh chaos    # chaos lane only (-m chaos fault-injection scenarios)
#   scripts/ci.sh taxonomy # anomaly-taxonomy lane (-m taxonomy injector/sweep tests)
#   scripts/ci.sh lifecycle # drift-triggered refit + hot-swap suites + CLI smoke
#   scripts/ci.sh backend  # numpy backend conformance, fused kernels, plan cache
#   scripts/ci.sh perfbench # benchmark self-test + 3 s runs of every workload
#
# The tier-1 gate is the canonical `PYTHONPATH=src python -m pytest -x -q`
# run from ROADMAP.md. The fast lane re-runs the suite without the `slow`
# marker (wall-clock-sensitive tests like the telemetry overhead guard),
# which is the loop to use while iterating locally.

set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

lane="${1:-all}"

run_tier1() {
    echo "== tier-1 gate: full test suite =="
    python -m pytest -x -q
}

run_fast() {
    echo '== fast lane: -m "not slow" =='
    python -m pytest -x -q -m "not slow"
}

run_perfbench_selftest() {
    # Feeds every perfbench output check a wrong output; fails if one
    # accepts it.
    echo '== perfbench self-test =='
    python3 perfbench/run.py --selftest
}

run_perfbench() {
    # Short runs of every workload; train_unsw is the only one that checks
    # training output (finite epoch losses, the alpha-cut candidate count,
    # the scoring AUPRC). perfbench exits 0 even when an
    # output check fails, so the lane reads the result line (the last line
    # of output) and fails unless it reports correct outputs and no failed
    # operations.
    run_perfbench_selftest
    for workload in train_unsw stream_sqb bulk_sqb; do
        echo "== perfbench lane: $workload, 3 s =="
        out="$(python3 perfbench/run.py --workload "$workload" --seconds 3)"
        echo "$out"
        printf '%s\n' "$out" | tail -n 1 | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
correct, failed = result.get("correct"), result.get("failed")
print("%s: correct=%s failed=%s" % (sys.argv[1], correct, failed))
sys.exit(0 if correct is True and failed == 0 else 1)
' "$workload"
    done
}

run_chaos() {
    echo '== chaos lane: -m chaos =='
    python -m pytest -x -q -m chaos
}

run_taxonomy() {
    # The anomaly-taxonomy lane: injector semantics + property tests plus
    # a tiny cross-family sweep (2 families, smoke-scale splits), so the
    # taxonomy subsystem can be gated without paying for the full grid.
    echo '== taxonomy lane: -m taxonomy =='
    python -m pytest -x -q -m taxonomy
}

run_lifecycle() {
    # The continual-learning lane: drift-triggered refit + zero-downtime
    # hot-swap. Covers the LifecycleManager loop, the hot-swap integration
    # suite (bitwise post-swap parity, concurrent-traffic atomicity,
    # rollback at stage and flip), drift-monitor robustness regressions,
    # checkpoint housekeeping, and the swap-phase chaos scenarios. Ends
    # with a CLI drift-replay smoke on a tiny split.
    echo '== lifecycle lane: drift-triggered refit + hot-swap =='
    python -m pytest -x -q tests/lifecycle \
        tests/serving/test_hotswap.py tests/serving/test_drift.py \
        tests/resilience/test_checkpoint.py tests/resilience/test_faultinject.py
    python -m pytest -x -q -m chaos tests/serving/test_chaos.py -k Swap
    python -m repro.cli lifecycle --dataset kddcup99 --scale 0.02 \
        --refit-epochs 2 --json /tmp/lifecycle_smoke.json
}

run_backend() {
    # The execution-backend lane: the registry-parametrized conformance
    # suite (compiled-vs-graph parity under the numpy backend at its
    # published parity_atol, plus switching to a test-local second
    # backend), the backend registry tests, the fused-kernel dispatch
    # suite, the backend-keyed plan cache, and the end-to-end parity
    # suite.
    echo '== backend lane: numpy backend conformance =='
    python -m pytest -x -q tests/backend \
        tests/nn/test_backend_conformance.py \
        tests/nn/test_fused_kernels.py tests/nn/test_plan_cache.py \
        tests/test_inference_parity.py
}

case "$lane" in
    tier1) run_tier1 ;;
    fast)  run_fast ;;
    chaos) run_chaos ;;
    taxonomy) run_taxonomy ;;
    lifecycle) run_lifecycle ;;
    backend) run_backend ;;
    perfbench) run_perfbench ;;
    all)   run_tier1; run_fast; run_perfbench_selftest ;;
    *)     echo "usage: scripts/ci.sh [tier1|fast|chaos|taxonomy|lifecycle|backend|perfbench|all]" >&2; exit 2 ;;
esac
